//! Discrete-event mobile blockchain mining simulator.
//!
//! The paper's winning-probability algebra (Section III) rests on a
//! generative story: PoW mining is a memoryless race, a mined block needs
//! its venue-dependent propagation delay to reach consensus, and a
//! conflicting block found during that window forks the chain. This crate
//! *implements that story* as a discrete-event Monte-Carlo simulation, which
//! serves two purposes:
//!
//! 1. regenerate the paper's Fig. 2 (block-collision PDF and split-rate CDF
//!    versus propagation delay) from first principles, and
//! 2. cross-validate the analytic winning probabilities `W_i` of
//!    `mbm-core` against empirical win frequencies.
//!
//! Modules:
//!
//! * [`engine`] — a deterministic discrete-event queue.
//! * [`network`] — venue delays (edge ≈ 0, cloud = `D_avg`) and consensus
//!   timing.
//! * [`race`] — one mining round: the PoW race to consensus, with forks.
//! * [`sim`] — many rounds with edge operation modes (connected transfer /
//!   standalone rejection) and win/fork tallies.
//! * [`fork`] — the Fig. 2 collision experiment.
//! * [`hash`] — SHA-256 from scratch (FIPS 180-4, NIST-vector tested).
//! * [`pow`] — hash-level proof-of-work puzzles, grounding the exponential
//!   race abstraction (geometric attempts ⇒ memoryless arrivals).
//! * [`ledger`] — the append-only block ledger with longest-chain fork
//!   resolution and reward accounting.
//! * [`session`] — ledger-backed multi-round sessions whose reward shares
//!   converge to the analytic `W_i`.
//!
//! # Example
//!
//! ```
//! use mbm_chain_sim::sim::{simulate, SimConfig};
//! use mbm_chain_sim::network::DelayModel;
//!
//! # fn main() -> Result<(), mbm_chain_sim::SimError> {
//! let cfg = SimConfig {
//!     unit_rate: 0.001,
//!     delays: DelayModel::new(10.0, 0.0)?,
//!     mode: None,
//!     rounds: 2000,
//!     seed: 7,
//! };
//! // Two miners; the second has twice the power of the first.
//! let report = simulate(&[(1.0, 1.0), (2.0, 2.0)], &cfg)?;
//! let freq = report.win_frequencies();
//! assert!(freq[1] > freq[0]); // more power, more wins
//! # Ok(())
//! # }
//! ```

// Lint policy: `!(x > 0.0)`-style guards deliberately reject NaN alongside
// out-of-range values (rewriting via `partial_cmp` would lose that), and
// index-based loops mirror the paper's sum-over-miners notation.
#![allow(
    clippy::neg_cmp_op_on_partial_ord,
    clippy::nonminimal_bool,
    clippy::needless_range_loop,
    clippy::explicit_counter_loop
)]

pub mod engine;
pub mod error;
pub mod fork;
pub mod hash;
pub mod ledger;
pub mod network;
pub mod pow;
pub mod race;
pub mod session;
pub mod sim;

pub use error::SimError;
