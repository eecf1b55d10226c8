//! The experiment engine: declarative sweep specs, a deduplicating planner,
//! and a shared executor behind the single `experiments` runner binary.
//!
//! Every paper artifact (Figs. 2–9, Table II, the ablations, calibration,
//! welfare and Edgeworth studies) is declared as an [`spec::ExperimentSpec`]:
//! a pure function from a [`spec::SpecCtx`] (resolution + CLI overrides) to
//! a list of [`task::Task`] values, plus a render function that turns the
//! executed results into [`table::SweepTable`]s. The pipeline is
//!
//! ```text
//! specs ──planner──▶ deduplicated task batch ──executor──▶ results ──render──▶ tables
//! ```
//!
//! * the **planner** ([`planner`]) keys every task by the exact bit patterns
//!   of its inputs, so identical subgame/leader solves requested by several
//!   specs (or several grid points) are planned **once**;
//! * the **executor** ([`executor`]) fans the plan's schedule across
//!   [`mbm_par::Pool::par_eval`] — results are bitwise identical at any
//!   thread count — and records per-task telemetry through [`mbm_obs`];
//! * market-level solves route through [`mbm_core::scenario::Scenario`],
//!   the one solve path, so specs cannot drift from the library;
//! * rendering is deterministic, so the serialized
//!   [`table::ExperimentResult`] is canonical.
//!
//! See DESIGN.md §8 for the model and the cache-sharing semantics.

pub mod benchrun;
pub mod engine;
pub mod error;
pub mod executor;
pub mod market;
pub mod obs_bridge;
pub mod planner;
pub mod runner;
pub mod spec;
pub mod specs;
pub mod table;
pub mod task;

pub use engine::{run_batch, run_tasks, Batch};
pub use error::EngineError;
pub use spec::{registry, ExperimentSpec, Resolution, SpecCtx};
pub use table::{ExperimentResult, SweepTable};
pub use task::{Task, TaskOutput};
