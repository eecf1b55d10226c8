//! Optimization routines used to compute best responses and leader prices.
//!
//! * [`golden`] — golden-section search for one-dimensional unimodal
//!   maximization (service-provider pricing given follower reactions).
//! * [`grid`] — adaptive refining grid search, a robust fallback for
//!   objectives whose unimodality is not guaranteed.
//! * [`projected_gradient`] — projected-gradient ascent for concave
//!   objectives over convex sets (miner best responses over budget sets).

pub mod golden;
pub mod grid;
pub mod projected_gradient;

pub use golden::{golden_section_max, GoldenResult};
pub use grid::{adaptive_grid_max, adaptive_grid_max_batch, GridResult};
pub use projected_gradient::{projected_gradient_max, PgParams, PgResult};
