//! Declarative experiment specs and the registry the runner serves.
//!
//! An [`ExperimentSpec`] is two pure functions over a [`SpecCtx`]: `tasks`
//! declares the solves the experiment needs (sweep axes unrolled into
//! [`PlannedTask`]s) and `render` turns the executed [`TaskResults`] into
//! [`SweepTable`]s. Specs never run solvers themselves — the planner dedups
//! their task lists and the executor fans them out — so two specs that
//! sweep the same subgame share one solve automatically.

use crate::error::EngineError;
use crate::executor::TaskResults;
use crate::planner::PlannedTask;
use crate::table::SweepTable;

/// Sweep resolution: figures run `Full`; CI smoke runs `Check`, which
/// shrinks Monte-Carlo samples, learning periods and regret iterations
/// (the sweep *structure* is unchanged, so every code path still runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Publication resolution — byte-identical to the legacy drivers.
    Full,
    /// Reduced resolution for smoke runs.
    Check,
}

/// Everything a spec's `tasks`/`render` pair may depend on.
#[derive(Debug, Clone)]
pub struct SpecCtx {
    /// Sweep resolution.
    pub resolution: Resolution,
    /// Positional CLI overrides (`experiments --only NAME ARGS...`).
    pub args: Vec<f64>,
}

impl SpecCtx {
    /// Full-resolution context with no overrides.
    #[must_use]
    pub fn full() -> Self {
        SpecCtx { resolution: Resolution::Full, args: Vec::new() }
    }

    /// Check-resolution context with no overrides.
    #[must_use]
    pub fn check() -> Self {
        SpecCtx { resolution: Resolution::Check, args: Vec::new() }
    }

    /// Positional override `index` (1-based, like the legacy `arg_or`).
    /// Missing — or unparsable, stored as NaN by the runner — slots fall
    /// back to `default`, exactly like the legacy helper.
    #[must_use]
    pub fn arg_or(&self, index: usize, default: f64) -> f64 {
        match self.args.get(index - 1) {
            Some(v) if !v.is_nan() => *v,
            _ => default,
        }
    }

    /// True in `Check` resolution.
    #[must_use]
    pub fn is_check(&self) -> bool {
        self.resolution == Resolution::Check
    }

    /// `full` at publication resolution, `check` in smoke runs.
    #[must_use]
    pub fn pick(&self, full: usize, check: usize) -> usize {
        match self.resolution {
            Resolution::Full => full,
            Resolution::Check => check,
        }
    }
}

/// One declared experiment: a name, a summary, and the `tasks`/`render`
/// pair (plain function pointers so the registry stays `const`-friendly).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// Registry name, as `experiments --only` takes it (`fig4`, `welfare`, …).
    pub name: &'static str,
    /// One-line description for `experiments --list`.
    pub summary: &'static str,
    /// Declares the solves this experiment needs.
    pub tasks: fn(&SpecCtx) -> Vec<PlannedTask>,
    /// Renders executed results into tables.
    pub render: fn(&SpecCtx, &TaskResults) -> Result<Vec<SweepTable>, EngineError>,
}

/// Every experiment, in the canonical `--all` output order (the legacy
/// EXPERIMENTS.md regeneration order, with `edgeworth` appended).
#[must_use]
pub fn registry() -> Vec<ExperimentSpec> {
    vec![
        crate::specs::fig2::spec(),
        crate::specs::fig3::spec(),
        crate::specs::fig4::spec(),
        crate::specs::fig5::spec(),
        crate::specs::fig6::spec(),
        crate::specs::fig7::spec(),
        crate::specs::fig8::spec(),
        crate::specs::fig9a::spec(),
        crate::specs::fig9b::spec(),
        crate::specs::table2::spec(),
        crate::specs::ablations::spec(),
        crate::specs::calibration::spec(),
        crate::specs::welfare::spec(),
        crate::specs::edgeworth::spec(),
        crate::specs::scaling::spec(),
        crate::specs::oligopoly::spec(),
    ]
}

/// Looks a spec up by registry name.
///
/// # Errors
///
/// [`EngineError::UnknownSpec`] when the name is not registered.
pub fn find(name: &str) -> Result<ExperimentSpec, EngineError> {
    registry()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| EngineError::UnknownSpec(name.to_string()))
}
