//! EXP-ABL — design-choice ablations called out in DESIGN.md.
//!
//! 1. Damping of best-response dynamics: sweeps per damping level.
//! 2. Variational equilibrium vs naive clip-to-capacity in standalone mode.
//! 3. Price-cap sensitivity of the leader equilibrium (Theorem 4's `p̄`).
//! 4. Mixing weight ω of the dynamic-population utility (the paper fixes ½).
//! 5. Integer discretization vs the continuous Gaussian expectation.

use mbm_core::params::{MarketParams, Prices, Provider};
use mbm_core::request::{Aggregates, Request};
use mbm_core::scenario::EdgeOperation;
use mbm_core::stackelberg::StackelbergConfig;
use mbm_core::subgame::dynamic::DynamicConfig;
use mbm_core::subgame::{equilibrium_certificate, SubgameConfig};
use mbm_game::gnep::GnepWorkspace;
use mbm_game::profile::Profile;

use crate::error::EngineError;
use crate::executor::TaskResults;
use crate::market::{baseline_market, leader_ne_market, BUDGET, N_MINERS};
use crate::planner::PlannedTask;
use crate::spec::{ExperimentSpec, SpecCtx};
use crate::table::SweepTable;
use crate::task::{PopSpec, Task};

const DAMPINGS: [f64; 5] = [0.2, 0.35, 0.5, 0.75, 1.0];
const CAPS: [f64; 4] = [10.0, 12.0, 15.0, 20.0];
const MIXINGS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
const MUS: [f64; 3] = [6.0, 10.0, 16.0];

/// The ablations spec.
#[must_use]
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "ablations",
        summary: "design-choice ablations ABL-1..ABL-5",
        tasks,
        render,
    }
}

/// ABL-1: sweeps-to-convergence of the connected NEP vs damping.
fn damping_task(damping: f64) -> Task {
    Task::BrDynamics {
        params: baseline_market(),
        prices: Prices::new(4.0, 2.0).expect("valid prices"),
        budgets: vec![BUDGET; N_MINERS],
        damping,
        tol: 1e-9,
        max_sweeps: 5000,
    }
}

/// ABL-2: the variational equilibrium on the capacity-constrained market.
fn ve_task() -> Task {
    Task::Nep {
        op: EdgeOperation::Standalone,
        params: baseline_market().with_e_max(2.0).expect("valid capacity"),
        prices: Prices::new(4.0, 2.0).expect("valid prices"),
        budgets: vec![BUDGET; N_MINERS],
        cfg: SubgameConfig::default(),
    }
}

/// ABL-2's naive alternative: an `h = 1`, effectively uncapacitated NEP
/// whose edge coordinates get scaled into capacity at render time.
fn unconstrained_task() -> Task {
    let h1 = baseline_market().with_e_max(2.0).expect("valid capacity");
    let params = MarketParams::builder()
        .reward(h1.reward())
        .fork_rate(h1.fork_rate())
        .edge_availability(1.0)
        .esp(h1.esp())
        .csp(h1.csp())
        .e_max(1e9)
        .build()
        .expect("valid market");
    Task::Nep {
        op: EdgeOperation::Connected,
        params,
        prices: Prices::new(4.0, 2.0).expect("valid prices"),
        budgets: vec![BUDGET; N_MINERS],
        cfg: SubgameConfig::default(),
    }
}

/// ABL-3: leader equilibrium vs the ESP's price cap.
fn cap_task(cap: f64) -> Task {
    Task::Leader {
        op: EdgeOperation::Connected,
        params: leader_ne_market().with_esp(Provider::new(7.0, cap).expect("valid provider")),
        budgets: vec![BUDGET; N_MINERS],
        cfg: StackelbergConfig::default(),
    }
}

/// ABL-4: the ω mixing weight of the dynamic-population utility.
fn mixing_task(mixing: f64) -> Task {
    Task::SymDynamic {
        params: baseline_market(),
        prices: Prices::new(4.0, 2.0).expect("valid prices"),
        budget: 500.0,
        pop: PopSpec::Gaussian { mean: 10.0, sd: 2.0 },
        cfg: DynamicConfig { mixing, ..DynamicConfig::default() },
    }
}

/// ABL-5: discretized vs continuous population.
fn discrete_task(mu: f64) -> Task {
    Task::SymDynamic {
        params: baseline_market(),
        prices: Prices::new(4.0, 2.0).expect("valid prices"),
        budget: 500.0,
        pop: PopSpec::Gaussian { mean: mu, sd: 2.0 },
        cfg: DynamicConfig::default(),
    }
}

fn continuous_task(mu: f64) -> Task {
    Task::SymContinuous {
        params: baseline_market(),
        prices: Prices::new(4.0, 2.0).expect("valid prices"),
        budget: 500.0,
        mu,
        sd: 2.0,
        cfg: DynamicConfig::default(),
    }
}

fn tasks(_ctx: &SpecCtx) -> Vec<PlannedTask> {
    let mut out: Vec<PlannedTask> =
        DAMPINGS.iter().map(|&d| PlannedTask::tolerant(damping_task(d))).collect();
    out.push(PlannedTask::required(ve_task()));
    out.push(PlannedTask::required(unconstrained_task()));
    out.extend(CAPS.iter().map(|&c| PlannedTask::tolerant(cap_task(c))));
    out.extend(MIXINGS.iter().map(|&m| PlannedTask::tolerant(mixing_task(m))));
    for mu in MUS {
        out.push(PlannedTask::tolerant(discrete_task(mu)));
        out.push(PlannedTask::tolerant(continuous_task(mu)));
        out.push(PlannedTask::tolerant(continuous_task(mu + 0.5)));
    }
    out
}

fn render(_ctx: &SpecCtx, results: &TaskResults) -> Result<Vec<SweepTable>, EngineError> {
    let mut rows = Vec::new();
    for damping in DAMPINGS {
        match results.br_opt(&damping_task(damping))? {
            Some((sweeps, residual)) => rows.push(vec![damping, sweeps as f64, residual]),
            None => rows.push(vec![damping, f64::NAN, f64::NAN]),
        }
    }
    let abl1 = SweepTable::new(
        "ABL-1: best-response dynamics sweeps vs damping (connected NEP, n = 5)",
        &["damping", "sweeps", "final_residual"],
        rows,
    );

    let params = baseline_market().with_e_max(2.0).expect("valid capacity");
    let prices = Prices::new(4.0, 2.0).expect("valid prices");
    let budgets = vec![BUDGET; N_MINERS];
    // The standalone GNEP's equilibrium certificate of a request profile.
    let vi_residual = |requests: &[Request]| {
        let blocks: Vec<Vec<f64>> = requests.iter().map(|r| vec![r.edge, r.cloud]).collect();
        Profile::from_blocks(&blocks)
            .map_err(Into::into)
            .and_then(|profile| {
                let mode = EdgeOperation::Standalone;
                let mut ws = GnepWorkspace::new();
                equilibrium_certificate(mode, &params, &prices, &budgets, &profile, &mut ws)
            })
            .unwrap_or(f64::NAN)
    };
    let ve = results.market(&ve_task())?;
    let ve_res = vi_residual(&ve.requests);
    let unconstrained = results.market(&unconstrained_task())?;
    let scale = (params.e_max() / unconstrained.report.edge_units).min(1.0);
    let clipped: Vec<Request> = unconstrained
        .requests
        .iter()
        .map(|r| Request { edge: r.edge * scale, cloud: r.cloud })
        .collect();
    let clip_res = vi_residual(&clipped);
    let clip_e = Aggregates::of_iter(&clipped).edge;
    let abl2 = SweepTable::new(
        "ABL-2: variational equilibrium vs naive clip-to-capacity (standalone, E_max = 2)",
        &["method", "E_total", "vi_residual"],
        vec![vec![0.0, ve.report.edge_units, ve_res], vec![1.0, clip_e, clip_res]],
    )
    .with_note("# method 0 = variational equilibrium, 1 = naive clip");

    let mut rows = Vec::new();
    for cap in CAPS {
        match results.market_opt(&cap_task(cap))? {
            Some(s) => rows.push(vec![
                cap,
                s.prices.edge,
                s.prices.cloud,
                s.report.esp_profit,
                s.report.csp_profit,
            ]),
            None => rows.push(vec![cap, f64::NAN, f64::NAN, f64::NAN, f64::NAN]),
        }
    }
    let abl3 = SweepTable::new(
        "ABL-3: leader equilibrium vs ESP price cap (C_e = 7): the cap is the ESP's dominant strategy",
        &["cap", "P_e_star", "P_c_star", "V_e", "V_c"],
        rows,
    );

    let mut rows = Vec::new();
    for mixing in MIXINGS {
        match results.market_opt(&mixing_task(mixing))? {
            Some(o) => rows.push(vec![mixing, o.requests[0].edge, o.requests[0].cloud]),
            None => rows.push(vec![mixing, f64::NAN, f64::NAN]),
        }
    }
    let abl4 = SweepTable::new(
        "ABL-4: dynamic-population equilibrium vs mixing weight omega (paper fixes 0.5)",
        &["omega", "e_star", "c_star"],
        rows,
    );

    let mut rows = Vec::new();
    for mu in MUS {
        let discrete = results.market_opt(&discrete_task(mu))?;
        let continuous = results.sym_opt(&continuous_task(mu))?;
        let shifted = results.sym_opt(&continuous_task(mu + 0.5))?;
        rows.push(vec![
            mu,
            discrete.map_or(f64::NAN, |o| o.requests[0].edge),
            continuous.map_or(f64::NAN, |r| r.edge),
            shifted.map_or(f64::NAN, |r| r.edge),
        ]);
    }
    let abl5 = SweepTable::new(
        "ABL-5: discretized vs continuous population (sigma = 2): the paper's P(k) = Phi(k) - Phi(k-1) equals a continuous model shifted by +1/2",
        &["mu", "e_discretized", "e_continuous_at_mu", "e_continuous_at_mu_plus_half"],
        rows,
    );

    Ok(vec![abl1, abl2, abl3, abl4, abl5])
}
