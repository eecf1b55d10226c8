//! Bitwise golden of the leader layer: the exact f64 bit patterns of
//! two-provider Stackelberg solves, Algorithm 1/2 price traces, the mixed
//! price equilibrium, and one K = 3 leader solve and dynamics run, checked
//! against `tests/golden/leader_reference.json`.
//!
//! Any change to the leader search, the payoff arithmetic or the traced
//! algorithms that moves a single bit fails here with
//! the first differing line. Regenerate deliberately with
//! `MBM_UPDATE_GOLDEN=1 cargo test --test leader_golden` and commit the
//! diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use mbm_core::algorithms::{
    algorithm1_asynchronous_best_response, algorithm2_price_bargaining, AlgorithmConfig, PriceTrace,
};
use mbm_core::market::{PriceVector, ProviderSet};
use mbm_core::params::EdgeOperation as Mode;
use mbm_core::params::{MarketParams, Provider};
use mbm_core::sp::mixed::{mixed_price_equilibrium, MixedPricingConfig};
use mbm_core::sp::MinerPopulation;
use mbm_core::stackelberg::{
    solve_connected, solve_oligopoly, solve_standalone, LeaderSchedule, OligopolySolution,
    StackelbergConfig, StackelbergSolution,
};
use mbm_core::subgame::{MinerEquilibrium, SubgameConfig};
use mbm_core::MiningGameError;
use mbm_game::stackelberg::LeaderParams;

/// Named bit-pattern lines of one golden case.
#[derive(Default)]
struct Case(Vec<String>);

impl Case {
    fn f(&mut self, name: &str, v: f64) {
        self.0.push(format!("{name}={:016x}", v.to_bits()));
    }

    fn fs(&mut self, name: &str, vs: &[f64]) {
        for (i, &v) in vs.iter().enumerate() {
            self.f(&format!("{name}[{i}]"), v);
        }
    }

    fn u(&mut self, name: &str, v: usize) {
        self.0.push(format!("{name}={v}"));
    }

    fn equilibrium(&mut self, eq: &MinerEquilibrium) {
        self.fs("E,C", &[eq.aggregates.edge, eq.aggregates.cloud]);
        for (i, r) in eq.requests.iter().enumerate() {
            self.fs(&format!("r{i}"), &[r.edge, r.cloud]);
        }
        self.fs("utility", &eq.utilities);
        self.u("iterations", eq.iterations);
        self.f("residual", eq.residual);
    }

    fn solution(mut self, sol: Result<StackelbergSolution, MiningGameError>) -> Self {
        match sol {
            Ok(s) => {
                self.fs("prices", &[s.prices.edge, s.prices.cloud]);
                self.fs("profits", &[s.esp_profit, s.csp_profit]);
                self.u("leader_rounds", s.leader_rounds);
                self.f("leader_residual", s.leader_residual);
                self.equilibrium(&s.equilibrium);
            }
            Err(e) => self.0.push(format!("error={e}")),
        }
        self
    }

    fn oligopoly(mut self, sol: Result<OligopolySolution, MiningGameError>) -> Self {
        match sol {
            Ok(s) => {
                self.fs("prices", &s.prices);
                self.fs("demand", &s.demand);
                self.fs("profits", &s.profits);
                self.u("leader_rounds", s.leader_rounds);
                self.f("leader_residual", s.leader_residual);
                self.equilibrium(&s.equilibrium);
            }
            Err(e) => self.0.push(format!("error={e}")),
        }
        self
    }

    fn trace(mut self, trace: Result<PriceTrace, MiningGameError>) -> Self {
        match trace {
            Ok(t) => {
                for (k, r) in t.rounds.iter().enumerate() {
                    self.fs(&format!("round{k}.prices"), &r.prices);
                    self.fs(&format!("round{k}.demand"), &r.demand);
                    self.fs(&format!("round{k}.profits"), &r.profits);
                }
                self.u("converged", usize::from(t.converged));
                self.u("cycle", t.detect_cycle(0.05).unwrap_or(0));
            }
            Err(e) => self.0.push(format!("error={e}")),
        }
        self
    }
}

/// The pure-equilibrium market of the leader tests: `C_e = 7` keeps the
/// CSP's stationary price below the ESP's cost.
fn ne_market() -> MarketParams {
    MarketParams::builder()
        .reward(100.0)
        .fork_rate(0.2)
        .edge_availability(0.8)
        .e_max(5.0)
        .esp(Provider::new(7.0, 15.0).unwrap())
        .csp(Provider::new(1.0, 8.0).unwrap())
        .build()
        .unwrap()
}

/// The Edgeworth-cycle market: `C_e = 2` below the CSP's stationary price.
fn cycle_market() -> MarketParams {
    MarketParams::builder()
        .reward(100.0)
        .fork_rate(0.2)
        .edge_availability(0.8)
        .esp(Provider::new(2.0, 10.0).unwrap())
        .csp(Provider::new(1.0, 8.0).unwrap())
        .build()
        .unwrap()
}

fn population() -> MinerPopulation {
    MinerPopulation::Homogeneous { budget: 200.0, n: 5 }
}

/// Every golden case, in file order.
fn cases() -> Vec<(String, Case)> {
    let p = ne_market();
    let mut out = Vec::new();

    // Two-provider solves: mode × population × schedule, except
    // standalone heterogeneous bargaining (nine GNEP-backed leader rounds,
    // about 9 s in a debug build).
    let homogeneous = vec![200.0; 5];
    let heterogeneous = vec![50.0, 100.0, 200.0];
    // Loose leader settings keep the full-NEP/GNEP searches affordable.
    let loose = StackelbergConfig {
        leader: LeaderParams {
            tol: 5e-3,
            max_rounds: 20,
            grid_points: 9,
            grid_rounds: 3,
            damping: 1.0,
        },
        subgame: SubgameConfig { tol: 1e-7, ..SubgameConfig::default() },
        ..StackelbergConfig::default()
    };
    for (mode, mode_name) in [(Mode::Connected, "connected"), (Mode::Standalone, "standalone")] {
        for (budgets, base, pop_name) in [
            (&homogeneous, StackelbergConfig::default(), "homogeneous"),
            (&heterogeneous, loose, "heterogeneous"),
        ] {
            for (schedule, schedule_name) in [
                (LeaderSchedule::BestResponse, "best_response"),
                (LeaderSchedule::Bargaining, "bargaining"),
            ] {
                if mode == Mode::Standalone
                    && pop_name == "heterogeneous"
                    && schedule == LeaderSchedule::Bargaining
                {
                    continue;
                }
                let cfg = StackelbergConfig { schedule, ..base };
                let sol = match mode {
                    Mode::Connected => solve_connected(&p, budgets, &cfg),
                    Mode::Standalone => solve_standalone(&p, budgets, &cfg),
                };
                // The `/uncached` suffix keeps the golden's keys stable.
                let name = format!("solve/{mode_name}/{pop_name}/{schedule_name}/uncached");
                out.push((name, Case::default().solution(sol)));
            }
        }
    }

    // Algorithm 1 and Algorithm 2 in both regions of the leader game.
    let cycle = cycle_market();
    let cfg = AlgorithmConfig::default();
    let short = AlgorithmConfig { max_rounds: 16, ..cfg };
    let pair = ProviderSet::from_market(&p);
    let cycle_pair = ProviderSet::from_market(&cycle);
    let ne_init = PriceVector::new(&[10.0, 4.0]).unwrap();
    let cycle_init = PriceVector::new(&[6.0, 3.0]).unwrap();
    out.push((
        "algorithm1/pure".into(),
        Case::default().trace(algorithm1_asynchronous_best_response(
            &p,
            &pair,
            population(),
            Mode::Connected,
            &ne_init,
            &cfg,
        )),
    ));
    out.push((
        "algorithm2/pure".into(),
        Case::default().trace(algorithm2_price_bargaining(
            &p,
            &pair,
            population(),
            Mode::Standalone,
            &ne_init,
            &cfg,
        )),
    ));
    out.push((
        "algorithm1/edgeworth".into(),
        Case::default().trace(algorithm1_asynchronous_best_response(
            &cycle,
            &cycle_pair,
            population(),
            Mode::Connected,
            &cycle_init,
            &short,
        )),
    ));
    out.push((
        "algorithm2/edgeworth".into(),
        Case::default().trace(algorithm2_price_bargaining(
            &cycle,
            &cycle_pair,
            population(),
            Mode::Connected,
            &cycle_init,
            &short,
        )),
    ));

    // Mixed pricing on the Edgeworth market.
    let mixed = mixed_price_equilibrium(
        &cycle,
        population(),
        Mode::Connected,
        &MixedPricingConfig { grid_points: 6, iterations: 20_000, ..MixedPricingConfig::default() },
    );
    let mut case = Case::default();
    match mixed {
        Ok(m) => {
            case.fs("edge_grid", &m.edge_grid);
            case.fs("cloud_grid", &m.cloud_grid);
            case.fs("edge_strategy", &m.edge_strategy);
            case.fs("cloud_strategy", &m.cloud_strategy);
            case.fs("mean_prices", &[m.mean_prices.edge, m.mean_prices.cloud]);
            case.fs("exploitability", &[m.exploitability.0, m.exploitability.1]);
            case.u("has_pure_equilibrium", usize::from(m.has_pure_equilibrium));
        }
        Err(e) => case.0.push(format!("error={e}")),
    }
    out.push(("mixed/edgeworth".into(), case));

    // K = 3: one leader solve and one dynamics run.
    let set = ProviderSet::new(vec![p.esp(), p.csp(), Provider::new(1.5, 8.0).unwrap()]).unwrap();
    out.push((
        "k3/solve".into(),
        Case::default().oligopoly(solve_oligopoly(
            &p,
            &set,
            &homogeneous,
            Mode::Connected,
            &StackelbergConfig::default(),
        )),
    ));
    out.push((
        "k3/dynamics".into(),
        Case::default().trace(algorithm1_asynchronous_best_response(
            &p,
            &set,
            population(),
            Mode::Connected,
            &PriceVector::new(&[10.0, 4.0, 4.5]).unwrap(),
            &short,
        )),
    ));
    out
}

fn render(cases: &[(String, Case)]) -> String {
    let mut json = String::from("{\n");
    for (i, (name, case)) in cases.iter().enumerate() {
        let _ = writeln!(json, "  \"{name}\": [");
        for (j, line) in case.0.iter().enumerate() {
            let comma = if j + 1 < case.0.len() { "," } else { "" };
            let _ = writeln!(json, "    \"{line}\"{comma}");
        }
        let comma = if i + 1 < cases.len() { "," } else { "" };
        let _ = writeln!(json, "  ]{comma}");
    }
    json.push_str("}\n");
    json
}

#[test]
fn leader_layer_matches_golden_bits() {
    let got = render(&cases());
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/leader_reference.json");
    if std::env::var_os("MBM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             MBM_UPDATE_GOLDEN=1 cargo test --test leader_golden",
            path.display()
        )
    });
    if got != want {
        let (line, (g, w)) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap_or((got.lines().count().min(want.lines().count()), ("<end>", "<end>")));
        panic!(
            "leader layer drifted from tests/golden/leader_reference.json at line {}:\n  \
             got:  {g}\n  want: {w}",
            line + 1
        );
    }
}
