//! Bitwise golden of the follower solver: the exact f64 bit patterns of
//! every tier chain's answer — plain, with its leading kernels forced to
//! fail, and fully failed under the resilient policy so salvage and the
//! retry backoff produce a degraded answer — plus warm-started batches and
//! the equilibrium store's on-disk bytes, checked against
//! `tests/golden/solver_reference.json`.
//!
//! Fault plans, the memo and the warm slot are process-global, so this file
//! holds one test. Any change to a tier kernel, the chain's escalation
//! order, the recorded overrides, the certificate arithmetic, the salvage
//! path, the memo key or its payload codec that moves a single bit fails
//! here with the first differing line. Regenerate deliberately with
//! `MBM_UPDATE_GOLDEN=1 cargo test --test solver_golden` and commit the
//! diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use mbm_core::params::{MarketParams, Prices};
use mbm_core::solver::memo::{self, MemoConfig};
use mbm_core::solver::{
    ConfigOverride, FollowerSolver, SolvePolicy, SolveWorkspace, Solved, TieredSolver,
};
use mbm_core::subgame::dynamic::{DynamicConfig, Population};
use mbm_core::subgame::SubgameConfig;
use mbm_core::MiningGameError;
use mbm_faults::{sites, FaultKind, FaultPlan, FaultRule};
use mbm_store::StoreOptions;

/// Named lines of one golden case.
#[derive(Default)]
struct Case(Vec<String>);

impl Case {
    fn line(&mut self, name: &str, value: impl std::fmt::Display) {
        self.0.push(format!("{name}={value}"));
    }

    fn f(&mut self, name: &str, v: f64) {
        self.line(name, format_args!("{:016x}", v.to_bits()));
    }

    fn opt_f(&mut self, name: &str, v: Option<f64>) {
        match v {
            Some(v) => self.f(name, v),
            None => self.line(name, "none"),
        }
    }

    fn over(&mut self, name: &str, o: Option<ConfigOverride>) {
        match o {
            Some(o) => {
                self.f(&format!("{name}.requested"), o.requested);
                self.f(&format!("{name}.effective"), o.effective);
            }
            None => self.line(name, "none"),
        }
    }

    /// One solve outcome plus the workspace's per-miner buffers.
    fn solved(&mut self, prefix: &str, result: &Result<Solved, MiningGameError>) {
        let s = match result {
            Ok(s) => s,
            Err(e) => return self.line(&format!("{prefix}error"), e),
        };
        let r = &s.report;
        self.line(&format!("{prefix}status"), format_args!("{:?}", r.status));
        self.line(&format!("{prefix}mode"), format_args!("{:?}", r.mode));
        self.line(&format!("{prefix}symmetric"), r.symmetric);
        self.line(&format!("{prefix}method"), format_args!("{:?}", r.method));
        self.line(&format!("{prefix}retries"), r.retries);
        for (i, hop) in r.fallback_hops.iter().enumerate() {
            self.line(&format!("{prefix}hop{i}"), format_args!("{:?}: {}", hop.method, hop.error));
        }
        self.line(&format!("{prefix}n"), s.n);
        self.line(&format!("{prefix}iterations"), s.iterations);
        self.f(&format!("{prefix}residual"), s.residual);
        self.line(&format!("{prefix}report.iterations"), r.iterations);
        self.f(&format!("{prefix}report.residual"), r.residual);
        self.opt_f(&format!("{prefix}certificate"), r.certificate);
        self.over(&format!("{prefix}override.tol"), r.overrides.tol);
        self.over(&format!("{prefix}override.max_iter"), r.overrides.max_iter);
        self.over(&format!("{prefix}override.damping"), r.overrides.damping);
        self.f(&format!("{prefix}E"), s.aggregates.edge);
        self.f(&format!("{prefix}C"), s.aggregates.cloud);
        match s.per_miner {
            Some(x) => {
                self.f(&format!("{prefix}per_miner.edge"), x.edge);
                self.f(&format!("{prefix}per_miner.cloud"), x.cloud);
            }
            None => self.line(&format!("{prefix}per_miner"), "none"),
        }
        self.line(&format!("{prefix}regime"), format_args!("{:?}", s.regime));
    }

    fn workspace(&mut self, ws: &SolveWorkspace) {
        for (i, r) in ws.requests.iter().enumerate() {
            self.f(&format!("ws.request{i}.edge"), r.edge);
            self.f(&format!("ws.request{i}.cloud"), r.cloud);
        }
        for (i, &u) in ws.utilities.iter().enumerate() {
            self.f(&format!("ws.utility{i}"), u);
        }
    }
}

/// The follower chains, one per `TieredSolver` constructor.
#[derive(Clone, Copy)]
enum Chain {
    Connected,
    Standalone,
    AggregateConnected,
    AggregateStandalone,
    SymmetricConnected,
    SymmetricStandalone,
    Homogeneous,
    Dynamic,
    Continuous,
}

const CHAINS: [(Chain, &str); 9] = [
    (Chain::Connected, "connected"),
    (Chain::Standalone, "standalone"),
    (Chain::AggregateConnected, "aggregate_connected"),
    (Chain::AggregateStandalone, "aggregate_standalone"),
    (Chain::SymmetricConnected, "symmetric_connected"),
    (Chain::SymmetricStandalone, "symmetric_standalone"),
    (Chain::Homogeneous, "homogeneous"),
    (Chain::Dynamic, "dynamic"),
    (Chain::Continuous, "continuous"),
];

/// Every kernel site a chain's tiers probe.
const ALL_SITES: [&str; 4] =
    [sites::BR_DYNAMICS, sites::VI_EXTRAGRADIENT, sites::SYMMETRIC_FP, sites::AGGREGATE_SWEEP];

impl Chain {
    /// The kernel sites of the chain's tiers, in tier order (deduplicated).
    fn tier_sites(self) -> &'static [&'static str] {
        match self {
            Chain::Connected => &[sites::BR_DYNAMICS, sites::VI_EXTRAGRADIENT],
            Chain::Standalone => &[sites::VI_EXTRAGRADIENT, sites::BR_DYNAMICS],
            Chain::AggregateConnected => {
                &[sites::AGGREGATE_SWEEP, sites::BR_DYNAMICS, sites::VI_EXTRAGRADIENT]
            }
            Chain::AggregateStandalone => {
                &[sites::AGGREGATE_SWEEP, sites::VI_EXTRAGRADIENT, sites::BR_DYNAMICS]
            }
            Chain::SymmetricConnected => {
                &[sites::SYMMETRIC_FP, sites::BR_DYNAMICS, sites::VI_EXTRAGRADIENT]
            }
            Chain::SymmetricStandalone => {
                &[sites::SYMMETRIC_FP, sites::VI_EXTRAGRADIENT, sites::BR_DYNAMICS]
            }
            Chain::Homogeneous => &[],
            Chain::Dynamic | Chain::Continuous => &[sites::SYMMETRIC_FP],
        }
    }

    /// Number of tiers in the chain.
    fn tier_count(self) -> usize {
        match self {
            Chain::Homogeneous => 1,
            Chain::Connected | Chain::Standalone | Chain::Dynamic | Chain::Continuous => 2,
            _ => 3,
        }
    }

    fn is_memoized(self) -> bool {
        !matches!(self, Chain::Homogeneous | Chain::Dynamic | Chain::Continuous)
    }
}

/// Inputs shared by every case.
struct Inputs {
    params: MarketParams,
    budgets: Vec<f64>,
    budget: f64,
    n: usize,
    population: Population,
    dynamic: DynamicConfig,
}

impl Inputs {
    fn new() -> Self {
        // E_max = 2 binds in standalone mode, so the shared capacity shapes
        // every standalone answer.
        let params = MarketParams::builder()
            .reward(100.0)
            .fork_rate(0.2)
            .edge_availability(0.8)
            .e_max(2.0)
            .build()
            .expect("market builds");
        Inputs {
            params,
            budgets: vec![60.0, 120.0, 200.0, 90.0],
            budget: 200.0,
            n: 5,
            population: Population::gaussian(5.0, 1.5).expect("population builds"),
            dynamic: DynamicConfig::default(),
        }
    }

    fn solver<'a>(
        &'a self,
        chain: Chain,
        prices: &'a Prices,
        cfg: &SubgameConfig,
        dynamic: &'a DynamicConfig,
    ) -> TieredSolver<'a> {
        let p = &self.params;
        match chain {
            Chain::Connected => TieredSolver::connected(p, prices, &self.budgets, cfg),
            Chain::Standalone => TieredSolver::standalone(p, prices, &self.budgets, cfg),
            Chain::AggregateConnected => {
                TieredSolver::aggregate_connected(p, prices, &self.budgets, cfg)
            }
            Chain::AggregateStandalone => {
                TieredSolver::aggregate_standalone(p, prices, &self.budgets, cfg)
            }
            Chain::SymmetricConnected => {
                TieredSolver::symmetric_connected(p, prices, self.budget, self.n, cfg)
            }
            Chain::SymmetricStandalone => {
                TieredSolver::symmetric_standalone(p, prices, self.budget, self.n, cfg)
            }
            Chain::Homogeneous => TieredSolver::homogeneous(p, prices, self.budget, self.n),
            Chain::Dynamic => {
                TieredSolver::dynamic(p, prices, self.budget, &self.population, dynamic)
            }
            Chain::Continuous => {
                TieredSolver::continuous(p, prices, self.budget, 5.0, 1.5, dynamic)
            }
        }
    }
}

/// A plan failing every probe of each listed site.
fn failing(sites: &[&str]) -> FaultPlan {
    let spec: Vec<String> = sites.iter().map(|s| format!("{s}:misconverge@1")).collect();
    FaultPlan::parse(&spec.join(";")).expect("fault plan parses")
}

/// A best-effort plan whose answer is the salvage of tier `j`: the kernels
/// of tiers `0..=j` fail, and so does the tier boundary of every later
/// tier. The boundary rule fires at rate 2; the plan takes the first seed
/// whose boundary schedule passes tiers `0..=j` and stops the rest.
fn salvage_plan(chain: Chain, j: usize) -> FaultPlan {
    let tiers = chain.tier_sites();
    let mut plan = failing(&tiers[..tiers.len().min(j + 1)]);
    plan.rules.push(FaultRule {
        site: sites::SOLVER_TIER.into(),
        kind: FaultKind::Misconverge,
        rate: 2,
    });
    for seed in 0.. {
        plan.seed = seed;
        let _faults = mbm_faults::install(plan.clone());
        let _scope = mbm_faults::scope(0);
        if (0..chain.tier_count())
            .all(|t| mbm_faults::probe(sites::SOLVER_TIER).is_some() == (t > j))
        {
            return plan.clone();
        }
    }
    unreachable!("some seed matches a three-probe schedule")
}

fn solve_one(
    inputs: &Inputs,
    chain: Chain,
    prices: &Prices,
    cfg: &SubgameConfig,
    policy: SolvePolicy,
    plan: Option<FaultPlan>,
) -> Case {
    let dynamic = DynamicConfig { subgame: *cfg, ..inputs.dynamic };
    let _faults = plan.map(mbm_faults::install);
    let _scope = mbm_faults::scope(0);
    let mut ws = SolveWorkspace::with_policy(policy);
    let result = inputs.solver(chain, prices, cfg, &dynamic).solve(&mut ws);
    let mut case = Case::default();
    case.solved("", &result);
    case.workspace(&ws);
    case
}

fn solve_batch(inputs: &Inputs, chain: Chain, grid: &[Prices], plan: Option<FaultPlan>) -> Case {
    let cfg = SubgameConfig::default();
    let _faults = plan.map(mbm_faults::install);
    let _scope = mbm_faults::scope(0);
    let mut ws = SolveWorkspace::new();
    let results = inputs.solver(chain, &grid[0], &cfg, &inputs.dynamic).solve_batch(grid, &mut ws);
    let mut case = Case::default();
    for (i, result) in results.iter().enumerate() {
        case.solved(&format!("point{i}."), result);
    }
    case.workspace(&ws);
    case.line("warm.hits", ws.warm().hits());
    case.line("warm.resets", ws.warm().resets());
    case
}

/// Every golden case, in file order.
fn cases() -> Vec<(String, Case)> {
    let inputs = Inputs::new();
    let prices = Prices::new(4.0, 2.0).expect("prices");
    let default_cfg = SubgameConfig::default();
    // A tolerance below the extragradient floor and an iteration cap above
    // it: escalation tiers record the tolerance rewrite but not the cap.
    let tight_cfg = SubgameConfig { tol: 1e-12, max_iter: 30_000, ..default_cfg };
    let strict = SolvePolicy::default();
    let mut out = Vec::new();

    for (chain, name) in CHAINS {
        out.push((
            format!("{name}/plain"),
            solve_one(&inputs, chain, &prices, &default_cfg, strict, None),
        ));
        let tiers = chain.tier_sites();
        for depth in 1..=tiers.len().min(2) {
            let plan = failing(&tiers[..depth]);
            out.push((
                format!("{name}/fail{depth}"),
                solve_one(&inputs, chain, &prices, &default_cfg, strict, Some(plan.clone())),
            ));
            out.push((
                format!("{name}/fail{depth}/tight"),
                solve_one(&inputs, chain, &prices, &tight_cfg, strict, Some(plan)),
            ));
        }
        out.push((
            format!("{name}/degraded"),
            solve_one(
                &inputs,
                chain,
                &prices,
                &default_cfg,
                SolvePolicy::resilient(None),
                Some(failing(&ALL_SITES)),
            ),
        ));
        // One attempt, stopped early: each non-final tier's salvage becomes
        // the answer.
        let one_attempt = SolvePolicy { max_attempts: 1, ..SolvePolicy::resilient(None) };
        for j in 0..chain.tier_count() - 1 {
            out.push((
                format!("{name}/salvage{j}"),
                solve_one(
                    &inputs,
                    chain,
                    &prices,
                    &default_cfg,
                    one_attempt,
                    Some(salvage_plan(chain, j)),
                ),
            ));
        }
    }

    // Warm-started batches: heterogeneous chains seed from the predecessor;
    // symmetric chains with a failing fixed point skip straight to their
    // escalation tier after the first hop.
    let grid: Vec<Prices> = [(4.0, 2.0), (4.5, 2.2), (5.0, 2.5)]
        .iter()
        .map(|&(e, c)| Prices::new(e, c).expect("grid prices"))
        .collect();
    for (chain, name) in &CHAINS[..4] {
        out.push((format!("{name}/batch"), solve_batch(&inputs, *chain, &grid, None)));
    }
    for (chain, name) in &CHAINS[4..6] {
        let plan = failing(&[sites::SYMMETRIC_FP]);
        out.push((format!("{name}/batch/fail1"), solve_batch(&inputs, *chain, &grid, Some(plan))));
    }

    out.push(("store".into(), store_case(&inputs, &prices)));
    out
}

/// One cold solve per memo mode into a fresh store: pins the keys, the
/// payload codec and the append-time certificate through the file's bytes,
/// then checks every solve replays as a hit from the reopened store.
fn store_case(inputs: &Inputs, prices: &Prices) -> Case {
    let cfg = SubgameConfig::default();
    let path = std::env::temp_dir().join(format!("mbm_solver_golden_{}.mbms", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let memoized: Vec<(Chain, &str)> =
        CHAINS.into_iter().filter(|(c, _)| c.is_memoized()).collect();
    let mut case = Case::default();

    let mut cold = Vec::new();
    {
        let (_guard, _) =
            memo::open_and_install(&path, MemoConfig::default(), StoreOptions::default())
                .expect("store opens");
        memo::reset_stats();
        for &(chain, _) in &memoized {
            let mut ws = SolveWorkspace::new();
            let result = inputs.solver(chain, prices, &cfg, &inputs.dynamic).solve(&mut ws);
            cold.push((result.expect("cold solve converges"), ws.requests, ws.utilities));
        }
        let stats = memo::stats();
        case.line("cold.appends", stats.appends);
        case.line("cold.misses", stats.misses);
    }
    let bytes = std::fs::read(&path).expect("store file reads");
    case.line("file.len", bytes.len());
    case.line("file.fnv1a", format_args!("{:016x}", mbm_store::fnv1a64(&bytes)));

    {
        let (_guard, _) =
            memo::open_and_install(&path, MemoConfig::default(), StoreOptions::default())
                .expect("store reopens");
        memo::reset_stats();
        for (&(chain, name), (solved, requests, utilities)) in memoized.iter().zip(&cold) {
            let mut ws = SolveWorkspace::new();
            let hit = inputs.solver(chain, prices, &cfg, &inputs.dynamic).solve(&mut ws);
            assert_eq!(hit.as_ref().ok(), Some(solved), "{name}: replay differs from cold");
            assert_eq!(&ws.requests, requests, "{name}: replayed requests differ");
            assert_eq!(&ws.utilities, utilities, "{name}: replayed utilities differ");
        }
        let stats = memo::stats();
        assert_eq!(stats.hits, memoized.len() as u64, "every solve replays as a hit: {stats:?}");
        assert_eq!(stats.appends + stats.misses + stats.rejected, 0, "{stats:?}");
        case.line("replay.hits", stats.hits);
    }
    let _ = std::fs::remove_file(&path);
    case
}

fn render(cases: &[(String, Case)]) -> String {
    let mut json = String::from("{\n");
    for (i, (name, case)) in cases.iter().enumerate() {
        let _ = writeln!(json, "  \"{name}\": [");
        for (j, line) in case.0.iter().enumerate() {
            let comma = if j + 1 < case.0.len() { "," } else { "" };
            let line = line.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = writeln!(json, "    \"{line}\"{comma}");
        }
        let comma = if i + 1 < cases.len() { "," } else { "" };
        let _ = writeln!(json, "  ]{comma}");
    }
    json.push_str("}\n");
    json
}

#[test]
fn follower_solver_matches_golden_bits() {
    let got = render(&cases());
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/solver_reference.json");
    if std::env::var_os("MBM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             MBM_UPDATE_GOLDEN=1 cargo test --test solver_golden",
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
            "follower solver drifted from tests/golden/solver_reference.json at line {}:\n  \
             got:  {g}\n  want: {w}",
            line + 1
        );
    }
}
