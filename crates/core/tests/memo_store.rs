//! End-to-end tests of the disk-backed equilibrium memo
//! (`mbm_core::solver::memo` over `mbm_store`): hits replay cold solves
//! bitwise (workspace effects included), records survive reopen from disk,
//! injected read corruption and forged profiles are contained, and
//! warm-continuation batches never append.
//!
//! Memo installation is process-global, so these tests serialize on a local
//! mutex (same pattern as the fault-injection suite).

use std::path::PathBuf;
use std::sync::Mutex;

use mbm_core::params::{MarketParams, Prices};
use mbm_core::solver::memo::{self, GoldenCheck, MemoConfig};
use mbm_core::solver::{FollowerSolver, SolveWorkspace, TieredSolver};
use mbm_core::subgame::SubgameConfig;
use mbm_store::{Store, StoreOptions};

static LOCK: Mutex<()> = Mutex::new(());

fn market() -> MarketParams {
    MarketParams::builder()
        .reward(100.0)
        .fork_rate(0.2)
        .edge_availability(0.8)
        .e_max(50.0)
        .build()
        .unwrap()
}

fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("mbm_memo_it_{}_{name}.mbms", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn heterogeneous_hit_replays_cold_solve_bitwise_across_reopen() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let params = market();
    let prices = Prices::new(4.0, 2.0).unwrap();
    let budgets = [80.0, 120.0, 160.0, 200.0];
    let cfg = SubgameConfig::default();
    let path = scratch("het");

    let (guard, summary) =
        memo::open_and_install(&path, MemoConfig::default(), StoreOptions::default()).unwrap();
    assert_eq!(summary.records, 0);
    memo::reset_stats();

    let solver = TieredSolver::standalone(&params, &prices, &budgets, &cfg);
    let mut cold_ws = SolveWorkspace::new();
    let cold = solver.solve(&mut cold_ws).expect("cold solve converges");
    let s = memo::stats();
    assert_eq!((s.hits, s.misses, s.appends), (0, 1, 1));

    // Same process, same store: hit, bitwise identical, workspace included.
    let mut hit_ws = SolveWorkspace::new();
    let hit = solver.solve(&mut hit_ws).expect("hit solve");
    assert_eq!(memo::stats().hits, 1);
    assert_eq!(hit, cold);
    assert_eq!(hit_ws.requests, cold_ws.requests);
    assert_eq!(hit_ws.utilities, cold_ws.utilities);

    // Reopen from disk in a fresh installation: still a bitwise hit.
    drop(guard);
    let (guard, summary) =
        memo::open_and_install(&path, MemoConfig::default(), StoreOptions::default()).unwrap();
    assert_eq!(summary.records, 1);
    assert!(summary.diagnosis.is_none());
    memo::reset_stats();
    let mut reopen_ws = SolveWorkspace::new();
    let reopened = solver.solve(&mut reopen_ws).expect("reopened hit");
    assert_eq!(memo::stats(), memo::MemoStats { hits: 1, ..Default::default() });
    assert_eq!(reopened, cold);
    assert_eq!(reopen_ws.requests, cold_ws.requests);
    assert_eq!(reopen_ws.utilities, cold_ws.utilities);
    drop(guard);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn symmetric_hit_matches_cold_fixed_point() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let params = market();
    let prices = Prices::new(5.0, 2.5).unwrap();
    let cfg = SubgameConfig::default();
    let path = scratch("sym");
    let (guard, _) =
        memo::open_and_install(&path, MemoConfig::default(), StoreOptions::default()).unwrap();
    memo::reset_stats();

    let solver = TieredSolver::symmetric_connected(&params, &prices, 150.0, 25, &cfg);
    let mut ws = SolveWorkspace::new();
    let cold = solver.solve(&mut ws).expect("cold symmetric solve");
    let mut ws2 = SolveWorkspace::new();
    let hit = solver.solve(&mut ws2).expect("symmetric hit");
    let s = memo::stats();
    assert_eq!((s.hits, s.misses), (1, 1));
    assert_eq!(hit, cold);
    assert!(ws2.requests.is_empty() && ws2.utilities.is_empty());
    drop(guard);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn injected_read_corruption_is_rejected_and_resolved_bitwise() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let params = market();
    let prices = Prices::new(4.0, 2.0).unwrap();
    let budgets = [90.0, 110.0];
    let cfg = SubgameConfig::default();
    let path = scratch("corrupt");
    let (guard, _) =
        memo::open_and_install(&path, MemoConfig::default(), StoreOptions::default()).unwrap();
    memo::reset_stats();

    let solver = TieredSolver::connected(&params, &prices, &budgets, &cfg);
    let mut ws = SolveWorkspace::new();
    let cold = solver.solve(&mut ws).expect("cold solve");

    // Every read of the stored payload comes back with a flipped byte: the
    // memo must reject (decode or golden check) and fall through to a
    // fresh solve with the exact cold answer.
    let plan = mbm_faults::FaultPlan::parse("seed=11;store.read:corrupt@1").unwrap();
    let fault_guard = mbm_faults::install(plan);
    memo::reset_stats();
    let mut ws2 = SolveWorkspace::new();
    let corrupted_read = solver.solve(&mut ws2).expect("re-solve under corruption");
    drop(fault_guard);
    let s = memo::stats();
    assert_eq!(s.hits, 0, "corrupted payload must not be served");
    assert_eq!(s.rejected, 1);
    assert_eq!(corrupted_read, cold);
    assert_eq!(ws2.requests, ws.requests);
    assert_eq!(ws2.utilities, ws.utilities);
    drop(guard);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tampered_profile_is_rejected_by_golden_check_and_resolved() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let params = MarketParams::builder().build().expect("defaults build");
    let prices = Prices::new(4.0, 2.0).unwrap();
    let budgets = [100.0, 150.0];
    let cfg = SubgameConfig::default();
    let path = scratch("golden_reject");
    let (guard, _) = memo::open_and_install(&path, MemoConfig::default(), StoreOptions::default())
        .expect("store opens");
    memo::reset_stats();

    let solver = TieredSolver::connected(&params, &prices, &budgets, &cfg);
    let mut ws = SolveWorkspace::new();
    let cold = solver.solve(&mut ws).expect("cold solve converges");
    assert_eq!(memo::stats().appends, 1, "cold success is persisted");
    drop(guard);

    // Forge a well-formed, feasible, checksummed record under the same key
    // whose profile is NOT the equilibrium: the honest payload with the
    // first miner's edge request halved (the codec writes f64 bits
    // little-endian). Last-wins replaces the honest record in the index.
    let (mut store, _) = Store::open(&path, StoreOptions::default()).expect("store reopens");
    let (key, mut payload) = {
        let (key, payload) = store.iter().next().expect("the cold solve's record");
        (key.to_vec(), payload.to_vec())
    };
    let honest = ws.requests[0].edge.to_bits().to_le_bytes();
    let at: Vec<usize> =
        payload.windows(8).enumerate().filter(|(_, w)| *w == honest).map(|(i, _)| i).collect();
    assert_eq!(at.len(), 1, "the first miner's edge request is stored exactly once");
    payload[at[0]..at[0] + 8].copy_from_slice(&(ws.requests[0].edge * 0.5).to_bits().to_le_bytes());
    store.append(&key, &payload).expect("forged append succeeds");
    let guard = memo::install(store, MemoConfig::default());

    memo::reset_stats();
    let mut ws2 = SolveWorkspace::new();
    let again = solver.solve(&mut ws2).expect("re-solve converges");
    let s = memo::stats();
    assert_eq!(s.rejected, 1, "golden check rejects the forged profile");
    assert_eq!(s.hits, 0);
    assert_eq!(again, cold, "rejection falls through to a bitwise-identical solve");
    assert_eq!(ws2.requests, ws.requests);
    assert_eq!(ws2.utilities, ws.utilities);
    drop(guard);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn injected_read_io_error_counts_as_miss_and_resolves() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let params = market();
    let prices = Prices::new(4.0, 2.0).unwrap();
    let budgets = [90.0, 110.0];
    let cfg = SubgameConfig::default();
    let path = scratch("ioerr");
    let (guard, _) =
        memo::open_and_install(&path, MemoConfig::default(), StoreOptions::default()).unwrap();

    let solver = TieredSolver::connected(&params, &prices, &budgets, &cfg);
    let mut ws = SolveWorkspace::new();
    let cold = solver.solve(&mut ws).expect("cold solve");

    let plan = mbm_faults::FaultPlan::parse("seed=3;store.read:io_error@1").unwrap();
    let fault_guard = mbm_faults::install(plan);
    memo::reset_stats();
    let mut ws2 = SolveWorkspace::new();
    let resolved = solver.solve(&mut ws2).expect("re-solve under read I/O faults");
    drop(fault_guard);
    let s = memo::stats();
    assert_eq!(s.hits, 0);
    assert!(s.misses >= 1);
    assert_eq!(resolved, cold);
    drop(guard);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn warm_continuation_batches_consult_but_never_append() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let params = market();
    let budgets = [80.0, 120.0, 160.0];
    let cfg = SubgameConfig::default();
    let path = scratch("warm");
    let (guard, _) =
        memo::open_and_install(&path, MemoConfig::default(), StoreOptions::default()).unwrap();
    memo::reset_stats();

    let grid: Vec<Prices> =
        (1..=4).map(|i| Prices::new(3.0 + 0.5 * i as f64, 2.0).unwrap()).collect();
    let anchor = grid[0];
    let solver = TieredSolver::standalone(&params, &anchor, &budgets, &cfg);
    let mut ws = SolveWorkspace::new();
    let batch = solver.solve_batch(&grid, &mut ws);
    assert!(batch.iter().all(Result::is_ok));
    let s = memo::stats();
    assert_eq!(s.appends, 0, "warm-started solves must never be persisted");
    assert_eq!(s.hits, 0);
    assert_eq!(s.misses, grid.len() as u64);

    // A cold solve afterwards does append, and its stats say so.
    let mut cold_ws = SolveWorkspace::new();
    solver.solve(&mut cold_ws).expect("cold solve appends");
    assert_eq!(memo::stats().appends, 1);
    drop(guard);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn golden_check_off_trusts_checksummed_records() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let params = market();
    let prices = Prices::new(4.0, 2.0).unwrap();
    let budgets = [100.0, 140.0];
    let cfg = SubgameConfig::default();
    let path = scratch("off");
    let memo_cfg = MemoConfig { golden: GoldenCheck::Off, ..MemoConfig::default() };
    let (guard, _) = memo::open_and_install(&path, memo_cfg, StoreOptions::default()).unwrap();
    memo::reset_stats();

    let solver = TieredSolver::connected(&params, &prices, &budgets, &cfg);
    let mut ws = SolveWorkspace::new();
    let cold = solver.solve(&mut ws).expect("cold solve");
    let mut ws2 = SolveWorkspace::new();
    let hit = solver.solve(&mut ws2).expect("hit without re-certification");
    assert_eq!(memo::stats().hits, 1);
    assert_eq!(hit, cold);
    drop(guard);
    let _ = std::fs::remove_file(&path);
}
