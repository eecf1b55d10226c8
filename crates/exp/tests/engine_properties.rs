//! Engine-level properties: the planner's dedup must never change *what* a
//! batch computes (only how much work it does), and rendered/serialized
//! tables must be invariant to the executor's thread count.
//!
//! Both properties are what makes the batched `experiments --all` runner
//! trustworthy: specs share solves through the plan, and the canonical
//! serialization is a pure function of the declared sweep.

use proptest::prelude::*;

use mbm_core::params::Prices;
use mbm_core::scenario::EdgeOperation;
use mbm_core::subgame::SubgameConfig;
use mbm_exp::executor::{execute, TaskResults};
use mbm_exp::market::{baseline_market, BUDGET, N_MINERS};
use mbm_exp::planner::{plan, PlannedTask};
use mbm_exp::table::SweepTable;
use mbm_exp::{run_tasks, Task};
use mbm_par::Pool;

/// A symmetric-subgame solve on the shared dyadic price lattice
/// `P_c = 1.5 + 0.25·k`: exact binary fractions, so overlapping windows of
/// different specs produce bit-identical tasks (and therefore dedup hits).
fn sym(k: u64) -> Task {
    Task::SymSubgame {
        op: EdgeOperation::Connected,
        params: baseline_market(),
        prices: Prices::new(4.0, 1.5 + 0.25 * k as f64).unwrap(),
        budget: BUDGET,
        n: N_MINERS,
        cfg: SubgameConfig::default(),
    }
}

/// A closed-forms task every generated spec requests — a guaranteed
/// cross-spec dedup hit.
fn closed() -> Task {
    Task::ClosedForms {
        params: baseline_market(),
        prices: Prices::new(4.0, 2.0).unwrap(),
        n: N_MINERS,
    }
}

/// Bitwise-faithful fingerprint: `f64`'s `Debug` is the shortest string
/// that round-trips, so distinct (non-NaN) bit patterns render distinctly.
fn fingerprint(results: &TaskResults, task: &Task) -> String {
    format!("{:?}", results.output(task).expect("task was planned"))
}

proptest! {
    // Each case solves a batch twice (naive + engine); keep the count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Dedup never changes results: executing the deduplicated plan yields
    /// bitwise identical outputs to solving every spec naively on its own,
    /// for arbitrary overlapping sweep windows.
    #[test]
    fn deduplicated_batch_matches_naive_per_spec_solving(
        specs in prop::collection::vec((0u64..4, 3usize..6), 2usize..4),
    ) {
        let spec_tasks: Vec<Vec<PlannedTask>> = specs
            .iter()
            .map(|&(k0, len)| {
                let mut tasks = vec![PlannedTask::tolerant(closed())];
                tasks.extend((k0..k0 + len as u64).map(|k| PlannedTask::tolerant(sym(k))));
                tasks
            })
            .collect();

        // Naive reference: every spec solves every one of its own tasks.
        let mut naive = TaskResults::default();
        for spec in &spec_tasks {
            for planned in spec {
                naive.insert(&planned.task, planned.task.run_reported().0);
            }
        }

        // Engine path: one shared plan, executed once.
        let compiled = plan(&spec_tasks);
        prop_assert_eq!(
            compiled.stats.unique + compiled.stats.dedup_hits,
            compiled.stats.requested
        );
        // The shared closed-forms task alone guarantees one cross-spec hit
        // per spec after the first.
        prop_assert!(compiled.stats.cross_spec_hits >= spec_tasks.len() - 1);
        let engine = execute(&compiled, Pool::global());

        for spec in &spec_tasks {
            for planned in spec {
                prop_assert_eq!(
                    fingerprint(&engine, &planned.task),
                    fingerprint(&naive, &planned.task)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The rendered TSV and the serde serialization of a [`SweepTable`]
    /// built from engine outputs are identical at 1, 2 and 8 executor
    /// threads: `par_eval` returns index-ordered results and each task is
    /// pure, so the whole pipeline is thread-count invariant.
    #[test]
    fn table_serialization_is_thread_count_invariant(
        k0 in 0u64..6,
        len in 3usize..7,
    ) {
        let grid: Vec<u64> = (k0..k0 + len as u64).collect();
        let tasks: Vec<PlannedTask> =
            grid.iter().map(|&k| PlannedTask::tolerant(sym(k))).collect();
        let mut reference: Option<(String, String)> = None;
        for threads in [1usize, 2, 8] {
            let pool = Pool::new(threads);
            let results = run_tasks(&tasks, &pool);
            let rows: Vec<Vec<f64>> = grid
                .iter()
                .map(|&k| {
                    let p_c = 1.5 + 0.25 * k as f64;
                    match results.sym_opt(&sym(k)).expect("planned") {
                        Some(r) => vec![p_c, r.edge, r.cloud],
                        None => vec![p_c, f64::NAN, f64::NAN],
                    }
                })
                .collect();
            let table = SweepTable::new(
                "thread-count invariance probe",
                &["P_c", "e", "c"],
                rows,
            )
            .with_note("# engine property test");
            let snapshot = (table.render(), serde_json::to_string(&table).unwrap());
            match &reference {
                None => reference = Some(snapshot),
                Some(want) => {
                    prop_assert_eq!(&snapshot.0, &want.0, "render, threads = {}", threads);
                    prop_assert_eq!(&snapshot.1, &want.1, "json, threads = {}", threads);
                }
            }
        }
    }
}
