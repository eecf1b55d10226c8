//! The planner: compiles per-spec task lists into one deduplicated batch.
//!
//! Dedup is the engine's cross-spec memo cache: every task is keyed by the
//! exact bit patterns of its inputs ([`crate::task::Task::canon`]), so a
//! subgame solve requested by three specs (or three grid points) is planned
//! — and later executed — exactly once, and each requester reads the same
//! output object. Because keys are exact (no quantization at this layer),
//! dedup is provably result-preserving: the batch output is bitwise
//! identical to solving every spec naively on its own.
//!
//! The plan also carries the execution schedule ([`Plan::groups`]): one
//! task per group by default, or whole continuation families per group
//! after [`Plan::warm`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use mbm_core::params::Prices;
use mbm_core::solver::nearest_neighbor_order;

use crate::task::{Task, TaskKey};

/// A task plus its failure policy within a spec.
#[derive(Debug, Clone)]
pub struct PlannedTask {
    /// The work item.
    pub task: Task,
    /// `true` when the owning spec cannot render without this task (the
    /// legacy drivers panicked here); `false` when a failure degrades to a
    /// NaN/skipped row.
    pub required: bool,
}

impl PlannedTask {
    /// A task whose failure fails the whole spec.
    #[must_use]
    pub fn required(task: Task) -> Self {
        PlannedTask { task, required: true }
    }

    /// A task whose failure degrades to NaN/skipped rows.
    #[must_use]
    pub fn tolerant(task: Task) -> Self {
        PlannedTask { task, required: false }
    }
}

/// One entry of the deduplicated batch.
#[derive(Debug, Clone)]
pub struct UniqueTask {
    /// The work item (first-seen instance).
    pub task: Task,
    /// Index of the spec that first requested it (into the planner input).
    pub first_spec: usize,
    /// `true` if *any* requester marked it required.
    pub required: bool,
}

/// Dedup accounting for one planned batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Specs planned.
    pub specs: usize,
    /// Task references across all specs (grid points included).
    pub requested: usize,
    /// Distinct tasks after dedup — the work actually executed.
    pub unique: usize,
    /// References resolved against an already-planned task.
    pub dedup_hits: usize,
    /// Dedup hits whose first requester was a *different* spec — the
    /// cross-spec sharing the batched engine exists for.
    pub cross_spec_hits: usize,
}

impl PlanStats {
    /// Fraction of task references served from the shared plan instead of
    /// fresh work, `dedup_hits / requested`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.requested == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.requested as f64
        }
    }

    /// Fraction of task references served by a solve another spec planned
    /// first, `cross_spec_hits / requested`.
    #[must_use]
    pub fn cross_spec_hit_rate(&self) -> f64 {
        if self.requested == 0 {
            0.0
        } else {
            self.cross_spec_hits as f64 / self.requested as f64
        }
    }
}

/// A compiled batch: the unique tasks in first-seen order, the schedule
/// that runs them, and accounting.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Deduplicated tasks, ordered by first request (spec order, then task
    /// order within a spec). Results are reported in this order.
    pub unique: Vec<UniqueTask>,
    /// The schedule: a partition of `unique`'s indices. The executor fans
    /// the groups out, and runs each group's tasks serially, in order, on
    /// one worker, so execution is a pure function of the plan.
    pub groups: Vec<Vec<usize>>,
    /// Dedup accounting.
    pub stats: PlanStats,
}

impl Plan {
    /// The warm-started continuation schedule (DESIGN.md §13): unique tasks
    /// that share a [`Task::grid_family`] (same follower solve, different
    /// price point) form one group, ordered along the nearest-neighbor path
    /// through their [`Task::grid_prices`], so each solve can seed from its
    /// predecessor's equilibrium. Groups come in first-seen order; tasks
    /// without a family stay alone.
    #[must_use]
    pub fn warm(self) -> Plan {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut family_group: HashMap<TaskKey, usize> = HashMap::new();
        for (i, entry) in self.unique.iter().enumerate() {
            match entry.task.grid_family().map(|family| family_group.entry(family)) {
                Some(Entry::Occupied(g)) => groups[*g.get()].push(i),
                Some(Entry::Vacant(slot)) => {
                    slot.insert(groups.len());
                    groups.push(vec![i]);
                }
                None => groups.push(vec![i]),
            }
        }
        for group in &mut groups {
            let points: Option<Vec<Prices>> =
                group.iter().map(|&i| self.unique[i].task.grid_prices()).collect();
            if let Some(points) = points {
                *group = nearest_neighbor_order(&points).into_iter().map(|k| group[k]).collect();
            }
        }
        Plan { groups, ..self }
    }
}

/// Compiles per-spec task lists into a deduplicated [`Plan`] that runs
/// every task in a group of its own (see [`Plan::warm`] for the other
/// schedule).
///
/// Publishes `exp.plan.*` counters and the cross-spec hit rate to the
/// global recorder when telemetry is enabled.
#[must_use]
pub fn plan(spec_tasks: &[Vec<PlannedTask>]) -> Plan {
    let mut unique: Vec<UniqueTask> = Vec::new();
    let mut index: HashMap<TaskKey, usize> = HashMap::new();
    let mut stats = PlanStats { specs: spec_tasks.len(), ..PlanStats::default() };
    for (spec_idx, tasks) in spec_tasks.iter().enumerate() {
        for planned in tasks {
            stats.requested += 1;
            match index.entry(planned.task.canon()) {
                Entry::Occupied(slot) => {
                    stats.dedup_hits += 1;
                    let entry = &mut unique[*slot.get()];
                    entry.required |= planned.required;
                    if entry.first_spec != spec_idx {
                        stats.cross_spec_hits += 1;
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert(unique.len());
                    unique.push(UniqueTask {
                        task: planned.task.clone(),
                        first_spec: spec_idx,
                        required: planned.required,
                    });
                }
            }
        }
    }
    stats.unique = unique.len();
    publish(&stats);
    let groups = (0..unique.len()).map(|i| vec![i]).collect();
    Plan { unique, groups, stats }
}

fn publish(stats: &PlanStats) {
    let rec = mbm_obs::global();
    if !rec.enabled() {
        return;
    }
    rec.add("exp.plan.specs", stats.specs as u64);
    rec.add("exp.plan.requested", stats.requested as u64);
    rec.add("exp.plan.unique", stats.unique as u64);
    rec.add("exp.plan.dedup_hits", stats.dedup_hits as u64);
    rec.add("exp.plan.cross_spec_hits", stats.cross_spec_hits as u64);
    rec.trace("exp.plan.hit_rate", stats.hit_rate());
    rec.trace("exp.plan.cross_spec_hit_rate", stats.cross_spec_hit_rate());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::{baseline_market, BUDGET, N_MINERS};
    use mbm_core::scenario::EdgeOperation;
    use mbm_core::subgame::SubgameConfig;

    fn sym(p_c: f64) -> Task {
        sym_family(BUDGET, p_c)
    }

    /// Symmetric subgames with equal budgets form one continuation family.
    fn sym_family(budget: f64, p_c: f64) -> Task {
        Task::SymSubgame {
            op: EdgeOperation::Connected,
            params: baseline_market(),
            prices: Prices::new(4.0, p_c).unwrap(),
            budget,
            n: N_MINERS,
            cfg: SubgameConfig::default(),
        }
    }

    #[test]
    fn dedup_counts_within_and_across_specs() {
        let spec_a = vec![PlannedTask::tolerant(sym(2.0)), PlannedTask::tolerant(sym(2.0))];
        let spec_b = vec![PlannedTask::required(sym(2.0)), PlannedTask::tolerant(sym(2.5))];
        let plan = plan(&[spec_a, spec_b]);
        assert_eq!(plan.stats.requested, 4);
        assert_eq!(plan.stats.unique, 2);
        assert_eq!(plan.stats.dedup_hits, 2);
        assert_eq!(plan.stats.cross_spec_hits, 1);
        // First-seen order; a later required request upgrades the entry.
        assert_eq!(plan.unique[0].first_spec, 0);
        assert!(plan.unique[0].required);
        assert!(!plan.unique[1].required);
        assert!((plan.stats.hit_rate() - 0.5).abs() < 1e-12);
        assert!((plan.stats.cross_spec_hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn warm_schedule_groups_families_along_nearest_neighbor_paths() {
        let (a, b) = (BUDGET, 2.0 * BUDGET);
        let closed = Task::ClosedForms {
            params: baseline_market(),
            prices: Prices::new(4.0, 2.0).unwrap(),
            n: N_MINERS,
        };
        // Two interleaved families whose first-seen price order is not
        // their nearest-neighbor path, and one task without a family.
        let tasks = vec![
            sym_family(a, 3.0),
            sym_family(b, 1.5),
            closed,
            sym_family(a, 1.0),
            sym_family(b, 3.5),
            sym_family(a, 2.9),
            sym_family(b, 1.6),
        ];
        let cold = plan(&[tasks.into_iter().map(PlannedTask::tolerant).collect()]);
        let n = cold.unique.len();
        assert_eq!(cold.groups, (0..n).map(|i| vec![i]).collect::<Vec<_>>());

        let warm = cold.warm();
        let mut covered: Vec<usize> = warm.groups.concat();
        covered.sort_unstable();
        assert_eq!(covered, (0..n).collect::<Vec<_>>(), "groups partition the unique tasks");
        assert!(warm.groups.contains(&vec![2]), "the task without a family stays alone");
        for group in warm.groups.iter().filter(|g| g.len() > 1) {
            let family = warm.unique[group[0]].task.grid_family();
            assert!(family.is_some(), "only continuation families share a group");
            let mut members: Vec<usize> =
                (0..n).filter(|&i| warm.unique[i].task.grid_family() == family).collect();
            let prices: Vec<Prices> =
                members.iter().map(|&i| warm.unique[i].task.grid_prices().unwrap()).collect();
            members = nearest_neighbor_order(&prices).into_iter().map(|k| members[k]).collect();
            assert_eq!(group, &members);
        }
        let firsts: Vec<usize> = warm.groups.iter().map(|g| *g.iter().min().unwrap()).collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]), "groups in first-seen order: {firsts:?}");
        assert_eq!(warm.groups, vec![vec![0, 5, 3], vec![1, 6, 4], vec![2]]);
    }
}
