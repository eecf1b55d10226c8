//! The paper's Algorithm 2 ("Price Bargaining") in action, with its trace.
//!
//! Runs the traced bargaining loop in the standalone mode — miners respond,
//! both providers simultaneously re-price — and prints the round-by-round
//! trajectory; then shows the same machinery *failing honestly* in the
//! Edgeworth-cycle parameter region, where the detector names the cycle.
//! The cycling Algorithm 1 run goes through the experiment engine, the
//! same [`Task::Algorithm1`] the `edgeworth` experiment plans.
//!
//! Run with `cargo run --release --example price_bargaining`.

use mobile_blockchain_mining::core::algorithms::{algorithm2_price_bargaining, AlgorithmConfig};
use mobile_blockchain_mining::core::market::{PriceVector, ProviderSet};
use mobile_blockchain_mining::core::params::Prices;
use mobile_blockchain_mining::core::presets;
use mobile_blockchain_mining::core::scenario::EdgeOperation;
use mobile_blockchain_mining::core::sp::MinerPopulation;
use mobile_blockchain_mining::exp::planner::PlannedTask;
use mobile_blockchain_mining::exp::{run_tasks, Task};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let population = MinerPopulation::Homogeneous { budget: 200.0, n: 5 };
    let start = PriceVector::new(&[10.0, 4.0])?;
    let cfg = AlgorithmConfig::default();

    // 1. Standalone-mode bargaining in the well-posed parameter region
    //    (the traced diagnostic itself; not a market solve).
    let params = presets::leader_ne_market()?;
    let providers = ProviderSet::from_market(&params);
    let trace = algorithm2_price_bargaining(
        &params,
        &providers,
        population.clone(),
        EdgeOperation::Standalone,
        &start,
        &cfg,
    )?;
    println!("Algorithm 2 (standalone, C_e = 7): converged = {}", trace.converged);
    println!("round   P_e      P_c      E        V_e      V_c");
    for (k, r) in trace.rounds.iter().enumerate() {
        println!(
            "{k:>5}  {:>7.3}  {:>7.3}  {:>7.3}  {:>7.3}  {:>7.3}",
            r.prices[0], r.prices[1], r.demand[0], r.profits[0], r.profits[1]
        );
    }

    // 2. The same loop at the baseline costs: an honest non-convergence,
    //    run as an engine task.
    let task = Task::Algorithm1 {
        params: presets::paper_baseline()?,
        op: EdgeOperation::Connected,
        budget: 200.0,
        n: 5,
        init: Prices::new(6.0, 3.0)?,
        max_rounds: 24,
    };
    let results = run_tasks(&[PlannedTask::required(task.clone())], mbm_par::Pool::global());
    let trace = results.trace(&task)?;
    println!();
    println!(
        "Algorithm 1 (connected, C_e = 2): converged = {} after {} rounds",
        trace.converged,
        trace.rounds.len() - 1
    );
    match trace.detect_cycle(0.05) {
        Some(period) => println!(
            "detected an Edgeworth price cycle of period {period}: the leader game has no pure \
             Nash equilibrium at these costs (see DESIGN.md)"
        ),
        None => println!("no cycle detected"),
    }
    Ok(())
}
