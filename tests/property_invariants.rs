//! Property-based tests of the model's core invariants (proptest).

use proptest::prelude::*;

use mbm_core::params::{MarketParams, Prices};
use mbm_core::request::Request;
use mbm_core::subgame::connected::{
    analytic_best_response, solve_symmetric_connected, BestResponseInputs,
};
use mbm_core::subgame::homogeneous::{homogeneous_equilibrium, mixed_strategy_condition};
use mbm_core::subgame::SubgameConfig;
use mbm_core::winning::{
    total_winning_probability, utility_connected, w_connected_expected, w_connected_transfer,
    w_full,
};

fn request_profile() -> impl Strategy<Value = Vec<Request>> {
    prop::collection::vec((0.01f64..50.0, 0.01f64..50.0), 2..8)
        .prop_map(|v| v.into_iter().map(|(e, c)| Request { edge: e, cloud: c }).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Theorem 1: the full-satisfaction winning probabilities always sum
    /// to one, for any profile and fork rate.
    #[test]
    fn theorem1_sum_to_one(profile in request_profile(), beta in 0.0f64..0.99) {
        let total = total_winning_probability(&profile, beta);
        prop_assert!((total - 1.0).abs() < 1e-9, "total = {total}");
    }

    /// Every winning probability is a probability: in [0, 1].
    #[test]
    fn probabilities_in_unit_interval(profile in request_profile(), beta in 0.0f64..0.99) {
        for i in 0..profile.len() {
            for w in [
                w_full(i, &profile, beta),
                w_connected_transfer(i, &profile, beta),
                w_connected_expected(i, &profile, beta, 0.7),
            ] {
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&w), "w = {w}");
            }
        }
    }

    /// Eq. 9 is exactly the h-mixture of Eq. 6 and Eq. 7.
    #[test]
    fn eq9_mixture_identity(
        profile in request_profile(),
        beta in 0.0f64..0.99,
        h in 0.01f64..1.0,
    ) {
        for i in 0..profile.len() {
            let mix = h * w_full(i, &profile, beta)
                + (1.0 - h) * w_connected_transfer(i, &profile, beta);
            let direct = w_connected_expected(i, &profile, beta, h);
            prop_assert!((mix - direct).abs() < 1e-10, "miner {i}: {mix} vs {direct}");
        }
    }

    /// The analytic KKT best response never overspends and never beats
    /// itself: random feasible deviations cannot improve the utility.
    #[test]
    fn best_response_is_undominated(
        e_others in 0.1f64..40.0,
        extra_cloud in 0.0f64..40.0,
        budget in 1.0f64..300.0,
        beta in 0.05f64..0.6,
        h in 0.3f64..1.0,
        p_e in 2.0f64..8.0,
        dev_e in 0.0f64..1.0,
        dev_c in 0.0f64..1.0,
    ) {
        let p_c = p_e * 0.5; // keep P_c < P_e
        let prices = Prices::new(p_e, p_c).unwrap();
        let s_others = e_others + extra_cloud;
        let inp = BestResponseInputs {
            reward: 100.0,
            beta,
            h,
            prices,
            budget,
            e_others,
            s_others,
            edge_cap: None,
        };
        let br = analytic_best_response(&inp).unwrap();
        prop_assert!(br.cost(&prices) <= budget + 1e-6);

        // Utility of the BR vs a random affordable deviation, holding one
        // synthetic opponent carrying the aggregate.
        let params = MarketParams::builder()
            .reward(100.0)
            .fork_rate(beta)
            .edge_availability(h)
            .build()
            .unwrap();
        let opponent = Request { edge: e_others, cloud: s_others - e_others };
        let u = |r: Request| utility_connected(0, &[r, opponent], &prices, &params);
        let dev = Request {
            edge: dev_e * budget / p_e,
            cloud: (dev_c * (budget - dev_e * budget.min(budget)) / p_c).max(0.0),
        };
        let dev = if dev.cost(&prices) <= budget { dev } else {
            Request { edge: dev.edge * 0.5, cloud: (budget - dev.edge * 0.5 * p_e).max(0.0) / p_c }
        };
        prop_assert!(
            u(br) >= u(dev) - 1e-6 * (1.0 + u(br).abs()),
            "BR {:?} (u = {}) beaten by {:?} (u = {})",
            br, u(br), dev, u(dev)
        );
    }

    /// The symmetric connected equilibrium is feasible and consistent with
    /// the closed-form regime selector.
    #[test]
    fn symmetric_equilibrium_matches_closed_forms(
        budget in 3.0f64..3000.0,
        n in 2usize..9,
        beta in 0.05f64..0.5,
        p_e in 3.0f64..8.0,
    ) {
        let p_c = p_e * 0.4;
        let params = MarketParams::builder()
            .reward(100.0)
            .fork_rate(beta)
            .edge_availability(0.8)
            .build()
            .unwrap();
        let prices = Prices::new(p_e, p_c).unwrap();
        prop_assume!(mixed_strategy_condition(&params, &prices));
        let numeric = solve_symmetric_connected(&params, &prices, budget, n, &SubgameConfig::default());
        prop_assume!(numeric.is_ok());
        let numeric = numeric.unwrap();
        prop_assert!(numeric.cost(&prices) <= budget + 1e-6);
        let (closed, _regime) = homogeneous_equilibrium(&params, &prices, budget, n).unwrap();
        prop_assert!(
            (numeric.edge - closed.edge).abs() < 1e-4 * (1.0 + closed.edge),
            "edge: numeric {} vs closed {}",
            numeric.edge,
            closed.edge
        );
        prop_assert!(
            (numeric.cloud - closed.cloud).abs() < 1e-3 * (1.0 + closed.cloud),
            "cloud: numeric {} vs closed {}",
            numeric.cloud,
            closed.cloud
        );
    }

    /// The standalone variational equilibrium is feasible (budgets and
    /// shared capacity) and carries a small VI natural residual, across
    /// random markets.
    #[test]
    fn standalone_ve_is_feasible_and_certified(
        budgets in prop::collection::vec(20.0f64..400.0, 2..5),
        e_max in 0.5f64..20.0,
        beta in 0.05f64..0.5,
        p_e in 3.0f64..8.0,
    ) {
        use mbm_core::params::EdgeOperation;
        use mbm_core::subgame::equilibrium_certificate;
        use mbm_core::subgame::standalone::solve_standalone_miner_subgame;
        use mbm_game::gnep::GnepWorkspace;
        use mbm_game::profile::Profile;
        let p_c = p_e * 0.4;
        let params = MarketParams::builder()
            .reward(100.0)
            .fork_rate(beta)
            .edge_availability(0.8)
            .e_max(e_max)
            .build()
            .unwrap();
        let prices = Prices::new(p_e, p_c).unwrap();
        let eq = solve_standalone_miner_subgame(
            &params,
            &prices,
            &budgets,
            &mbm_core::subgame::SubgameConfig::default(),
        );
        prop_assume!(eq.is_ok());
        let eq = eq.unwrap();
        prop_assert!(eq.aggregates.edge <= e_max + 1e-5, "capacity violated");
        for (r, &b) in eq.requests.iter().zip(&budgets) {
            prop_assert!(r.cost(&prices) <= b + 1e-5, "budget violated");
            prop_assert!(r.edge >= -1e-9 && r.cloud >= -1e-9);
        }
        let blocks: Vec<Vec<f64>> = eq.requests.iter().map(|r| vec![r.edge, r.cloud]).collect();
        let profile = Profile::from_blocks(&blocks).unwrap();
        let mode = EdgeOperation::Standalone;
        let mut ws = GnepWorkspace::new();
        let res =
            equilibrium_certificate(mode, &params, &prices, &budgets, &profile, &mut ws).unwrap();
        prop_assert!(res < 1e-2, "VI residual {res}");
    }

    /// Raising the CSP price (weakly) raises equilibrium edge demand —
    /// the monotonicity behind the paper's Fig. 4.
    #[test]
    fn edge_demand_increasing_in_cloud_price(
        budget in 10.0f64..500.0,
        n in 2usize..7,
        beta in 0.05f64..0.5,
        p_c_lo in 0.5f64..1.5,
        bump in 0.1f64..1.0,
    ) {
        let p_e = 6.0;
        let params = MarketParams::builder()
            .reward(100.0)
            .fork_rate(beta)
            .edge_availability(0.8)
            .build()
            .unwrap();
        let lo_prices = Prices::new(p_e, p_c_lo).unwrap();
        let hi_prices = Prices::new(p_e, p_c_lo + bump).unwrap();
        prop_assume!(mixed_strategy_condition(&params, &hi_prices));
        let cfg = SubgameConfig::default();
        let lo = solve_symmetric_connected(&params, &lo_prices, budget, n, &cfg);
        let hi = solve_symmetric_connected(&params, &hi_prices, budget, n, &cfg);
        prop_assume!(lo.is_ok() && hi.is_ok());
        prop_assert!(
            hi.unwrap().edge >= lo.unwrap().edge - 1e-7,
            "edge demand fell when P_c rose"
        );
    }
}
