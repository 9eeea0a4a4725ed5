//! Property-based equivalence tests for the CSR-arena graph layout and the
//! reusable scratch reducer: on random workloads, the owning `Reducer`
//! front end, the reused zero-allocation scratch engine and the naive
//! rescan oracle must produce *byte-identical* reduction outcomes
//! (including the step-by-step trace), the graph `run_keeping_graph` hands
//! back must be the one the oracle's trace leaves, and the scratch-based
//! confluence check must report exactly what per-sample oracle runs
//! report.

use proptest::prelude::*;
use trustseq::core::{
    confluence_check, ConfluenceReport, Move, Reducer, ScratchReducer, SequencingGraph,
    Strategy as ReduceStrategy,
};
use trustseq::workloads::{random_exchange, RandomConfig};

fn arb_config() -> impl Strategy<Value = RandomConfig> {
    (1usize..=3, 1usize..=4, 0u8..=10, any::<u64>()).prop_map(
        |(width, max_depth, density, seed)| RandomConfig {
            width,
            max_depth,
            price_range: (10, 100),
            trust_density: f64::from(density) / 10.0,
            seed,
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The CSR adjacency preserves per-node edge order, so the incremental
    /// engine behind `Reducer::run` stays byte-identical to the naive
    /// rescan oracle — on original and randomly relabelled graphs alike.
    #[test]
    fn csr_worklist_trace_matches_naive_oracle(
        config in arb_config(),
        perm_seed in any::<u64>(),
    ) {
        let ex = random_exchange(&config);
        let graph = SequencingGraph::from_spec(&ex.spec).unwrap();
        let incremental = Reducer::new(graph.clone()).run();
        let naive = Reducer::new(graph.clone()).run_naive();
        prop_assert_eq!(&incremental, &naive);
        let permuted = graph.permuted(perm_seed);
        prop_assert_eq!(
            Reducer::new(permuted.clone()).run(),
            Reducer::new(permuted).run_naive()
        );
    }

    /// One scratch reducer reused across differently-shaped random graphs
    /// reproduces the rescan oracle byte-for-byte, deterministic and
    /// randomized, and never mutates the borrowed graph.
    #[test]
    fn scratch_reducer_matches_owning_reducer(config in arb_config()) {
        let mut scratch = ScratchReducer::new();
        for offset in 0..4u64 {
            let ex = random_exchange(&RandomConfig {
                seed: config.seed.wrapping_add(offset),
                ..config.clone()
            });
            let graph = SequencingGraph::from_spec(&ex.spec).unwrap();
            let pristine = graph.clone();
            let out = scratch.run(&graph, ReduceStrategy::Deterministic);
            prop_assert_eq!(&out, &Reducer::new(graph.clone()).run_naive());
            for seed in 0..3u64 {
                let strategy = ReduceStrategy::Randomized { seed };
                let out = scratch.run(&graph, strategy);
                prop_assert_eq!(
                    &out,
                    &Reducer::new(graph.clone()).with_strategy(strategy).run_naive()
                );
            }
            prop_assert_eq!(&graph, &pristine);
        }
    }

    /// The scratch-based confluence check reports exactly what a fresh
    /// rescan-oracle run per sample reports.
    #[test]
    fn scratch_confluence_matches_per_sample_fresh_reducers(config in arb_config()) {
        let ex = random_exchange(&config);
        let graph = SequencingGraph::from_spec(&ex.spec).unwrap();
        let samples = 6u64;
        let reference_feasible = Reducer::new(graph.clone()).run_naive().feasible;
        let disagreeing_seeds: Vec<u64> = (0..samples)
            .filter(|&seed| {
                Reducer::new(graph.clone())
                    .with_strategy(ReduceStrategy::Randomized { seed })
                    .run_naive()
                    .feasible
                    != reference_feasible
            })
            .collect();
        let expected = ConfluenceReport {
            reference_feasible,
            samples,
            agreeing: samples - disagreeing_seeds.len() as u64,
            disagreeing_seeds,
        };
        prop_assert_eq!(confluence_check(&ex.spec, samples).unwrap(), expected);
    }

    /// `run_keeping_graph` hands back exactly the graph — liveness and
    /// cached degree counters alike — that replaying the oracle's trace
    /// move by move through `Reducer::apply` leaves, under both strategies,
    /// on original, relabelled and partially reduced inputs.
    #[test]
    fn kept_graph_matches_oracle_trace_replay(
        config in arb_config(),
        perm_seed in any::<u64>(),
    ) {
        let ex = random_exchange(&config);
        let graph = SequencingGraph::from_spec(&ex.spec).unwrap();
        let mut inputs = vec![graph.permuted(perm_seed), graph.clone()];
        let mut stepped = Reducer::new(graph);
        if let Some(&mv) = stepped.applicable_moves().first() {
            stepped.apply(mv).unwrap();
            inputs.push(stepped.graph().clone());
        }
        let strategies = [ReduceStrategy::Deterministic]
            .into_iter()
            .chain((0..2u64).map(|seed| ReduceStrategy::Randomized { seed }));
        for strategy in strategies {
            for input in &inputs {
                let (outcome, kept) = Reducer::new(input.clone())
                    .with_strategy(strategy)
                    .run_keeping_graph();
                let naive = Reducer::new(input.clone())
                    .with_strategy(strategy)
                    .run_naive();
                prop_assert_eq!(&outcome, &naive);
                let mut replay = Reducer::new(input.clone());
                for step in naive.trace.steps() {
                    let mv = Move {
                        edge: step.edge,
                        rule: step.rule,
                        via_clause2: step.via_clause2,
                    };
                    prop_assert_eq!(replay.apply(mv).unwrap(), *step);
                }
                prop_assert_eq!(&kept, replay.graph());
            }
        }
    }
}
