//! The PMFG's bubble tree and its direction held to the split-loop and
//! BFS-direction oracles on the ECG5000 stand-in: the input of the
//! `pmfg-ecg500` benchmark workload (n = 500, the data set's class
//! archetypes at seed 20230309, plus uniform noise of half-width 0.1 drawn
//! from each run's seed), at three run seeds. Its PMFGs are nearly stacked
//! triangulations, with hundreds of bubbles and a nesting depth in the
//! hundreds. `pfg_core`'s unit tests hold the same oracles to the digest
//! inputs, PMFGs with large bubbles, TMFGs and small hand-made graphs.

use par_filtered_graph_clustering::prelude::*;
use pfg_core::dbht::bubble_graph::{DirectedBubbleEdge, DirectedBubbleGraph};
use pfg_core::dbht::direction::direct_tmfg_bubble_tree;
use pfg_core::dbht::planar_bubbles::decompose;
use pfg_core::{BubbleTree, Triangle};
use pfg_graph::bfs_reachable_within;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod oracles {
    include!("../crates/core/tests/support/bubble_oracles.rs");
}

/// The ECG5000 stand-in's similarity matrix at run seed `seed`.
fn ecg5000_stand_in(seed: u64) -> SymmetricMatrix {
    let spec = ucr_catalogue()
        .into_iter()
        .find(|spec| spec.name == "ECG5000")
        .expect("data set is in the Table II catalogue");
    let mut series = spec.generate(0.1, 20230309).series;
    let mut rng = StdRng::seed_from_u64(seed);
    for x in series.iter_mut().flatten() {
        *x += rng.gen_range(-0.1..0.1);
    }
    correlation_and_dissimilarity(&series).0
}

#[test]
fn ecg5000_stand_in_pmfg_trees_match_the_oracles() {
    for seed in 20230309..20230312 {
        let p = pmfg(&ecg5000_stand_in(seed)).expect("valid input");
        assert_eq!(p.graph.num_vertices(), 500);
        let tree = decompose(&p.graph);
        assert!(tree.len() > 400, "seed {seed}: {} bubbles", tree.len());
        oracles::assert_matches_oracles(&p.graph, &tree, &format!("seed {seed}"));
    }
}
