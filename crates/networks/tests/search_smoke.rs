//! CI smoke test: the parallel search driver must rediscover the optimal
//! 19-comparator 8-channel sorting network under a small fixed budget.
//!
//! The budget is the CI contract: multi-worker, fixed master seed, a few
//! hundred thousand iterations per restart. If the found size ever exceeds
//! 19 the search (or its determinism machinery) has regressed.

use std::time::Instant;

use mcs_networks::io::NetworkArtifact;
use mcs_networks::optimal::OPTIMAL_SIZES;
use mcs_networks::search::{
    parallel_search, MoveSet, ParallelSearchConfig, SearchSpace,
};
use mcs_networks::verify::zero_one_verify;

/// The pinned CI budget (keep in sync with README / CHANGES notes).
fn smoke_config() -> ParallelSearchConfig {
    let mut config = ParallelSearchConfig::new(8, 7);
    config.space = SearchSpace::Saturated;
    config.iterations = 150_000;
    config.restarts = 8;
    config.master_seed = 2018; // the paper's year; pinned, not magic
    config.workers = 4;
    config.stop_at_size = Some(19);
    config
}

#[test]
fn rediscovers_the_optimal_eight_sorter() {
    let start = Instant::now();
    let net = parallel_search(&smoke_config())
        .expect("smoke config is valid")
        .expect("8-sorter within the CI smoke budget");
    println!(
        "search-smoke: found {net} in {:.2?}",
        start.elapsed()
    );
    assert!(zero_one_verify(&net).is_ok());
    assert_eq!(net.channels(), 8);
    // 19 is the known optimal size for n = 8: finding less is impossible,
    // finding more is a regression.
    assert_eq!(net.size(), OPTIMAL_SIZES[7]);
    assert_eq!(net.size(), 19);

    // The budget is deterministic: a second run, sharded differently, must
    // reproduce the identical network byte for byte.
    let mut resharded = smoke_config();
    resharded.workers = 2;
    assert_eq!(parallel_search(&resharded).unwrap(), Some(net.clone()));

    // The cache path, end to end: the found network is saved as an
    // artifact, reloaded, re-verified, and must come back byte-identical —
    // so a later run can seed from the cache instead of re-searching. The
    // CI job repeats this across processes with `find_network --save` /
    // `--load`.
    let artifact = NetworkArtifact::new(net, smoke_config().master_seed);
    let dir = std::env::temp_dir().join("mcs-search-smoke");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let text_path = dir.join("eight_sort.mcsn");
    std::fs::write(&text_path, artifact.to_text()).expect("save text");
    let reloaded = NetworkArtifact::from_slice(&std::fs::read(&text_path).expect("reload"))
        .expect("text artifact loads");
    reloaded.reverify().expect("cached network re-verifies");
    assert_eq!(reloaded, artifact);
    assert_eq!(reloaded.to_text(), artifact.to_text());
    assert_eq!(reloaded.network.size(), 19);
    assert_eq!(reloaded.master_seed, 2018);

    // Warm-start resume, in process: the cached incumbent already meets
    // the stop-at-size target, so a warm-started run with a tiny budget
    // returns it unchanged — the cheap end of a chained hunt. (CI repeats
    // this across processes with `find_network --warm-start`.)
    for workers in [1usize, 4] {
        let mut warm = smoke_config();
        warm.space = SearchSpace::Free;
        warm.moves = MoveSet::Extended;
        warm.iterations = 1_000;
        warm.workers = workers;
        warm.warm_start_from_artifact(&artifact).expect("cached artifact seeds");
        let resumed = parallel_search(&warm)
            .expect("warm config is valid")
            .expect("warm-started search never returns None");
        assert_eq!(resumed, artifact.network, "workers={workers}");
    }
}
