//! Determinism contract of the throughput engine: the reported checksum is
//! a pure function of `(circuit, seed, vectors, chunk_lanes)` — worker
//! count, plane width and repetition must never change a byte of it. This
//! is the PR 3 contract (round-robin sharding + index-keyed merge) carried
//! over to the streaming engine, and it is what makes the benchmark's
//! numbers comparable across machines and across PRs.

use mcs_bench::throughput::{
    cell_network, report_json, run_cell, ThroughputConfig, ThroughputError,
    JSON_SCHEMA,
};
use mcs_logic::plane::kernel::{self, KernelId, UnknownKernel};
use mcs_logic::PlaneWidth;

fn cfg(channels: usize, width: usize, vectors: u64) -> ThroughputConfig {
    let mut cfg = ThroughputConfig::new(channels, width);
    cfg.vectors = vectors;
    cfg.chunk_lanes = 512;
    cfg.sample_lanes = 512;
    cfg.workers = 1;
    cfg
}

/// Workers 1/2/4/8 produce byte-identical checksums — on any host,
/// including this single-core container (the sharding is a function of the
/// worker index, never of scheduling).
#[test]
fn checksum_is_identical_across_worker_counts() {
    let base = run_cell(&cfg(4, 2, 5_000)).unwrap();
    assert_eq!(base.workers, 1);
    for workers in [2usize, 4, 8] {
        let mut c = cfg(4, 2, 5_000);
        c.workers = workers;
        let r = run_cell(&c).unwrap();
        assert_eq!(r.checksum, base.checksum, "workers = {workers}");
        assert_eq!(r.vectors, base.vectors);
    }
}

/// Every plane width (1×, 4×, 8× interleaved u64 blocks) streams the same
/// bytes.
#[test]
fn checksum_is_identical_across_plane_widths() {
    let mut reference = None;
    for plane_width in PlaneWidth::ALL {
        let mut c = cfg(4, 2, 4_000);
        c.plane_width = plane_width;
        let r = run_cell(&c).unwrap();
        let want = *reference.get_or_insert(r.checksum);
        assert_eq!(r.checksum, want, "plane width {plane_width}");
    }
}

/// Every available kernel tier (scalar, plus AVX2 where the CPU has it)
/// streams the same bytes — at every plane width. This is the
/// throughput-layer face of the kernel conformance contract.
#[test]
fn checksum_is_identical_across_kernels() {
    let mut reference = None;
    for k in kernel::kernels() {
        for plane_width in PlaneWidth::ALL {
            let mut c = cfg(4, 2, 4_000);
            c.kernel = k;
            c.plane_width = plane_width;
            let r = run_cell(&c).unwrap();
            assert_eq!(r.kernel, k);
            let want = *reference.get_or_insert(r.checksum);
            assert_eq!(r.checksum, want, "kernel {k}, plane width {plane_width}");
        }
    }
}

/// Forcing a tier this CPU cannot run is a typed preflight refusal, never
/// a panic mid-stream, and every tier it can run streams. The refusal a
/// CPU without AVX2 gives is pinned through the pure `require_on`, so the
/// test bites on every host.
#[test]
fn unavailable_kernel_is_a_typed_preflight_error() {
    for k in KernelId::ALL {
        let mut c = cfg(4, 2, 10);
        c.kernel = k;
        match (kernel::available(k), run_cell(&c)) {
            (true, Ok(r)) => assert_eq!(r.kernel, k),
            (false, Err(ThroughputError::Kernel(UnknownKernel::Unavailable(got)))) => {
                assert_eq!(got, k)
            }
            (_, other) => panic!("kernel {k}: unexpected preflight result {other:?}"),
        }
    }
    let refusal = kernel::require_on(KernelId::Avx2, false).unwrap_err();
    assert!(ThroughputError::from(refusal).to_string().contains("avx2"));
}

/// Back-to-back runs repeat exactly; a different seed diverges (the digest
/// actually covers the data).
#[test]
fn repeat_runs_repeat_and_seeds_matter() {
    let a = run_cell(&cfg(4, 2, 3_000)).unwrap();
    let b = run_cell(&cfg(4, 2, 3_000)).unwrap();
    assert_eq!(a.checksum, b.checksum);
    let mut c = cfg(4, 2, 3_000);
    c.seed ^= 1;
    let d = run_cell(&c).unwrap();
    assert_ne!(a.checksum, d.checksum);
}

/// The edge vector counts stream without panicking and preserve the
/// worker-count invariance even when the final chunk is a partial word.
#[test]
fn edge_vector_counts_keep_the_contract() {
    for vectors in [0u64, 1, 63, 64, 65, 1000] {
        let mut one = cfg(4, 2, vectors);
        one.chunk_lanes = 64;
        one.sample_lanes = vectors.max(1) as usize;
        let a = run_cell(&one).unwrap();
        let mut four = one;
        four.workers = 4;
        let b = run_cell(&four).unwrap();
        assert_eq!(a.checksum, b.checksum, "vectors = {vectors}");
    }
}

/// Wider cells exercise the Batcher path (n = 16 has no optimal table) and
/// a >1-bit rank domain; the contract holds there too.
#[test]
fn wider_cells_hold_the_contract() {
    assert_eq!(cell_network(16).size(), 63);
    let mut one = cfg(16, 4, 1_500);
    one.sample_lanes = 256;
    let a = run_cell(&one).unwrap();
    let mut two = one;
    two.workers = 2;
    let b = run_cell(&two).unwrap();
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.comparators, 63);
    assert!(a.gates > 0 && a.depth > 0);
}

/// The JSON document keeps its schema tag and per-cell fields — CI greps
/// this file, so the format is part of the contract.
#[test]
fn json_report_is_format_stable() {
    let r = run_cell(&cfg(4, 2, 1_000)).unwrap();
    let json = report_json(7, 512, std::slice::from_ref(&r));
    assert!(json.starts_with("{\n"));
    assert!(json.contains(&format!("\"schema\": \"{JSON_SCHEMA}\"")));
    for field in [
        "\"seed\": 7",
        "\"chunk_lanes\": 512",
        "\"channels\": 4",
        "\"width\": 2",
        "\"comparators\"",
        "\"gates\"",
        "\"depth\"",
        "\"vectors\": 1000",
        "\"workers\": 1",
        "\"plane_width\": 4",
        "\"kernel\": \"",
        "\"elapsed_s\"",
        "\"vectors_per_s\"",
        "\"differential_lanes\": 512",
    ] {
        assert!(json.contains(field), "missing {field}:\n{json}");
    }
    assert!(json.contains(&format!("\"checksum\": \"0x{:016x}\"", r.checksum)));
    assert!(json.contains(&format!("\"kernel\": \"{}\"", r.kernel.name())));
}

/// A forced-scalar cell reports `"kernel": "scalar"` in its JSON cell —
/// what the CI kernel-matrix job greps to prove the forcing took effect.
#[test]
fn json_report_carries_the_forced_kernel() {
    let mut c = cfg(4, 2, 500);
    c.kernel = KernelId::Scalar;
    let r = run_cell(&c).unwrap();
    let json = report_json(7, 512, std::slice::from_ref(&r));
    assert!(json.contains("\"kernel\": \"scalar\""), "{json}");
}

/// Checksums recorded from the per-lane generator the bit-sliced one
/// replaced: `(channels, width, chunk_lanes, vectors, checksum)` at the
/// default seed, one worker. They pin the stream definition itself — a
/// generator change that keeps the contract above but alters one input
/// bit fails here. `chunk_lanes = 100` puts every chunk after the first at
/// a `lane0` that is not a multiple of 64. The last row is the committed
/// 8×2 cell: 100k vectors give the checksum `BENCH_throughput.json`
/// records for it.
const PINNED: [(usize, usize, usize, u64, u64); 19] = [
    (2, 1, 64, 3_000, 0xc094_6815_7e85_4886),
    (4, 1, 100, 3_000, 0x667f_e47b_e05b_5cb2),
    (8, 1, 8192, 9_000, 0x342d_0a6b_3f3b_a667),
    (2, 2, 100, 3_000, 0x2ac0_3ce3_e84e_39a9),
    (4, 2, 8192, 9_000, 0x5a9c_a096_e65e_3ff3),
    (8, 2, 64, 3_000, 0x3290_e2f6_ceda_8c48),
    (2, 3, 8192, 9_000, 0xa25b_08eb_2d59_27c7),
    (4, 3, 64, 3_000, 0xe905_3f90_c8b0_ba21),
    (8, 3, 100, 3_000, 0xf4a4_90c3_10b5_bc93),
    (2, 16, 64, 3_000, 0xd6fc_cd86_0fe0_c36c),
    (4, 16, 100, 3_000, 0xa56a_29c4_65ae_24a0),
    (8, 16, 8192, 9_000, 0x36f6_21e9_44c5_5a43),
    (2, 31, 100, 3_000, 0x0b13_9bc9_758c_487e),
    (4, 31, 8192, 9_000, 0x18dd_6a0c_affa_44ef),
    (8, 31, 64, 3_000, 0xa73c_7290_1fcf_17e4),
    (2, 32, 8192, 9_000, 0xf73e_6714_8737_d24a),
    (4, 32, 64, 3_000, 0x9c1b_c9ae_5138_4ec4),
    (8, 32, 100, 3_000, 0xc52e_5c6e_8856_5b86),
    (8, 2, 8192, 100_000, 0x6cac_fc07_fe24_8fd7),
];

/// Every pinned cell streams its recorded checksum under every available
/// kernel tier (the tier compiles the generator as well as the tape).
#[test]
fn pinned_checksums_hold_under_every_tier() {
    for k in kernel::kernels() {
        for (channels, width, chunk_lanes, vectors, want) in PINNED {
            let mut c = ThroughputConfig::new(channels, width);
            c.vectors = vectors;
            c.chunk_lanes = chunk_lanes;
            c.workers = 1;
            c.kernel = k;
            let r = run_cell(&c).unwrap();
            assert_eq!(
                r.checksum, want,
                "{channels}x{width}, chunk_lanes {chunk_lanes}, kernel {k}: 0x{:016x}",
                r.checksum
            );
        }
    }
}

/// Misconfigured cells fail with typed errors before any streaming.
#[test]
fn preflight_rejects_bad_configs() {
    assert!(matches!(
        run_cell(&cfg(1, 2, 10)),
        Err(ThroughputError::UnsupportedCell { .. })
    ));
    let mut zero_chunk = cfg(4, 2, 10);
    zero_chunk.chunk_lanes = 0;
    assert!(matches!(
        run_cell(&zero_chunk),
        Err(ThroughputError::UnsupportedCell { .. })
    ));
}
