//! Criterion benches for the gate-level simulator itself: scalar vs
//! multi-word block ternary evaluation, exhaustive
//! 2-sort verification on the block tier, full sorting-network
//! simulation, bare compiled-tape eval of the 16×16 cell at every plane
//! width, and engine set-up (build, compile and certify).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use mcs_bench::engine::{cell_network, Engine};
use mcs_bench::verify::zero_one_circuit_check;
use mcs_core::ppc::PrefixTopology;
use mcs_core::two_sort::{
    build_two_sort, simulate_two_sort, simulate_two_sort_block,
    verify_two_sort_exhaustive,
};
use mcs_gray::ValidString;
use mcs_logic::plane::kernel;
use mcs_logic::PlaneWidth;
use mcs_networks::circuit::{build_sorting_circuit, simulate_sorting_circuit, TwoSortFlavor};
use mcs_networks::optimal::ten_sort_depth;

fn bench_eval(c: &mut Criterion) {
    let width = 16usize;
    let circuit = build_two_sort(width, PrefixTopology::LadnerFischer);
    let pairs: Vec<(ValidString, ValidString)> = (0..64u64)
        .map(|i| {
            (
                ValidString::from_rank(width, 1000 + 17 * i).expect("in range"),
                ValidString::from_rank(width, 90_000 - 13 * i).expect("in range"),
            )
        })
        .collect();

    let mut group = c.benchmark_group("two_sort16_eval");
    group.throughput(Throughput::Elements(64));
    group.bench_function("scalar_64_pairs", |b| {
        b.iter(|| {
            for (g, h) in &pairs {
                black_box(simulate_two_sort(&circuit, g, h));
            }
        })
    });
    group.finish();

    // The multi-word tier: 4096 pairs per call (64 words per input block).
    let big_pairs: Vec<(ValidString, ValidString)> = (0..4096u64)
        .map(|i| {
            (
                ValidString::from_rank(width, 1000 + 7 * i).expect("in range"),
                ValidString::from_rank(width, 120_000 - 11 * i).expect("in range"),
            )
        })
        .collect();
    let mut group = c.benchmark_group("two_sort16_eval");
    group.throughput(Throughput::Elements(4096));
    group.bench_function("block_4096_lanes", |b| {
        b.iter(|| black_box(simulate_two_sort_block(&circuit, &big_pairs)))
    });
    group.finish();
}

fn bench_exhaustive_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("exhaustive_verify");
    group.sample_size(10);
    for width in [4usize, 6, 8] {
        let circuit = build_two_sort(width, PrefixTopology::LadnerFischer);
        let pairs = {
            let n = ValidString::count(width);
            n * n
        };
        group.throughput(Throughput::Elements(pairs));
        group.bench_with_input(
            BenchmarkId::from_parameter(width),
            &width,
            |b, &w| {
                b.iter(|| verify_two_sort_exhaustive(&circuit, w).expect("sorts"))
            },
        );
    }
    group.finish();
}

fn bench_network_simulation(c: &mut Criterion) {
    let width = 8usize;
    let network = ten_sort_depth();
    let circuit = build_sorting_circuit(&network, width, TwoSortFlavor::Paper);
    let inputs: Vec<ValidString> = (0..10u64)
        .map(|i| ValidString::from_rank(width, 37 * i + 5).expect("in range"))
        .collect();
    let mut group = c.benchmark_group("ten_sort_simulation");
    group.bench_function("10-sortd_8bit_one_vector", |b| {
        b.iter(|| black_box(simulate_sorting_circuit(&circuit, &inputs)))
    });
    group.finish();
}

/// Bare tape eval of the 16×16 stock cell (25,641 gates in 3,528 ops,
/// 636 registers): one `TapePlanes::run` per iteration under the preferred
/// tier, inputs written once, so elem/s is vectors per second of the eval
/// layer alone at each plane width.
fn bench_tape_run(c: &mut Criterion) {
    let engine = Engine::for_cell(16, 16, kernel::preferred()).expect("the stock cell builds");
    let mut group = c.benchmark_group("tape_run_16x16");
    for width in PlaneWidth::ALL {
        let mut scratch = engine.scratch(width);
        let mut planes = engine
            .tape()
            .try_planes(&mut scratch)
            .expect("the engine's own scratch");
        for port in 0..planes.input_count() {
            // Stable 0; eval is branch-free, so the data does not matter.
            let (z, o) = planes.input_mut(port);
            z.fill(!0);
            o.fill(0);
        }
        group.throughput(Throughput::Elements(64 * width.words() as u64));
        group.bench_function(width.to_string(), |b| b.iter(|| planes.run()));
    }
    group.finish();
}

/// Engine set-up under the preferred tier: `Engine::for_cell` (network
/// verify, circuit build, compile, register proof and 0-1 sweep on the
/// tape) on 16×16 and 8×8, and the netlist-level `zero_one_circuit_check`
/// (compile + proof + sweep) of the 16×16 circuit alone.
fn bench_engine_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_setup");
    for (channels, width) in [(16, 16), (8, 8)] {
        group.bench_function(format!("for_cell_{channels}x{width}"), |b| {
            b.iter(|| {
                black_box(Engine::for_cell(channels, width, kernel::preferred()).expect("builds"))
            })
        });
    }
    let circuit = build_sorting_circuit(&cell_network(16), 16, TwoSortFlavor::Paper);
    group.bench_function("zero_one_circuit_check_16x16", |b| {
        b.iter(|| zero_one_circuit_check(&circuit, 16, 16).expect("sorts"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_eval,
    bench_exhaustive_verification,
    bench_network_simulation,
    bench_tape_run,
    bench_engine_setup
);
criterion_main!(benches);
