//! Heap allocations of the serving path, counted by a global allocator.
//!
//! A queued job holds its id and keys inline, workers are woken per plane,
//! planes are swapped out of the queue and their buffers reused, and each
//! connection gets one reply message per run of its lines in a plane, so
//! `serve_lines` allocates per plane, not per request. The tests of this binary take
//! turns measuring, so no other serve's allocations land in a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use mcs_bench::server::{serve_lines, ServerConfig, SortEngine};
use mcs_gray::ValidString;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Deterministic splitmix64.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Serializes the tests: the count is process-wide, so one test's work
/// must not overlap another's measurement.
static MEASURING: Mutex<()> = Mutex::new(());

/// Serves 10,000 seeded requests of 1–8 keys through an 8×8 server under
/// `cfg` on 2 workers, checks the output against the rank-sorted reference
/// and returns the heap allocations per request.
fn allocations_per_request(mut cfg: ServerConfig) -> f64 {
    const REQUESTS: usize = 10_000;
    let _turn = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    cfg.workers = 2;
    let engine = SortEngine::new(cfg).expect("engine builds");

    let mut state = 0x5eed;
    let (mut input, mut want) = (String::new(), String::new());
    for i in 0..REQUESTS {
        let count = 1 + splitmix64(&mut state) as usize % 8;
        let mut keys: Vec<ValidString> = (0..count)
            .map(|_| {
                let rank = splitmix64(&mut state) % ValidString::count(8);
                ValidString::from_rank(8, rank).unwrap()
            })
            .collect();
        input.push_str(&format!("sort r{i}"));
        for k in &keys {
            input.push_str(&format!(" {k}"));
        }
        input.push('\n');
        keys.sort_by_key(ValidString::rank);
        want.push_str(&format!("ok r{i}"));
        for k in &keys {
            want.push_str(&format!(" {k}"));
        }
        want.push('\n');
    }
    let mut out = Vec::with_capacity(input.len());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = serve_lines(&engine, input.as_bytes(), &mut out).expect("serve_lines");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(String::from_utf8(out).unwrap(), want);
    assert_eq!((report.served, report.rejected), (REQUESTS as u64, 0));
    allocations as f64 / REQUESTS as f64
}

/// 10,000 requests cost fewer than 0.1 heap allocations each: no id
/// `String`, key `Vec` or reply `String` per request.
#[test]
fn serving_allocates_per_plane_not_per_request() {
    let mut cfg = ServerConfig::new(8, 8);
    // Every plane leaves full however fast the host is, so the count does
    // not depend on timing.
    cfg.max_linger = Duration::from_secs(3600);
    let per_request = allocations_per_request(cfg);
    assert!(
        per_request < 0.1,
        "{per_request:.3} heap allocations per request"
    );
}

/// One-job planes (`max_batch = 1`), the shape sparse traffic gets: the
/// worker swaps each plane out of the queue and reuses its port tiles, and
/// a reply carries its lines' queue times inline, so a request costs its
/// reply text (1 allocation) and a share of the writer channel's blocks
/// (~0.03). The rest, up to ~0.83, is the first fill of the 4,096-deep
/// queue: the reader runs ahead of the workers and starts each one-job
/// plane fresh (a job buffer and a route buffer) until emptied planes come
/// back as spares (with a 64-deep queue the same serve costs 1.06). That
/// is 1.86 in all, where a text plus an arrival-stamp
/// `Vec` per reply made it 2.04, and a fresh batch, lane list and pair of
/// tile buffers per plane about 6 before that.
#[test]
fn one_job_planes_allocate_only_their_reply() {
    let mut cfg = ServerConfig::new(8, 8);
    cfg.max_batch = 1;
    let per_request = allocations_per_request(cfg);
    assert!(
        per_request < 2.0,
        "{per_request:.3} heap allocations per request"
    );
}
