//! The one counting `#[global_allocator]` of the workspace's tests, and the
//! committed cells of `BENCH_work.json` it is held to. The allocation
//! budgets of `memsim` and `coop-agent` and the recorder that writes
//! `BENCH_work.json` (`crates/bench/tests/bench_work.rs`) include this file;
//! the other crates by `#[path]`. An integration test is a crate of its
//! own, so the libraries' `#![forbid(unsafe_code)]` stands.
//!
//! A run on one thread is counted on that thread alone ([`cost_of`]): the
//! test harness's own threads allocate when they please, and a
//! process-wide count took those in (four calls more on the outage run in
//! about one run in seven, and in most runs with another core busy). A run
//! whose work spans threads it starts — the agent's runner, a runtime's
//! workers — is counted process-wide ([`process_cost_of`]), after a set-up
//! that leaves the harness waiting.

#![allow(dead_code)] // each test that includes this module uses a part of it

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's calls and bytes. Constant-initialized with nothing to
    /// drop, so reading it never allocates.
    static THREAD: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Counts one allocator call of `bytes`, process-wide and on this thread.
fn count(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = THREAD.try_with(|t| t.set((t.get().0 + 1, t.get().1 + bytes as u64)));
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counters touch no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What a run asked of the allocator: allocator calls (allocations and
/// reallocations) and the bytes they requested (a reallocation counts its
/// new size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cost {
    pub calls: u64,
    pub bytes: u64,
}

/// `run`'s result and what it asked of the allocator on this thread.
pub fn cost_of<T>(run: impl FnOnce() -> T) -> (T, Cost) {
    let (calls, bytes) = THREAD.with(Cell::get);
    let out = run();
    let (calls_after, bytes_after) = THREAD.with(Cell::get);
    let cost = Cost {
        calls: calls_after - calls,
        bytes: bytes_after - bytes,
    };
    (out, cost)
}

/// `run`'s result and what every thread of the process asked of the
/// allocator while it ran.
pub fn process_cost_of<T>(run: impl FnOnce() -> T) -> (T, Cost) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let out = run();
    let cost = Cost {
        calls: CALLS.load(Ordering::Relaxed) - calls,
        bytes: BYTES.load(Ordering::Relaxed) - bytes,
    };
    (out, cost)
}

/// The path of `BENCH_work.json`, at the workspace root (every including
/// crate sits at `crates/<name>`).
pub const BENCH_WORK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_work.json");

/// The committed value of `BENCH_work.json`'s cell `name`: what a budget
/// test holds its measurement to.
pub fn committed(name: &str) -> f64 {
    let text = std::fs::read_to_string(BENCH_WORK).expect("BENCH_work.json is committed");
    let file = coop_telemetry::json::parse(&text).expect("BENCH_work.json parses");
    file["cells"][name]
        .as_f64()
        .unwrap_or_else(|| panic!("BENCH_work.json has no cell {name}"))
}
