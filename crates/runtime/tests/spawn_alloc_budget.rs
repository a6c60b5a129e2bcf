//! Allocation budget of a `live_squeeze` round.
//!
//! The workspace's counting `#[global_allocator]` (memsim's
//! `tests/counting/mod.rs`) over the public API, on the benchmark's gated
//! DAG (`work/mod.rs`): spawning it, and running it from the opened gate to
//! quiescence, may not make more allocator calls (or spawning ask for more
//! bytes) per task than the committed `BENCH_work.json` cells.
//!
//! At commit 3c11a9f a spawned task made 4.306 allocator calls: its name,
//! its dependency vector, its body, a shared pending-task record, and the
//! growth of an event map's subscriber lists. With waiting tasks kept in
//! their event, names and a first dependency inline, it makes 1.306: the
//! body, the finish and latch events, and the growth of the waiter lists.

#[path = "../../memsim/tests/counting/mod.rs"]
mod counting;
mod work;

/// One test, so that no other thread of this binary allocates while a run
/// is counted.
#[test]
fn live_squeeze_round_stays_within_its_allocation_budget() {
    for (name, measured) in work::live_squeeze() {
        println!("{name}: {measured}");
        let budget = counting::committed(&name);
        assert!(
            measured <= budget,
            "{name}: {measured} per task (committed {budget})"
        );
    }
}
