//! Allocation budget of the real agent's tick.
//!
//! The workspace's counting `#[global_allocator]` (memsim's
//! `tests/counting/mod.rs`) over the public API, on eight in-memory runtimes
//! under supervision (`work/mod.rs`). A steady tick, quiet or commanding,
//! may not make more allocator calls than its committed `BENCH_work.json`
//! cell, and neither may the tick in which one runtime is evicted and
//! another contained (one command phase: the reclaim and containment
//! commands go out in the same scatter), nor a whole 240-tick life with a
//! kill and a revive, which may not start more threads than its cell
//! either (one runner serves the eight in place).
//!
//! At commit 0eba4bc a tick looked `scheduler_locality(registry, name)` up
//! for every tenant (36 allocations each: five keys of a name, a label
//! vector and its strings) and cloned the handle names it passed on:
//! **374** allocations a quiet tick, **504** a commanding one. With the five
//! counters kept per handle and the names borrowed the same two ticks make
//! **78** and **199**, and repeat to the allocation.

#[path = "../../memsim/tests/counting/mod.rs"]
mod counting;
mod work;

/// One test, so that no other thread of this binary allocates while a run
/// is counted.
#[test]
fn steady_state_tick_stays_within_its_allocation_budget() {
    for commanding in [false, true] {
        let (name, calls) = work::agent_tick(commanding);
        println!("{name}: {calls:.1}");
        let budget = counting::committed(&name);
        assert!(
            calls <= budget,
            "{name}: a tick over eight runtimes made {calls:.1} allocator calls (committed {budget})"
        );
    }
    let (name, calls) = work::agent_chaos_tick();
    println!("{name}: {calls:.1}");
    let budget = counting::committed(&name);
    assert!(
        calls <= budget,
        "{name}: the tick of an eviction and a containment made {calls:.1} allocator calls (committed {budget})"
    );
    for (name, measured) in work::agent_episode() {
        println!("{name}: {measured:.1}");
        let budget = counting::committed(&name);
        assert!(
            measured <= budget,
            "{name}: an agent's life measured {measured:.1} (committed {budget})"
        );
    }
}
