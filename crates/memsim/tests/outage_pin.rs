//! The outage run of `chaos_alloc_budget.rs`'s 256 × 16 fleet, pinned bit
//! for bit with reclamation on and off: its total GFLOPS and an FNV-1a hash
//! of the 33 segment assignments it executed, both taken at 83bcc1a (when
//! `fair_share` still branched once per cell and each segment was copied
//! out of it). The reclaim-on pair was taken again when `fair_share`
//! began carrying its hand-out of left-over cores across nodes: every
//! survivor of a reclaim now holds a thread, and the 288 cores go to
//! other tenants (reclaim off runs the striped rows alone and kept its
//! pins). The run now writes each segment as its survivors' cells; the
//! hash reads the matrices `ChaosResult::schedule` writes out of them.
//! And `Scenario::validate`'s shape errors, one per way a matrix can be
//! misshapen, as they were reported when the check cloned the matrix into
//! a `ThreadAssignment`.

mod fleets;

use memsim::{
    run_chaos_scenario_on, EffectModel, EngineKind, NamedAssignment, Scenario, SimApp, SimError,
};
use numa_topology::presets::tiny;
use roofline_numa::{ModelError, ThreadAssignment};

/// FNV-1a over each segment's start time and its cells, row by row.
fn schedule_hash(schedule: &[(f64, ThreadAssignment)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = schedule.iter().flat_map(|(t, a)| {
        [t.to_bits(), a.num_apps() as u64, a.num_nodes() as u64]
            .into_iter()
            .chain(a.as_slice().iter().map(|&c| c as u64))
    });
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn the_outage_run_is_pinned_bit_for_bit() {
    let scenario = fleets::outage_fleet();
    for (reclaim, gflops_bits, hash) in [
        (true, 0x4084_9fff_ffff_fffc, 0x6918_6c7c_cd7c_a5a8),
        (false, 0x4084_a000_0000_0001, 0xb724_0793_9e70_30a8),
    ] {
        let plan = fleets::waves().with_reclaim(reclaim);
        let out = run_chaos_scenario_on(&scenario, &plan, None, EngineKind::Event).unwrap();
        assert_eq!(out.segments.len(), 2 * fleets::WAVES + 1);
        let schedule = out.schedule(&scenario);
        assert_eq!(schedule.len(), out.segments.len());
        let total = out.result.total_gflops();
        let got = schedule_hash(&schedule);
        println!(
            "reclaim {reclaim}: total {total} ({:#x}), schedule hash {got:#x}",
            total.to_bits()
        );
        assert_eq!(
            total.to_bits(),
            gflops_bits,
            "reclaim {reclaim}: total {total}"
        );
        assert_eq!(got, hash, "reclaim {reclaim}: schedule hash");
    }
}

fn two_app_scenario(threads: Vec<Vec<usize>>) -> Scenario {
    Scenario {
        name: "shape".into(),
        machine: tiny(),
        apps: vec![
            SimApp::numa_local("a", 1.0 / 32.0),
            SimApp::numa_local("b", 1.0),
        ],
        assignments: vec![
            NamedAssignment {
                name: "good".into(),
                threads: vec![vec![1, 1], vec![1, 1]],
            },
            NamedAssignment {
                name: "bad".into(),
                threads,
            },
        ],
        duration_s: 0.1,
        effects: EffectModel::ideal(),
        seed: 7,
    }
}

#[test]
fn scenario_validate_reports_the_parents_shape_errors() {
    for (threads, want) in [
        (
            vec![vec![1, 1]; 3],
            ModelError::AppCountMismatch {
                specs: 2,
                assignment: 3,
            },
        ),
        (
            vec![vec![1]; 1],
            ModelError::AppCountMismatch {
                specs: 2,
                assignment: 1,
            },
        ),
        (
            vec![vec![1, 1, 1]; 2],
            ModelError::AssignmentShape {
                app: 0,
                expected: 2,
                actual: 3,
            },
        ),
        (
            vec![vec![1, 1], vec![1]],
            ModelError::AssignmentShape {
                app: 1,
                expected: 2,
                actual: 1,
            },
        ),
        (
            vec![vec![1], vec![1, 1, 1]],
            ModelError::AssignmentShape {
                app: 0,
                expected: 2,
                actual: 1,
            },
        ),
    ] {
        let got = two_app_scenario(threads.clone()).validate();
        assert_eq!(got, Err(SimError::Model(want)), "{threads:?}");
    }
    assert_eq!(
        two_app_scenario(vec![vec![0, 1], vec![2, 0]]).validate(),
        Ok(())
    );
}
