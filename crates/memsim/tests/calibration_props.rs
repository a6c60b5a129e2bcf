//! Property tests (seeded case runner) of the §III.B calibration procedure: on an ideal
//! (effect-free) machine, the fit recovers the true parameters exactly;
//! with effects, it recovers the *effective* machine the measurements
//! actually exhibit.

use coop_alloc::cases::check;
use memsim::{calibrate_even_scenario, EffectModel, SimApp, SimConfig, Simulation};
use numa_topology::MachineBuilder;
use roofline_numa::ThreadAssignment;

const CASES: usize = 24;

fn run_even_scenario(machine: &numa_topology::Machine, effects: EffectModel) -> (f64, f64) {
    let sim = Simulation::new(SimConfig::new(machine.clone()).with_effects(effects));
    let apps = vec![
        SimApp::numa_local("m1", 1.0 / 32.0),
        SimApp::numa_local("m2", 1.0 / 32.0),
        SimApp::numa_local("m3", 1.0 / 32.0),
        SimApp::numa_local("c", 1.0),
    ];
    let cores = machine.node(numa_topology::NodeId(0)).num_cores();
    let per = cores / 4;
    let assignment = ThreadAssignment::uniform_per_node(machine, &[per, per, per, per]);
    let r = sim.run(&apps, &assignment, 0.02).unwrap();
    let mem_total: f64 = (0..3).map(|a| r.app_gflops(a)).sum();
    (mem_total, r.app_gflops(3))
}

/// Ideal effects: the fit recovers the true peak exactly and the true
/// bandwidth whenever the memory-bound apps saturate the node.
#[test]
fn ideal_calibration_recovers_truth() {
    check(1, CASES, |g| {
        // Preconditions of the paper's fit: the memory-bound apps must
        // saturate the node (or the bandwidth fit is meaningless), and the
        // compute-bound app must be fully satisfiable at the baseline (or
        // the peak fit is polluted) — both hold by construction in the
        // paper's scenario. Draws that miss them are redrawn, not counted.
        let (nodes, cores, peak, bw) = loop {
            let nodes = g.range(2..5usize);
            let cores = 4 * g.range(1..6usize); // so the even split is exact
            let (peak, bw) = (g.range(0.1..2.0), g.range(20.0..200.0));
            let mem_demand = (3 * cores / 4) as f64 * peak * 32.0;
            let comp_demand = (cores / 4) as f64 * peak;
            if mem_demand + comp_demand > bw * 1.05 && peak < bw / cores as f64 * 0.99 {
                break (nodes, cores, peak, bw);
            }
        };
        let machine = MachineBuilder::new()
            .symmetric_nodes(nodes, cores)
            .core_peak_gflops(peak)
            .node_bandwidth_gbs(bw)
            .uniform_link_gbs(10.0)
            .build()
            .unwrap();
        let (mem_total, comp) = run_even_scenario(&machine, EffectModel::ideal());
        let comp_threads = nodes * cores / 4;
        let cal =
            calibrate_even_scenario(&machine, mem_total, 1.0 / 32.0, comp, comp_threads).unwrap();
        assert!(
            (cal.core_peak_gflops - peak).abs() < 1e-9,
            "peak: fit {} vs true {peak}",
            cal.core_peak_gflops
        );
        assert!(
            (cal.node_bandwidth_gbs - bw).abs() < 1e-6 * bw.max(1.0),
            "bandwidth: fit {} vs true {bw}",
            cal.node_bandwidth_gbs
        );
    });
}

/// With lossy effects (jitter off for determinism), the fitted
/// bandwidth is never above the true hardware value, and the fitted
/// peak never above the true per-core peak: calibration sees only
/// what the machine actually delivers.
#[test]
fn lossy_calibration_is_conservative() {
    check(2, CASES, |g| {
        // The memory-bound apps must saturate the node; redraw until they do.
        let (peak, bw) = loop {
            let (peak, bw) = (g.range(0.2..1.0), g.range(60.0..160.0));
            if 15.0 * peak * 32.0 > bw * 1.1 {
                break (peak, bw);
            }
        };
        let machine = MachineBuilder::new()
            .symmetric_nodes(4, 20)
            .core_peak_gflops(peak)
            .node_bandwidth_gbs(bw)
            .uniform_link_gbs(10.0)
            .build()
            .unwrap();
        let mut effects = EffectModel::skylake_like();
        effects.jitter = 0.0;
        let (mem_total, comp) = run_even_scenario(&machine, effects);
        let cal = calibrate_even_scenario(&machine, mem_total, 1.0 / 32.0, comp, 20).unwrap();
        assert!(cal.core_peak_gflops <= peak * (1.0 + 1e-9));
        assert!(cal.node_bandwidth_gbs <= bw * (1.0 + 1e-9));
        // And not absurdly low either: the effects are mild.
        assert!(cal.node_bandwidth_gbs >= bw * 0.7);
        assert!(cal.core_peak_gflops >= peak * 0.9);
    });
}
