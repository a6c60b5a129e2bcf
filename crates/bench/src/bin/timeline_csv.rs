//! Dumps per-application GFLOPS time series as CSV for external plotting —
//! e.g. the library-burst scenario's resource shifts over time.
//!
//! The simulation runs with a telemetry hub attached, so each row also
//! carries the per-node bandwidth utilization sampled by the memory
//! controllers, and the `switch_t_s` column marks the reallocation
//! (assignment-switch) timestamps that fell inside the sample window.
//!
//! Each row additionally carries model-drift columns: the analytic model's
//! predicted bandwidth for the node under the assignment active in the
//! sample window, the relative residual of the measured sample against it,
//! and whether the residual stream's CUSUM detector is alarming in this
//! window (`node<N>_pred_gbs`, `node<N>_residual`, `node<N>_alarm`).
//!
//! Usage: `cargo run -p coop-bench --bin timeline_csv > series.csv`

use coop_telemetry::{ArgValue, DriftDetector, EventKind, TelemetryHub};
use memsim::{ActivityPattern, EffectModel, SimApp, SimConfig, Simulation};
use numa_topology::presets::dual_socket;
use roofline_numa::{solve, AppSpec, ThreadAssignment};
use std::sync::Arc;

fn main() {
    let machine = dual_socket();
    let hub = Arc::new(TelemetryHub::new());
    let sim = Simulation::new(
        SimConfig::new(machine.clone())
            .with_effects(EffectModel::ideal())
            .with_quantum(1e-3),
    )
    .with_telemetry(Arc::clone(&hub));
    let apps = vec![
        SimApp::numa_local("main", 8.0),
        SimApp::numa_local("library", 8.0).with_activity(ActivityPattern::Bursts {
            period_s: 0.2,
            duty: 0.3,
            phase_s: 0.0,
        }),
    ];
    // Burst-shifting schedule, like the library_burst experiment.
    let burst = ThreadAssignment::from_matrix(vec![vec![1, 1], vec![15, 15]]);
    let idle = ThreadAssignment::from_matrix(vec![vec![16, 16], vec![0, 0]]);
    let mut schedule = Vec::new();
    let mut t = 0.0;
    while t < 1.0 {
        schedule.push((t, burst.clone()));
        schedule.push((t + 0.06, idle.clone()));
        t += 0.2;
    }
    let r = sim.run_dynamic(&apps, &schedule, 1.0).unwrap();

    // Pull the per-node bandwidth samples and reallocation timestamps back
    // off the hub. Bandwidth counters arrive one per node per sample
    // window, in time order, so grouping by lane aligns them with the
    // GFLOPS series.
    let num_nodes = machine.num_nodes();
    let mut node_util: Vec<Vec<f64>> = vec![Vec::new(); num_nodes];
    let mut node_gbs: Vec<Vec<f64>> = vec![Vec::new(); num_nodes];
    let mut switches: Vec<f64> = Vec::new();
    for e in hub.events() {
        match &e.kind {
            EventKind::Counter { value } if e.cat == "bandwidth" => {
                if let Some((_, ArgValue::F64(u))) = e.args.iter().find(|(k, _)| k == "utilization")
                {
                    node_util[(e.lane - 1) as usize].push(*u);
                    node_gbs[(e.lane - 1) as usize].push(*value);
                }
            }
            EventKind::Instant if e.cat == "scheduler" => {
                if let Some((_, ArgValue::F64(t))) = e.args.iter().find(|(k, _)| k == "t_s") {
                    switches.push(*t);
                }
            }
            _ => {}
        }
    }

    // Model predictions per schedule segment: the node bandwidth the
    // roofline model expects under each assignment. The activity pattern
    // is invisible to the model (it predicts the library app computing at
    // full duty), which is exactly what makes the residual stream
    // interesting: it goes negative whenever the library is idle.
    let specs: Vec<AppSpec> = apps.iter().map(|a| a.spec.clone()).collect();
    let predicted: Vec<Vec<f64>> = schedule
        .iter()
        .map(|(_, a)| {
            solve(&machine, &specs, a)
                .map(|rep| rep.node_bandwidths_gbs())
                .unwrap_or_else(|_| vec![0.0; num_nodes])
        })
        .collect();
    let segment_at = |t: f64| -> usize {
        schedule
            .iter()
            .rposition(|(start, _)| *start <= t)
            .unwrap_or_default()
    };
    let detector = DriftDetector::default();

    let mut header = String::from("time_s,main_gflops,library_gflops");
    for n in 0..num_nodes {
        header.push_str(&format!(",node{n}_util"));
    }
    for n in 0..num_nodes {
        header.push_str(&format!(",node{n}_pred_gbs,node{n}_residual,node{n}_alarm"));
    }
    header.push_str(",switch_t_s");
    println!("{header}");

    let mut prev = 0.0f64;
    for (i, &time) in r.times_s.iter().enumerate() {
        let mut row = format!(
            "{:.4},{:.2},{:.2}",
            time, r.apps[0].gflops_series[i], r.apps[1].gflops_series[i]
        );
        for util in &node_util {
            row.push_str(&format!(",{:.4}", util.get(i).copied().unwrap_or(0.0)));
        }
        let seg = segment_at(time);
        for n in 0..num_nodes {
            let pred = predicted[seg][n];
            let meas = node_gbs[n].get(i).copied().unwrap_or(0.0);
            let residual = DriftDetector::relative_residual(pred, meas);
            let alarm = detector
                .observe(&format!("node/{n}/bandwidth_gbs"), residual)
                .is_some();
            row.push_str(&format!(
                ",{:.3},{:.4},{}",
                pred,
                residual,
                if alarm { 1 } else { 0 }
            ));
        }
        // Reallocation decisions that landed inside this sample window.
        let in_window: Vec<String> = switches
            .iter()
            .filter(|&&s| s > prev && s <= time)
            .map(|s| format!("{s:.4}"))
            .collect();
        row.push(',');
        row.push_str(&in_window.join(";"));
        println!("{row}");
        prev = time;
    }
}
