//! The tenant ledger and the model observatory keep the handles of the
//! series they publish instead of looking them up every tick. These tests
//! pin what they export: the same series, created on the same occasions,
//! holding the same values as a lookup per tick. Public API and std only,
//! so they also run where the crate's unit tests (which parse JSON) cannot
//! be built.

use coop_telemetry::{
    ModelObservatory, Prediction, SeriesValue, TelemetryHub, TenantLedger, TenantSample,
};
use std::sync::Arc;

fn tenant(
    name: &str,
    tasks: u64,
    uptime_us: u64,
    running: &[u64],
    preemptions: u64,
) -> TenantSample {
    TenantSample {
        tenant: name.to_string(),
        tasks_executed: tasks,
        uptime_us,
        per_node_tasks: running.iter().map(|r| tasks * r / 4).collect(),
        running_per_node: running.to_vec(),
        local_pops: tasks - tasks / 10,
        remote_steals: tasks / 10,
        preemptions,
        overbudget_cpu_us: preemptions * 500,
    }
}

/// Three ticks that between them touch every `coop_tenant_*` series: "a"
/// gains a third node in the last one, "b" is preempted, then restarts (a
/// discarded window).
fn three_ticks(ledger: &TenantLedger, hub: &TelemetryHub) {
    ledger.open_epoch(hub, "a", "managed", 0);
    ledger.open_epoch(hub, "b", "managed", 0);
    ledger.tick(
        hub,
        10,
        &[
            tenant("a", 100, 1000, &[1, 1], 0),
            tenant("b", 50, 1000, &[1, 0], 2),
        ],
    );
    ledger.set_entitlement("a", 0.5);
    ledger.tick(
        hub,
        20,
        &[
            tenant("a", 300, 2000, &[1, 1], 0),
            tenant("b", 100, 2000, &[1, 0], 3),
        ],
    );
    ledger.tick(
        hub,
        30,
        &[
            tenant("a", 450, 3000, &[1, 1, 2], 0),
            tenant("b", 5, 100, &[1, 0], 0),
        ],
    );
}

#[test]
fn kept_series_export_what_a_lookup_per_tick_exported() {
    // The text below is what this sequence exported when every tick looked
    // every series up by name: the kept handles must create the same series
    // (none early, none missing — "a"'s node 2 only once it has one, "b"'s
    // discard counter only once it restarts) and leave the same values.
    const EXPORTED: &str = concat!(
        "# TYPE coop_tenant_cpu_us_total counter\n",
        "coop_tenant_cpu_us_total{node=\"0\",tenant=\"a\"} 3000\n",
        "coop_tenant_cpu_us_total{node=\"0\",tenant=\"b\"} 2000\n",
        "coop_tenant_cpu_us_total{node=\"1\",tenant=\"a\"} 3000\n",
        "coop_tenant_cpu_us_total{node=\"2\",tenant=\"a\"} 2000\n",
        "# TYPE coop_tenant_overbudget_cpu_us_total counter\n",
        "coop_tenant_overbudget_cpu_us_total{tenant=\"b\"} 1500\n",
        "# TYPE coop_tenant_preemptions_total counter\n",
        "coop_tenant_preemptions_total{tenant=\"b\"} 3\n",
        "# TYPE coop_tenant_tasks_total counter\n",
        "coop_tenant_tasks_total{tenant=\"a\"} 450\n",
        "coop_tenant_tasks_total{tenant=\"b\"} 100\n",
        "# TYPE coop_tenant_windows_discarded_total counter\n",
        "coop_tenant_windows_discarded_total{tenant=\"b\"} 1\n",
        "# TYPE coop_tenant_delivered_share gauge\n",
        "coop_tenant_delivered_share{tenant=\"a\"} 1.0\n",
        "coop_tenant_delivered_share{tenant=\"b\"} 0.2\n",
        "# TYPE coop_tenant_entitled_share gauge\n",
        "coop_tenant_entitled_share{tenant=\"a\"} 0.5\n",
        "# TYPE coop_tenant_jain_index gauge\n",
        "coop_tenant_jain_index 0.6923076923076923\n",
        "# TYPE coop_tenant_locality_ratio gauge\n",
        "coop_tenant_locality_ratio{tenant=\"a\"} 0.9\n",
        "coop_tenant_locality_ratio{tenant=\"b\"} 0.9\n",
        "# TYPE coop_tenant_preemption_rate gauge\n",
        "coop_tenant_preemption_rate{tenant=\"a\"} 0.0\n",
        "coop_tenant_preemption_rate{tenant=\"b\"} 1000.0\n",
    );
    let hub = TelemetryHub::new();
    let ledger = TenantLedger::new();
    three_ticks(&ledger, &hub);
    assert_eq!(hub.registry().to_prometheus(), EXPORTED);
}

#[test]
fn ledger_handed_another_hub_publishes_there() {
    let first = TelemetryHub::new();
    let ledger = TenantLedger::new();
    three_ticks(&ledger, &first);
    let tasks_of = |hub: &TelemetryHub| {
        hub.registry()
            .counter("coop_tenant_tasks_total", &[("tenant", "a")])
            .get()
    };
    assert_eq!(tasks_of(&first), 450);

    // The handles kept from `first` must not swallow this tick.
    let second = TelemetryHub::new();
    ledger.tick(&second, 40, &[tenant("a", 500, 4000, &[1, 1, 2], 0)]);
    assert_eq!(tasks_of(&first), 450);
    assert_eq!(tasks_of(&second), 50);
    assert_eq!(
        second
            .registry()
            .gauge_value("coop_tenant_delivered_share", &[("tenant", "a")]),
        Some(1.0)
    );
}

#[test]
fn observatory_exports_what_a_lookup_per_residual_exported() {
    // What this sequence exported when every residual looked its gauge, the
    // histogram and (on an alarm) its counter up by name. "node/0" runs 40 %
    // low and alarms three times; "app/a" is exact and must get a gauge but no
    // alarm counter; "app/late" is first predicted in the last two ticks.
    const EXPORTED: &str = concat!(
        "# HELP coop_model_drift_alarms CUSUM drift alarms raised per series\n",
        "# TYPE coop_model_drift_alarms counter\n",
        "coop_model_drift_alarms{series=\"node/0/bandwidth_gbs\"} 3\n",
        "# HELP coop_model_residual Latest relative prediction residual (measured-predicted)/|predicted| per series\n",
        "# TYPE coop_model_residual gauge\n",
        "coop_model_residual{series=\"app/a/gflops\"} 0.0\n",
        "coop_model_residual{series=\"app/late/gflops\"} 0.25\n",
        "coop_model_residual{series=\"node/0/bandwidth_gbs\"} -0.4\n",
        "# HELP coop_model_residual_abs_pct Absolute relative prediction residual in percent\n",
        "# TYPE coop_model_residual_abs_pct histogram\n",
        "coop_model_residual_abs_pct_bucket{le=\"1\"} 8\n",
        "coop_model_residual_abs_pct_bucket{le=\"32\"} 10\n",
        "coop_model_residual_abs_pct_bucket{le=\"64\"} 18\n",
        "coop_model_residual_abs_pct_bucket{le=\"+Inf\"} 18\n",
        "coop_model_residual_abs_pct_sum 370\n",
        "coop_model_residual_abs_pct_count 18\n",
        "# TYPE coop_model_residual_abs_pct_quantile gauge\n",
        "coop_model_residual_abs_pct_quantile{quantile=\"0.5\"} 24.0\n",
        "coop_model_residual_abs_pct_quantile{quantile=\"0.9\"} 56.8\n",
        "coop_model_residual_abs_pct_quantile{quantile=\"0.99\"} 63.28\n",
    );
    let hub = Arc::new(TelemetryHub::new());
    let observatory = ModelObservatory::new(Arc::clone(&hub));
    for tick in 0..8u64 {
        let mut prediction = Prediction {
            inputs: Vec::new(),
            assignment: "a:[2,0]".into(),
            series: vec![
                SeriesValue::new("app/a/gflops", 10.0),
                SeriesValue::new("node/0/bandwidth_gbs", 20.0),
            ],
        };
        let mut measured = vec![
            SeriesValue::new("app/a/gflops", 10.0),
            SeriesValue::new("node/0/bandwidth_gbs", 12.0),
        ];
        if tick >= 6 {
            prediction
                .series
                .push(SeriesValue::new("app/late/gflops", 4.0));
            measured.push(SeriesValue::new("app/late/gflops", 5.0));
        }
        let id = observatory.open_decision_at(tick, "test", "assign", prediction, tick * 10);
        observatory.close_decision_at(id, measured, tick * 10 + 5);
    }
    assert_eq!(observatory.detector().total_alarms(), 3);
    assert_eq!(hub.registry().to_prometheus(), EXPORTED);
}
