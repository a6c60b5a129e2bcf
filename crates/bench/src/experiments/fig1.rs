//! Figure 1: the agent-coordinated producer-consumer pipeline.
//!
//! Reproduces the SBAC-PAD'18 experiment the paper builds on: two
//! task-based runtimes run a producer-consumer pipeline; a dedicated agent
//! polls their counters and throttles the producer's thread count so it
//! stays only a few iterations ahead. The paper's findings, which this
//! experiment regenerates:
//!
//! * throughput changes only marginally (a few percent either way —
//!   "in most cases, the Linux operating system can do a very good job"),
//! * but the intermediate-data footprint (queue depth) drops sharply —
//!   "we have observed a clear benefit on storage thanks to the reduced
//!   size of intermediate data".

use coop_agent::{policies::ProducerConsumerThrottle, Agent};
use coop_runtime::{Runtime, RuntimeConfig};
use coop_workloads::pipeline::{run_pipeline, PipelineConfig, PipelineReport};
use numa_topology::Machine;
use std::sync::Arc;
use std::time::Duration;

/// Outcome of the controlled-vs-uncontrolled comparison.
#[derive(Debug)]
pub struct Fig1Result {
    /// Pipeline without any agent (producer free-runs).
    pub uncontrolled: PipelineReport,
    /// Pipeline with the agent throttling the producer.
    pub controlled: PipelineReport,
    /// Commands the agent issued.
    pub agent_decisions: usize,
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Fig1Config {
    /// Machine both runtimes believe they run on.
    pub machine: Machine,
    /// Pipeline shape.
    pub pipeline: PipelineConfig,
    /// Queue-depth watermarks for the throttle policy.
    pub low_watermark: u64,
    /// Upper watermark (the "small number of iterations" the producer may
    /// lead by).
    pub high_watermark: u64,
    /// Agent tick interval.
    pub tick: Duration,
}

impl Fig1Config {
    /// Defaults sized so the experiment runs in about a second.
    pub fn new(machine: Machine) -> Self {
        Fig1Config {
            machine,
            pipeline: PipelineConfig {
                iterations: 60,
                tasks_per_iteration: 6,
                work_per_task: 150_000,
                item_bytes: 1 << 16,
                // Consumer tasks are 3x heavier: the producer runs ahead
                // unless something throttles it.
                consumer_work_factor: 3.0,
                sample_interval: Duration::from_micros(300),
            },
            low_watermark: 1,
            high_watermark: 2,
            tick: Duration::from_micros(500),
        }
    }
}

fn run_once(config: &Fig1Config, with_agent: bool) -> (PipelineReport, usize) {
    let producer = Arc::new(
        Runtime::start(RuntimeConfig::new("producer", config.machine.clone()))
            .expect("runtime starts"),
    );
    let consumer = Arc::new(
        Runtime::start(RuntimeConfig::new("consumer", config.machine.clone()))
            .expect("runtime starts"),
    );

    let agent_handle = with_agent.then(|| {
        let mut agent = Agent::new(Box::new(ProducerConsumerThrottle::new(
            0,
            1,
            config.low_watermark,
            config.high_watermark,
            1,
            config.machine.total_cores(),
        )));
        agent.manage(Box::new(Arc::clone(&producer)));
        agent.manage(Box::new(Arc::clone(&consumer)));
        agent.spawn(config.tick).expect("agent thread starts")
    });

    let report = run_pipeline(&producer, &consumer, &config.pipeline);
    let decisions = agent_handle.map(|h| h.stop().decisions.len()).unwrap_or(0);
    producer.shutdown();
    consumer.shutdown();
    (report, decisions)
}

/// Runs the comparison: uncontrolled, then agent-controlled.
pub fn run(config: &Fig1Config) -> Fig1Result {
    let (uncontrolled, _) = run_once(config, false);
    let (controlled, agent_decisions) = run_once(config, true);
    Fig1Result {
        uncontrolled,
        controlled,
        agent_decisions,
    }
}

impl std::fmt::Display for Fig1Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<14} {:>10} {:>10} {:>10} {:>12} {:>14}",
            "variant", "items", "items/s", "max lead", "mean lead", "peak interm."
        )?;
        for (label, r) in [
            ("uncontrolled", &self.uncontrolled),
            ("agent", &self.controlled),
        ] {
            writeln!(
                f,
                "{:<14} {:>10} {:>10.1} {:>10} {:>12.2} {:>12} KiB",
                label,
                r.consumed,
                r.throughput,
                r.max_lead,
                r.mean_lead,
                r.peak_intermediate_bytes / 1024
            )?;
        }
        writeln!(f, "agent decisions: {}", self.agent_decisions)?;
        writeln!(
            f,
            "throughput ratio (agent/uncontrolled): {:.3}  |  mean-lead ratio: {:.3}",
            self.controlled.throughput / self.uncontrolled.throughput,
            self.controlled.mean_lead / self.uncontrolled.mean_lead.max(1e-9),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets::tiny;

    fn fast_config() -> Fig1Config {
        let mut c = Fig1Config::new(tiny());
        // Half the iterations, full-weight tasks: with lighter tasks the
        // producer is done before a 500 us agent tick can land on a busy
        // 2-CPU host, and about one run in twenty misses the bound below.
        c.pipeline.iterations = 30;
        c
    }

    #[test]
    fn agent_bounds_the_lead_without_losing_items() {
        let r = run(&fast_config());
        assert_eq!(r.controlled.consumed, 30);
        assert_eq!(r.uncontrolled.consumed, 30);
        // The throttled producer's backlog must be clearly smaller than the
        // free-running one's (allow generous slack: CI machines are noisy).
        assert!(
            r.controlled.mean_lead <= r.uncontrolled.mean_lead * 0.8 + 1.0,
            "agent should shrink the backlog: {} vs {}",
            r.controlled.mean_lead,
            r.uncontrolled.mean_lead
        );
        // ...and the agent actually did something.
        assert!(r.agent_decisions > 0, "agent never issued a command");
    }

    #[test]
    fn uncontrolled_builds_backlog_with_slow_consumer() {
        let (report, _) = run_once(&fast_config(), false);
        assert!(
            report.max_lead >= 2,
            "3x-heavier consumer should let the queue grow: {}",
            report.max_lead
        );
    }
}
