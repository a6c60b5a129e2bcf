//! The producer-consumer pipeline of Figure 1 / the authors' SBAC-PAD'18
//! experiment.
//!
//! "We used a simple producer-consumer scenario, where one application
//! produces one data item per iteration and another application consumes
//! one such item per iteration. Each iteration consists internally of
//! multiple tasks that can be executed in parallel. We have used a
//! dedicated agent process to coordinate their execution ... so that the
//! producer is only ahead by a small number of iterations."
//!
//! [`run_pipeline`] runs exactly that on two [`coop_runtime::Runtime`]s:
//! each producer iteration fans out `tasks_per_iteration` parallel tasks,
//! joins them with a latch, and deposits one item (a data block's worth of
//! bytes) into a shared intermediate queue; the consumer mirrors this. The
//! per-application driver threads are deliberately *non-worker* threads
//! (the paper's §IV: the "main thread" pattern of TBB-style codes).
//!
//! The report includes the queue-depth ("lead") time series — the quantity
//! the paper's storage-size observation is about — so callers (and the
//! `fig1_pipeline` bench) can compare uncontrolled execution against
//! agent-throttled execution.

use crate::kernels::spin_work;
use coop_runtime::Runtime;
use coop_telemetry::sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Number of items the producer creates (and the consumer consumes).
    pub iterations: usize,
    /// Parallel tasks per iteration, each doing `work_per_task` FMA steps.
    pub tasks_per_iteration: usize,
    /// FMA steps per task (controls task duration deterministically).
    pub work_per_task: usize,
    /// Size of each produced item in bytes (intermediate-data footprint).
    pub item_bytes: usize,
    /// Extra FMA steps per consumer task relative to producer tasks —
    /// > 1.0 makes the consumer slower, letting the queue grow (the
    /// > regime where the paper's agent helps).
    pub consumer_work_factor: f64,
    /// Queue-depth sampling interval.
    pub sample_interval: Duration,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            iterations: 50,
            tasks_per_iteration: 8,
            work_per_task: 20_000,
            item_bytes: 1 << 16,
            consumer_work_factor: 1.0,
            sample_interval: Duration::from_micros(500),
        }
    }
}

/// Outcome of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Items produced.
    pub produced: u64,
    /// Items consumed.
    pub consumed: u64,
    /// Wall-clock duration of the whole pipeline.
    pub duration: Duration,
    /// Items per second consumed (end-to-end throughput).
    pub throughput: f64,
    /// Sampled intermediate-queue depths.
    pub lead_series: Vec<usize>,
    /// Maximum observed queue depth.
    pub max_lead: usize,
    /// Mean observed queue depth (the intermediate-data footprint proxy).
    pub mean_lead: f64,
    /// Peak intermediate data held in the queue, bytes.
    pub peak_intermediate_bytes: usize,
}

struct Queue {
    items: Mutex<Vec<Vec<u8>>>,
    cv: Condvar,
}

impl Queue {
    fn push(&self, item: Vec<u8>) {
        self.items.lock().push(item);
        self.cv.notify_all();
    }

    fn pop_blocking(&self, stop: &AtomicBool) -> Option<Vec<u8>> {
        let mut items = self.items.lock();
        loop {
            if let Some(item) = items.pop() {
                return Some(item);
            }
            if stop.load(Ordering::Acquire) {
                return None;
            }
            self.cv.wait_for(&mut items, Duration::from_millis(1));
        }
    }

    fn len(&self) -> usize {
        self.items.lock().len()
    }
}

/// Runs the producer-consumer pipeline on the two runtimes and reports
/// throughput and queue-depth statistics. The runtimes' `produced` /
/// `consumed` user counters are updated live, so an agent polling
/// [`Runtime::stats`] can throttle the producer while this runs.
pub fn run_pipeline(
    producer: &Runtime,
    consumer: &Runtime,
    config: &PipelineConfig,
) -> PipelineReport {
    let queue = Arc::new(Queue {
        items: Mutex::new(Vec::new()),
        cv: Condvar::new(),
    });
    let producer_done = Arc::new(AtomicBool::new(false));
    let start = Instant::now();

    // Queue-depth sampler (a non-worker observer thread).
    let sampler_stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let queue = Arc::clone(&queue);
        let stop = Arc::clone(&sampler_stop);
        let interval = config.sample_interval;
        std::thread::spawn(move || {
            let mut series = Vec::new();
            while !stop.load(Ordering::Acquire) {
                series.push(queue.len());
                std::thread::sleep(interval);
            }
            series
        })
    };

    std::thread::scope(|scope| {
        // Producer driver: a non-worker "main thread" per §IV.
        scope.spawn(|| {
            for _ in 0..config.iterations {
                let latch = producer.new_latch_event(config.tasks_per_iteration as u64);
                for t in 0..config.tasks_per_iteration {
                    let latch = latch.clone();
                    let work = config.work_per_task;
                    producer
                        .task(&format!("produce-part{t}"))
                        .body(move |ctx| {
                            spin_work(work);
                            ctx.satisfy(&latch);
                        })
                        .spawn()
                        .expect("producer runtime alive");
                }
                // Finalizer deposits the item once all parts are done.
                let (_, finish) = {
                    let queue = Arc::clone(&queue);
                    let bytes = config.item_bytes;
                    producer
                        .task("produce-finalize")
                        .depends_on(&latch)
                        .body(move |ctx| {
                            queue.push(vec![0u8; bytes]);
                            ctx.inc_counter("produced", 1);
                        })
                        .spawn_with_finish()
                        .expect("producer runtime alive")
                };
                // The driver paces itself on iteration completion (the
                // paper's producer produces one item per iteration).
                while !finish.is_satisfied() {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            producer_done.store(true, Ordering::Release);
            queue.cv.notify_all();
        });

        // Consumer driver.
        scope.spawn(|| {
            let consumer_work =
                (config.work_per_task as f64 * config.consumer_work_factor) as usize;
            for _ in 0..config.iterations {
                let Some(item) = queue.pop_blocking(&producer_done) else {
                    break;
                };
                let latch = consumer.new_latch_event(config.tasks_per_iteration as u64);
                let item = Arc::new(item);
                for t in 0..config.tasks_per_iteration {
                    let latch = latch.clone();
                    let item = Arc::clone(&item);
                    consumer
                        .task(&format!("consume-part{t}"))
                        .body(move |ctx| {
                            // Touch the item (checksum) then compute.
                            let sum: u64 = item.iter().map(|&b| b as u64).sum();
                            std::hint::black_box(sum);
                            spin_work(consumer_work);
                            ctx.satisfy(&latch);
                        })
                        .spawn()
                        .expect("consumer runtime alive");
                }
                let (_, finish) = consumer
                    .task("consume-finalize")
                    .depends_on(&latch)
                    .body(move |ctx| {
                        ctx.inc_counter("consumed", 1);
                    })
                    .spawn_with_finish()
                    .expect("consumer runtime alive");
                while !finish.is_satisfied() {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        });
    });

    sampler_stop.store(true, Ordering::Release);
    let lead_series = sampler.join().expect("sampler thread");
    let duration = start.elapsed();

    let produced = producer.stats().user_counter("produced");
    let consumed = consumer.stats().user_counter("consumed");
    let max_lead = lead_series.iter().copied().max().unwrap_or(0);
    let mean_lead = if lead_series.is_empty() {
        0.0
    } else {
        lead_series.iter().sum::<usize>() as f64 / lead_series.len() as f64
    };
    PipelineReport {
        produced,
        consumed,
        duration,
        throughput: consumed as f64 / duration.as_secs_f64(),
        max_lead,
        mean_lead,
        peak_intermediate_bytes: max_lead * config.item_bytes,
        lead_series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coop_runtime::{RuntimeConfig, ThreadCommand};
    use numa_topology::presets::tiny;

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            iterations: 12,
            tasks_per_iteration: 4,
            work_per_task: 2_000,
            item_bytes: 1 << 10,
            consumer_work_factor: 1.0,
            sample_interval: Duration::from_micros(200),
        }
    }

    #[test]
    fn pipeline_completes_all_items() {
        let producer = Runtime::start(RuntimeConfig::new("prod", tiny())).unwrap();
        let consumer = Runtime::start(RuntimeConfig::new("cons", tiny())).unwrap();
        let report = run_pipeline(&producer, &consumer, &small_config());
        assert_eq!(report.produced, 12);
        assert_eq!(report.consumed, 12);
        assert!(report.throughput > 0.0);
        // Workers publish completions in batches, after a task's finish
        // event is satisfied: wait for them before counting.
        producer.wait_quiescent().unwrap();
        consumer.wait_quiescent().unwrap();
        assert_eq!(producer.stats().tasks_executed, 12 * 5);
        assert_eq!(consumer.stats().tasks_executed, 12 * 5);
        producer.shutdown();
        consumer.shutdown();
    }

    #[test]
    fn slow_consumer_grows_the_queue() {
        let producer = Runtime::start(RuntimeConfig::new("prod", tiny())).unwrap();
        let consumer = Runtime::start(RuntimeConfig::new("cons", tiny())).unwrap();
        // Throttle the consumer's runtime to one thread and make its tasks
        // heavier: the intermediate queue must build up.
        consumer
            .control()
            .apply(ThreadCommand::TotalThreads(1))
            .unwrap();
        let mut cfg = small_config();
        cfg.consumer_work_factor = 4.0;
        cfg.iterations = 16;
        let report = run_pipeline(&producer, &consumer, &cfg);
        assert_eq!(report.consumed, 16);
        assert!(
            report.max_lead >= 2,
            "slow consumer should let the queue grow, max_lead = {}",
            report.max_lead
        );
        producer.shutdown();
        consumer.shutdown();
    }

    #[test]
    fn counters_visible_during_run() {
        let producer = Runtime::start(RuntimeConfig::new("prod", tiny())).unwrap();
        let consumer = Runtime::start(RuntimeConfig::new("cons", tiny())).unwrap();
        let report = run_pipeline(&producer, &consumer, &small_config());
        // After the run the counters match the report.
        assert_eq!(producer.stats().user_counter("produced"), report.produced);
        assert_eq!(consumer.stats().user_counter("consumed"), report.consumed);
        assert!(!report.lead_series.is_empty());
        assert!(report.peak_intermediate_bytes >= report.max_lead);
        producer.shutdown();
        consumer.shutdown();
    }
}
