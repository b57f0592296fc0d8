//! Turns a run's measurements into the printed report: a readable table
//! of every metric with its unit, then one JSON line.

use crate::stack::{Class, ClosedRun, Outcome, CLOSED_BUCKET};
use crate::stats::{highest_supported_percentile, median, percentile_sorted, LagReport};
use crate::traced::{layer_of, self_times, Replay};
use crate::workload::Spec;
use hnd_service::{EngineOpts, MetricsSnapshot, PlanMode, ServerError};
use std::fmt::Write;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Most windows the open-loop phase is cut into for a tail percentile.
const MAX_WINDOWS: u64 = 20;
/// Mean samples per window the cut aims for: above the 1000 a p99 needs,
/// so the Poisson spread of window counts rarely drops one below it.
const SAMPLES_PER_WINDOW: usize = 1100;

/// Latency of one command class over the open-loop phase.
#[derive(Debug, Clone, Copy, Default)]
struct Latency {
    samples: usize,
    p50_ms: f64,
    /// Median over the windows that support a p99 of each window's p99.
    p99_ms: Option<f64>,
    /// Windows the p99 is the median of.
    p99_windows: usize,
}

impl Latency {
    /// Over the commands that succeeded (failures count against goodput).
    /// The p50 is over the whole phase. The p99 is taken per window of
    /// the schedule, in every window holding enough samples for ten
    /// beyond it, and the median of those is reported: one stall on a
    /// shared machine then moves one window's figure, not the run's.
    fn of(outcomes: &[Outcome], class: Class, phase_ns: u64) -> Latency {
        let ok: Vec<&Outcome> = outcomes
            .iter()
            .filter(|o| o.class == class && o.result.is_ok())
            .collect();
        let n_windows = ((ok.len() / SAMPLES_PER_WINDOW) as u64).clamp(1, MAX_WINDOWS);
        let window_ns = phase_ns.div_ceil(n_windows).max(1);
        let mut all = Vec::with_capacity(ok.len());
        let mut windows: Vec<Vec<f64>> = vec![Vec::new(); n_windows as usize];
        for o in ok {
            let ms = o.timing.latency_ns() as f64 / 1e6;
            all.push(ms);
            let w = (o.timing.scheduled_ns / window_ns).min(n_windows - 1) as usize;
            windows[w].push(ms);
        }
        all.sort_by(f64::total_cmp);
        let supports_p99 = |n: usize| highest_supported_percentile(n).is_some_and(|p| p >= 99.0);
        let mut window_p99: Vec<f64> = windows
            .iter_mut()
            .filter(|w| supports_p99(w.len()))
            .map(|w| {
                w.sort_by(f64::total_cmp);
                percentile_sorted(w, 99.0)
            })
            .collect();
        // Too few samples per window: one p99 over the whole phase.
        if window_p99.is_empty() && supports_p99(all.len()) {
            window_p99.push(percentile_sorted(&all, 99.0));
        }
        Latency {
            samples: all.len(),
            p50_ms: if highest_supported_percentile(all.len()).is_some() {
                percentile_sorted(&all, 50.0)
            } else {
                0.0
            },
            p99_windows: window_p99.len(),
            p99_ms: (!window_p99.is_empty()).then(|| median(&window_p99)),
        }
    }
}

#[derive(Default)]
pub struct Report {
    workload: &'static str,
    seed: u64,
    pub correct: bool,
    failures: Vec<String>,
    attempted: usize,
    failed: usize,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    notes: Vec<String>,
    pub peak_rss_mb: f64,
    pub disk_bytes_per_edit: f64,
    pub ability_spearman: f64,
    setup_s: f64,
    submit: Latency,
    read: Latency,
    goodput_frac: f64,
    error_frac: f64,
    cpu_ms_per_kop: f64,
    capacity_ops_s: f64,
    decision_drift: f64,
    plan_mode: f64,
}

impl Report {
    pub fn new(spec: &Spec, seed: u64) -> Report {
        Report {
            workload: spec.workload.name(),
            seed,
            correct: true,
            ..Report::default()
        }
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.failures.push(why);
    }

    pub fn setup(&mut self, median_s: f64, all: &[f64]) {
        self.setup_s = median_s;
        self.notes.push(format!(
            "setup_s is the median of {} set-ups: {}",
            all.len(),
            all.iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }

    pub fn open_loop(
        &mut self,
        outcomes: &[Outcome],
        spec: &Spec,
        phase_ns: u64,
        cpu_s: f64,
        metrics: &MetricsSnapshot,
        lag: LagReport,
    ) {
        let sent = outcomes.len();
        let failed = outcomes.iter().filter(|o| o.result.is_err()).count();
        let limit_ns = (spec.latency_limit_ms * 1e6) as u64;
        let good = outcomes
            .iter()
            .filter(|o| o.result.is_ok() && o.timing.latency_ns() <= limit_ns)
            .count();
        self.attempted += sent;
        self.failed += failed;
        self.goodput_frac = good as f64 / sent.max(1) as f64;
        self.error_frac = failed as f64 / sent.max(1) as f64;
        self.cpu_ms_per_kop = cpu_s * 1e6 / (sent - failed).max(1) as f64;
        self.submit = Latency::of(outcomes, Class::Submit, phase_ns);
        self.read = Latency::of(outcomes, Class::Read, phase_ns);
        for (what, l) in [("submit", self.submit), ("read", self.read)] {
            if l.p99_ms.is_none() {
                self.fail(format!(
                    "{what}_p99_ms needs at least 1000 samples for ten beyond it; the run has {}",
                    l.samples
                ));
            }
        }
        let mut kinds: Vec<(String, usize)> = Vec::new();
        for o in outcomes {
            if let Err(e) = &o.result {
                let kind = match e {
                    ServerError::Overloaded { .. } => "shed".to_string(),
                    ServerError::DeadlineExceeded => "expired".to_string(),
                    other => other.to_string(),
                };
                match kinds.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, n)) => *n += 1,
                    None => kinds.push((kind, 1)),
                }
            }
        }
        for (kind, n) in kinds {
            self.notes
                .push(format!("{n} open-loop commands failed: {kind}"));
        }

        let queue = metrics.stage("queue_wait").copied().unwrap_or_default();
        let counter = |name: &str| metrics.get_counter(name).unwrap_or(0) as f64;
        let enqueued = counter("telemetry_commands_enqueued");
        self.layer("server.queue_wait_p50_ms", queue.p50_ns as f64 / 1e6, "ms");
        self.layer("server.queue_wait_p99_ms", queue.p99_ns as f64 / 1e6, "ms");
        self.layer("server.shed", counter("telemetry_commands_shed"), "count");
        self.layer(
            "server.direct_serve_frac",
            counter("telemetry_direct_serves") / enqueued.max(1.0),
            "frac",
        );
        let fsync = metrics.stage("fsync").copied().unwrap_or_default();
        self.layer("store.fsync_p50_ms", fsync.p50_ns as f64 / 1e6, "ms");
        self.layer("store.fsync_p99_ms", fsync.p99_ns as f64 / 1e6, "ms");
        self.layer("loadgen.lag_p99_ms", lag.p99_ms, "ms");
        self.layer("loadgen.backlog_end", lag.backlog_end as f64, "count");
    }

    /// Capacity is the median over the phase's buckets of completions
    /// per second, so one stall moves one bucket, not the figure.
    pub fn closed(&mut self, closed: &ClosedRun) {
        let failed = closed.results.iter().filter(|(_, r)| r.is_err()).count();
        self.attempted += closed.results.len();
        self.failed += failed;
        let per_s: Vec<f64> = closed
            .per_bucket
            .iter()
            .map(|&n| n as f64 / CLOSED_BUCKET.as_secs_f64())
            .collect();
        self.capacity_ops_s = median(&per_s);
    }

    pub fn plan(&mut self, digest: u64, baseline: Option<u64>, opts: &EngineOpts) {
        self.plan_mode = match (opts.plan_mode, opts.planner) {
            (PlanMode::Auto, Some(_)) => 1.0,
            _ => 0.0,
        };
        let verdict = match baseline {
            Some(b) if b == digest => "matches the baseline".to_string(),
            Some(b) => {
                self.decision_drift = 1.0;
                format!("DIFFERS from the baseline {b:016x}: the planner decided differently")
            }
            None => "no baseline recorded for this seed".to_string(),
        };
        self.notes
            .push(format!("plan decisions digest {digest:016x} {verdict}"));
    }

    fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Per-layer metrics from the traced replay.
    pub fn traced(&mut self, r: &Replay, overhead_frac: f64) {
        let spans = &r.tracer.spans;
        let mean_ms = |pred: &dyn Fn(&crate::traced::Span) -> bool| -> f64 {
            let (sum, n) = spans
                .iter()
                .filter(|s| pred(s))
                .fold((0u64, 0u64), |(sum, n), s| (sum + s.dur_ns(), n + 1));
            if n == 0 {
                0.0
            } else {
                sum as f64 / n as f64 / 1e6
            }
        };
        let c = &r.counts;
        let e = &r.engine;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let solves = (c.warm_solves + c.cold_solves) as f64;

        let resident = mean_ms(&|s| s.name == "session.checkout" && s.tag == "resident");
        let restore = mean_ms(&|s| s.name == "session.checkout" && s.tag == "restore");
        self.layer("session.checkout_ms.resident", resident, "ms");
        self.layer("session.checkout_ms.restore", restore, "ms");
        self.layer("session.evictions", r.evictions as f64, "count");
        self.layer("session.restores", c.restores as f64, "count");
        self.layer("session.rehydrations", r.rehydrations as f64, "count");

        let advance = mean_ms(&|s| s.name == "engine.advance" && s.tag != "noop");
        self.layer("engine.advance_ms", advance, "ms");
        self.layer("engine.delta_applies", e.delta_applies as f64, "count");
        self.layer("engine.rebuilds", e.rebuilds as f64, "count");
        self.layer(
            "engine.cache_hit_frac",
            ratio(c.cache_hits as f64, c.queries as f64),
            "frac",
        );
        self.layer(
            "engine.skip_frac",
            ratio(c.skipped as f64, c.certified_reads as f64),
            "frac",
        );
        self.layer(
            "engine.early_term_frac",
            ratio(c.early_terminated as f64, c.certified_reads as f64),
            "frac",
        );

        let warm = mean_ms(&|s| s.name == "engine.query" && s.tag.starts_with("warm"));
        let cold = mean_ms(&|s| s.name == "engine.query" && s.tag.starts_with("cold"));
        self.layer("core.solve_ms.warm", warm, "ms");
        self.layer(
            "core.iters.warm",
            ratio(c.warm_iters as f64, c.warm_solves as f64),
            "count",
        );
        self.layer("core.solve_ms.cold", cold, "ms");
        self.layer(
            "core.iters.cold",
            ratio(c.cold_iters as f64, c.cold_solves as f64),
            "count",
        );

        self.layer("shard.count", r.max_shards as f64, "count");
        self.layer(
            "shard.sharded_solve_frac",
            ratio(c.sharded_solves as f64, solves),
            "frac",
        );
        self.layer("shard.rebalances", e.shard_rebalances as f64, "count");
        self.layer("shard.shard_rebuilds", e.shard_rebuilds as f64, "count");

        self.layer("linalg.udiff_applies", c.udiff_applies as f64, "count");
        self.layer("linalg.bytes_per_apply", ratio(c.apply_bytes, solves), "B");
        self.layer(
            "linalg.bitmap_lane_frac",
            ratio(c.bitmap_lane_share, solves),
            "frac",
        );

        let submit_us = mean_ms(&|s| s.name == "engine.submit_responses") * 1e3;
        let catch_up = mean_ms(&|s| s.name == "response.catch_up" || s.name == "store.catch_up");
        self.layer("response.submit_us", submit_us, "us");
        self.layer("response.catch_up_ms", catch_up, "ms");
        self.layer(
            "response.compaction_ratio",
            ratio(c.catch_up_delta_edits as f64, c.catch_up_raw_edits as f64),
            "frac",
        );

        let st = &r.store;
        self.layer(
            "store.sync_ms",
            mean_ms(&|s| s.name == "store.sync_from"),
            "ms",
        );
        self.layer(
            "store.fsync_per_frame",
            ratio(st.fsyncs as f64, st.frames_appended as f64),
            "frac",
        );
        self.layer("store.load_ms", mean_ms(&|s| s.name == "store.load"), "ms");
        self.layer(
            "store.replayed_edits_per_load",
            ratio(c.replayed_on_load as f64, c.restores as f64),
            "count",
        );
        self.layer(
            "store.snapshots_written",
            st.snapshots_written as f64,
            "count",
        );
        self.layer(
            "store.bytes_per_edit",
            ratio(r.store_bytes as f64, st.edits_appended as f64),
            "B",
        );
        self.layer("store.retries", st.retries() as f64, "count");

        self.layer("plan.mode", self.plan_mode, "code");
        self.layer("plan.replans", e.plan_replans as f64, "count");
        self.layer(
            "plan.solve_pred_over_actual",
            ratio(e.predicted_solve_ns as f64, e.actual_solve_ns as f64),
            "ratio",
        );
        self.layer("plan.decision_drift", self.decision_drift, "count");

        // Self time per layer, per command replayed.
        let commands = spans.iter().filter(|s| s.name == "cmd").count().max(1) as f64;
        let selfs = self_times(spans);
        for layer in ["session", "engine", "core", "response", "store"] {
            let ns: u64 = spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| layer_of(s) == layer)
                .map(|(_, &t)| t)
                .sum();
            self.layer(
                &format!("{layer}.self_us_per_cmd"),
                ns as f64 / 1e3 / commands,
                "us",
            );
        }
        self.layer("trace.overhead_frac", overhead_frac, "frac");
        self.notes.push(format!(
            "traced replay: {} commands single-threaded in {:.2}s, {} spans",
            commands,
            r.wall_s,
            spans.len()
        ));
    }

    /// The bounded end-to-end metrics (the `--trace 0` JSON), and the
    /// unbounded ones that lead the per-layer list: latencies, capacity
    /// and the error share swing by more than any usable bound between
    /// runs on a shared host, so they are recorded but not gated.
    fn collect_end_to_end(&mut self) {
        let m = |name: &str, value: f64, unit: &'static str| Metric {
            name: name.to_string(),
            value,
            unit,
        };
        self.end_to_end = vec![
            m("setup_s", self.setup_s, "s"),
            m("goodput_frac", self.goodput_frac, "frac"),
            m("cpu_ms_per_kop", self.cpu_ms_per_kop, "ms"),
            m("peak_rss_mb", self.peak_rss_mb, "MiB"),
            m("disk_bytes_per_edit", self.disk_bytes_per_edit, "B"),
            m("ability_spearman", self.ability_spearman, "rho"),
        ];
        let unbounded = vec![
            m("e2e.submit_p50_ms", self.submit.p50_ms, "ms"),
            m("e2e.read_p50_ms", self.read.p50_ms, "ms"),
            m("e2e.submit_p99_ms", self.submit.p99_ms.unwrap_or(0.0), "ms"),
            m("e2e.read_p99_ms", self.read.p99_ms.unwrap_or(0.0), "ms"),
            m("e2e.capacity_ops_s", self.capacity_ops_s, "1/s"),
            m("e2e.error_frac", self.error_frac, "frac"),
        ];
        self.per_layer.splice(0..0, unbounded);
    }

    /// Prints the table, then the JSON line the harness reads.
    pub fn print(mut self, trace: bool) {
        self.collect_end_to_end();
        println!("perfbench {} seed {}", self.workload, self.seed);
        println!(
            "  samples: {} submits (p99 = median of {} window p99s), {} reads ({} windows); \
             {} commands sent, {} failed",
            self.submit.samples,
            self.submit.p99_windows,
            self.read.samples,
            self.read.p99_windows,
            self.attempted,
            self.failed
        );
        for section in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            if section.1.is_empty() {
                continue;
            }
            println!("  {}:", section.0);
            for m in section.1 {
                println!("    {:<32} {:>16.6} {}", m.name, m.value, m.unit);
            }
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
