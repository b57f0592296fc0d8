//! The traced run: the open-loop trace replayed single-threaded through
//! the layers' public functions, in the order the server's worker uses
//! them, with a span around every call. Spans live in memory and are
//! written out when the replay ends; nothing is traced inside the
//! program itself.
//!
//! Per command the replay does what a worker does for it:
//! `SessionManager::checkout` (on an evicted session: `SessionStore::load`
//! then `RankingEngine::from_log`), the command itself
//! (`submit_responses` + `SessionStore::sync_from`, or `advance` + the
//! query, or a compacted catch-up), `SessionManager::put_engine` (whose
//! idle sweep may evict), and `SessionStore::spill` for every session the
//! sweep evicted. A catch-up on an evicted session is served straight
//! off the store, as the server serves it.

use crate::workload::{Cmd, Generated, Op};
use hnd_linalg::parallel::with_threads;
use hnd_linalg::FormatCounts;
use hnd_service::{
    Checkout, EngineOpts, EngineStats, PlanDecision, RankingEngine, SessionId, SessionManager,
    SessionStore, StoreOpts,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span ([`NO_PARENT`] for a command root).
    pub parent: u32,
    /// Index of the command in the trace.
    pub cmd: u32,
    /// Outcome label (query tier outcome, checkout kind, …).
    pub tag: &'static str,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; with `on == false` every call is a no-op, which is how
/// the tracing overhead is measured.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its handle.
    pub fn enter(&mut self, name: &'static str, parent: u32, cmd: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cmd,
            tag: "",
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes a span with its outcome tag.
    pub fn exit(&mut self, span: u32, tag: &'static str) {
        if !self.on {
            return;
        }
        let end = self.now();
        let s = &mut self.spans[span as usize];
        s.end_ns = end;
        s.tag = tag;
    }
}

/// The layer a span's self time belongs to.
pub fn layer_of(span: &Span) -> &'static str {
    match span.name {
        "cmd" => "trace",
        "session.checkout" | "session.put_engine" => "session",
        "store.load" | "store.sync_from" | "store.spill" | "store.catch_up" => "store",
        "engine.submit_responses" | "response.catch_up" => "response",
        "engine.query" if span.tag.starts_with("warm") || span.tag.starts_with("cold") => "core",
        _ => "engine",
    }
}

/// Self time per span: duration minus the time its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Counts gathered by the replay at the layer boundaries.
#[derive(Debug, Default)]
pub struct Counts {
    pub restores: u64,
    pub replayed_on_load: u64,
    pub certified_reads: u64,
    pub skipped: u64,
    pub early_terminated: u64,
    pub cache_hits: u64,
    pub queries: u64,
    pub warm_iters: u64,
    pub warm_solves: u64,
    pub cold_iters: u64,
    pub cold_solves: u64,
    pub sharded_solves: u64,
    pub udiff_applies: u64,
    /// Sum over solves of the computed bytes one operator apply moves.
    pub apply_bytes: f64,
    /// Sum over solves of the share of bitmap lanes.
    pub bitmap_lane_share: f64,
    pub catch_up_delta_edits: u64,
    pub catch_up_raw_edits: u64,
    /// Plan decisions (formatted) of every engine built, per session.
    pub decisions: BTreeMap<usize, String>,
}

/// A finished replay.
pub struct Replay {
    pub tracer: Tracer,
    pub counts: Counts,
    pub wall_s: f64,
    pub engine: EngineStats,
    pub evictions: u64,
    pub rehydrations: u64,
    pub store: hnd_service::StoreStats,
    pub store_bytes: u64,
    pub max_shards: usize,
}

/// Formats a plan decision compactly (the hermeticity record).
pub fn describe_decision(d: &PlanDecision) -> String {
    format!(
        "shards={} row_d={:.4} col_d={:.4} min_dim={} budget={}",
        d.shards,
        d.density_plan.row_density,
        d.density_plan.col_density,
        d.density_plan.min_dim,
        d.patch_budget
    )
}

fn format_decision(engine: &RankingEngine) -> String {
    engine
        .plan_decision()
        .map_or_else(|| "static".into(), describe_decision)
}

/// Bytes one operator apply reads from the pattern: a row pass and a
/// column pass, 4 bytes per index on sparse lanes and one 64-bit word
/// per 64 slots on bitmap lanes. Bitmap lanes are taken to be the
/// densest ones (the density plan promotes by density).
pub fn apply_bytes(engine: &RankingEngine) -> (f64, f64) {
    let m = engine.matrix();
    let formats: FormatCounts = engine.stats().formats;
    let shards = engine.shard_count().max(1);
    let pass = |mut counts: Vec<usize>, bitmap_lanes: usize, lane_dim: usize| -> f64 {
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let bitmap_lanes = bitmap_lanes.min(counts.len());
        let sparse: usize = counts[bitmap_lanes..].iter().sum();
        4.0 * sparse as f64 + (bitmap_lanes * lane_dim.div_ceil(64) * 8) as f64
    };
    let rows = pass(m.row_counts(), formats.bitmap_rows, m.total_options());
    // Column lanes are cut per shard: each covers the shard's users.
    let col_counts: Vec<usize> = m
        .col_counts()
        .into_iter()
        .flat_map(|c| std::iter::repeat_n(c / shards, shards))
        .collect();
    let cols = pass(
        col_counts,
        formats.bitmap_cols,
        m.n_users().div_ceil(shards),
    );
    let lanes =
        formats.bitmap_rows + formats.sparse_rows + formats.bitmap_cols + formats.sparse_cols;
    let bitmap_share = if lanes == 0 {
        0.0
    } else {
        (formats.bitmap_rows + formats.bitmap_cols) as f64 / lanes as f64
    };
    (rows + cols, bitmap_share)
}

struct State<'a> {
    gen: &'a Generated,
    mgr: SessionManager,
    store: SessionStore,
    ids: Vec<SessionId>,
    /// Sessions known live, scanned for evictions after each check-in.
    resident: Vec<bool>,
    tracer: Tracer,
    counts: Counts,
}

/// Bulk-loads and first-solves every session exactly as the server run
/// does (untraced), then replays `trace`.
/// Commands execute with `inner` kernel threads, as inside a worker.
pub fn replay(
    gen: &Generated,
    opts: EngineOpts,
    dir: &Path,
    trace: &[Cmd],
    on: bool,
    inner: usize,
) -> Replay {
    let store = SessionStore::open(dir, StoreOpts::default()).expect("open the replay store");
    let mut mgr = SessionManager::new(opts);
    mgr.set_idle_threshold(gen.spec.idle_threshold);
    let mut st = State {
        gen,
        ids: Vec::new(),
        resident: vec![true; gen.sessions.len()],
        mgr,
        store,
        tracer: Tracer::new(false),
        counts: Counts::default(),
    };
    for (s, data) in gen.sessions.iter().enumerate() {
        let log = data.initial_log();
        let id = st.mgr.create_session_from_log(log).expect("bulk load");
        st.store
            .register(id, st.mgr.session(id).expect("just created").log())
            .expect("register with the store");
        let mut engine = st.mgr.take_engine(id).expect("fresh session");
        st.counts.decisions.insert(s, format_decision(&engine));
        engine.current_ranking().expect("first solve");
        st.mgr.put_engine(id, engine).expect("check in");
        st.ids.push(id);
    }
    if gen.spec.idle_threshold.is_some() {
        for id in st.mgr.evict_idle() {
            spill(&mut st, id, NO_PARENT, u32::MAX);
        }
        refresh_resident(&mut st);
    }
    st.tracer = Tracer::new(on);
    let started = Instant::now();
    for (c, cmd) in trace.iter().enumerate() {
        run_command(&mut st, c as u32, cmd, inner);
    }
    let wall_s = started.elapsed().as_secs_f64();
    st.store.flush_all().expect("flush the replay store");
    let stats = st.mgr.stats();
    let max_shards = st
        .ids
        .iter()
        .filter_map(|&id| st.mgr.session(id))
        .map(RankingEngine::shard_count)
        .filter(|&n| n > 1)
        .max()
        .unwrap_or(0);
    Replay {
        engine: st.mgr.aggregate_engine_stats(),
        evictions: stats.evictions,
        rehydrations: stats.rehydrations,
        store: st.store.stats(),
        store_bytes: crate::sys::dir_bytes(dir),
        max_shards,
        tracer: st.tracer,
        counts: st.counts,
        wall_s,
    }
}

fn spill(st: &mut State, id: SessionId, parent: u32, cmd: u32) {
    let span = st.tracer.enter("store.spill", parent, cmd);
    let log = st
        .mgr
        .evicted_log(id)
        .expect("evicted session keeps its log");
    st.store.spill(id, log).expect("spill to the store");
    st.tracer.exit(span, "");
}

fn refresh_resident(st: &mut State) {
    for (s, &id) in st.ids.iter().enumerate() {
        st.resident[s] = !st.mgr.is_evicted(id);
    }
}

fn run_command(st: &mut State, c: u32, cmd: &Cmd, inner: usize) {
    let id = st.ids[cmd.session];
    let root = st.tracer.enter("cmd", NO_PARENT, c);
    if let Op::CatchUp(from) = cmd.op {
        if st.mgr.is_evicted(id) {
            // Served off the WAL without touching the engine.
            let span = st.tracer.enter("store.catch_up", root, c);
            let delta = st.store.catch_up(id, from).expect("catch-up off the store");
            st.tracer.exit(span, "spilled");
            st.counts.catch_up_delta_edits += delta.edits.len() as u64;
            st.counts.catch_up_raw_edits += delta.to_version - from;
            st.tracer.exit(root, "catch_up");
            return;
        }
    }
    let span = st.tracer.enter("session.checkout", root, c);
    let (mut engine, kind) = match st.mgr.checkout(id).expect("checkout") {
        Checkout::Live(engine) => (*engine, "resident"),
        Checkout::Rehydrate(_) | Checkout::Restore { .. } => {
            let load = st.tracer.enter("store.load", span, c);
            let (log, report) = st.store.load(id).expect("load from the store");
            st.tracer.exit(load, "");
            let build = st.tracer.enter("engine.from_log", span, c);
            let mut engine =
                RankingEngine::from_log(log, st.mgr.engine_opts()).expect("rebuild from the log");
            engine.record_wal_replay(report.replayed_edits);
            st.tracer.exit(build, "");
            st.counts.restores += 1;
            st.counts.replayed_on_load += report.replayed_edits;
            st.counts
                .decisions
                .entry(cmd.session)
                .or_insert_with(|| format_decision(&engine));
            (engine, "restore")
        }
    };
    st.tracer.exit(span, kind);
    let label = with_threads(inner, || match &cmd.op {
        Op::Submit(edits) => {
            let span = st.tracer.enter("engine.submit_responses", root, c);
            engine
                .submit_responses(edits.iter().copied())
                .expect("generated edits are valid");
            st.tracer.exit(span, "");
            let span = st.tracer.enter("store.sync_from", root, c);
            st.store.sync_from(id, engine.log()).expect("WAL append");
            st.tracer.exit(span, "");
            "submit"
        }
        Op::RankOf(_) | Op::TopK(_) => {
            query(st, &mut engine, &cmd.op, root, c);
            if matches!(cmd.op, Op::TopK(_)) {
                "top_k"
            } else {
                "rank_of"
            }
        }
        Op::CatchUp(from) => {
            let span = st.tracer.enter("response.catch_up", root, c);
            let delta = engine
                .log()
                .compact_range(*from, engine.version())
                .or_else(|_| st.store.catch_up(id, *from))
                .expect("catch-up range");
            st.tracer.exit(span, "");
            st.counts.catch_up_delta_edits += delta.edits.len() as u64;
            st.counts.catch_up_raw_edits += delta.to_version - from;
            "catch_up"
        }
    });
    let span = st.tracer.enter("session.put_engine", root, c);
    st.mgr.put_engine(id, engine).expect("check in");
    st.tracer.exit(span, "");
    st.resident[cmd.session] = true;
    if st.gen.spec.idle_threshold.is_some() {
        let evicted: Vec<usize> = (0..st.ids.len())
            .filter(|&s| st.resident[s] && st.mgr.is_evicted(st.ids[s]))
            .collect();
        for s in evicted {
            st.resident[s] = false;
            let id = st.ids[s];
            spill(st, id, root, c);
        }
    }
    st.tracer.exit(root, label);
}

/// `advance`, then the certified query, tagged from the engine counters.
fn query(st: &mut State, engine: &mut RankingEngine, op: &Op, root: u32, c: u32) {
    let before = engine.stats();
    let span = st.tracer.enter("engine.advance", root, c);
    engine.advance();
    let after = engine.stats();
    let tag = if after.rebuilds > before.rebuilds || after.shard_rebuilds > before.shard_rebuilds {
        "rebuild"
    } else if after.delta_applies > before.delta_applies {
        "patch"
    } else {
        "noop"
    };
    st.tracer.exit(span, tag);

    let before = after;
    let span = st.tracer.enter("engine.query", root, c);
    match op {
        Op::TopK(k) => {
            engine.top_k(*k).expect("top_k");
        }
        Op::RankOf(user) => {
            engine.rank_of(*user).expect("rank_of");
        }
        _ => unreachable!("queries only"),
    }
    let after = engine.stats();
    let early = after.early_terminations > before.early_terminations;
    let tag = if after.skipped_solves > before.skipped_solves {
        "skipped"
    } else if after.cold_solves > before.cold_solves {
        if early {
            "cold-early"
        } else {
            "cold"
        }
    } else if after.warm_solves > before.warm_solves {
        if early {
            "warm-early"
        } else {
            "warm"
        }
    } else {
        "cache-hit"
    };
    st.tracer.exit(span, tag);

    let n = &mut st.counts;
    n.queries += 1;
    n.certified_reads += 1;
    match tag {
        "skipped" => n.skipped += 1,
        "cache-hit" => n.cache_hits += 1,
        _ => {
            let iters = after.last_iterations as u64;
            if early {
                n.early_terminated += 1;
            }
            if tag.starts_with("cold") {
                n.cold_solves += 1;
                n.cold_iters += iters;
            } else {
                n.warm_solves += 1;
                n.warm_iters += iters;
            }
            if after.sharded_solves > before.sharded_solves {
                n.sharded_solves += 1;
            }
            n.udiff_applies += iters;
            let (bytes, bitmap) = apply_bytes(engine);
            n.apply_bytes += bytes;
            n.bitmap_lane_share += bitmap;
        }
    }
}

/// Writes the spans as tab-separated lines:
/// `cmd  span  parent  name  tag  start_ns  end_ns  self_ns`.
pub fn dump(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "cmd\tspan\tparent\tname\ttag\tstart_ns\tend_ns\tself_ns"
    )?;
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
            s.cmd, s.name, s.tag, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "cmd",
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                cmd: 0,
                tag: "",
            },
            Span {
                name: "session.checkout",
                start_ns: 5,
                end_ns: 45,
                parent: 0,
                cmd: 0,
                tag: "restore",
            },
            Span {
                name: "store.load",
                start_ns: 10,
                end_ns: 30,
                parent: 1,
                cmd: 0,
                tag: "",
            },
            Span {
                name: "engine.query",
                start_ns: 50,
                end_ns: 90,
                parent: 0,
                cmd: 0,
                tag: "warm",
            },
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 20, 40]);
        assert_eq!(layer_of(&spans[3]), "core");
        assert_eq!(layer_of(&spans[2]), "store");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("cmd", NO_PARENT, 0);
        t.exit(s, "x");
        assert!(t.spans.is_empty());
    }
}
