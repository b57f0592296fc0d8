//! Durable-tier benchmark: the serving cost of crash safety.
//!
//! Two questions, one group (`serving_durable`):
//!
//! * **Group-commit throughput** — the serving bench's wave round
//!   (pipelined 16-edit submits to every session, then a ranking read
//!   per session), re-run with a per-session WAL attached under each
//!   flush policy. The `nostore` row is the in-memory baseline,
//!   `fsync_commit` pays one fsync per commit, `group_n32` batches
//!   fsyncs 32 commits at a time (the group-commit default), and `os`
//!   writes without fsync (page-cache durability: survives process
//!   death, not machine crash). The `group_n32` vs `fsync_commit` gap
//!   is what group commit buys; `group_n32` vs `nostore` is the whole
//!   durability tax.
//! * **Rehydrate-vs-warm latency** — one ranking read four ways: a
//!   warm cache hit, the in-memory rehydrate round-trip (evict to the
//!   resident log, rebuild), the full durable round-trip (spill to
//!   snapshot+WAL on disk, read back, replay the tail, rebuild), and a
//!   process restart (a fresh server adopts the store directory, then
//!   reads). Eviction and spill keep the session's last solve in memory,
//!   so the two eviction rows serve their read from it without a cold
//!   solve; only the restart row, which starts from disk alone, pays
//!   one. `restore_disk` vs `restore_restart` is what warm restore buys
//!   over a cold one; `rehydrate_mem` vs `restore_disk` isolates what the
//!   disk adds.
//!
//! Set `HND_BENCH_QUICK=1` to restrict the fleet (CI smoke); set
//! `BENCH_JSON=path.json` to emit machine-readable results; pass the
//! group name (`cargo bench --bench durable -- serving_durable`) to
//! filter.

use criterion::{criterion_group, BenchmarkId, Criterion};
use hnd_bench::{quick, report};
use hnd_core::{SolverKind, SolverOpts};
use hnd_service::{
    EngineOpts, FlushPolicy, Ranking, Reply, ServerOpts, SessionId, SessionServer, SessionStore,
    StoreOpts,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const WAVE_EDITS: usize = 16;

fn engine_opts() -> EngineOpts {
    EngineOpts {
        solver: SolverKind::Power,
        solver_opts: SolverOpts {
            orient: false,
            ..Default::default()
        },
        row_slack: 64,
        col_slack: 1024,
        ..Default::default()
    }
}

/// Fresh store directory under the system temp dir (unique per run and
/// per call, so parallel bench invocations cannot collide).
fn store_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hnd-bench-durable-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create bench store dir");
    dir
}

/// Deterministic ability-structured bulk load for session `s` (same
/// generator as the serving bench, so rows are comparable across the
/// two artifacts).
fn bulk_load(s: usize, m: usize, n: usize, k: u16) -> Vec<(usize, usize, Option<u16>)> {
    let mut state = 0xC1A55u64.wrapping_add(s as u64);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    (0..m)
        .flat_map(|u| (0..n).map(move |i| (u, i)))
        .map(|(u, i)| {
            let correct = (i % k as usize) as u16;
            let ability = u as f64 / m as f64;
            let choice = if (next() % 1000) as f64 / 1000.0 < 0.2 + 0.7 * ability {
                correct
            } else {
                (correct + 1 + (next() % (k as u64 - 1)) as u16) % k
            };
            (u, i, Some(choice))
        })
        .collect()
}

fn preload(srv: &SessionServer, sessions: usize, m: usize, n: usize, k: u16) -> Vec<SessionId> {
    let ids: Vec<SessionId> = (0..sessions)
        .map(|s| {
            let id = srv.create_session(m, n, &vec![k; n]).unwrap();
            srv.submit(id, bulk_load(s, m, n, k)).wait().unwrap();
            id
        })
        .collect();
    let warmups: Vec<Reply<Ranking>> = ids.iter().map(|&id| srv.ranking(id)).collect();
    for reply in warmups {
        reply.wait().unwrap();
    }
    ids
}

/// One wave round: pipelined 16-edit submits to every session, then a
/// ranking read per session.
fn wave_round(srv: &SessionServer, ids: &[SessionId], m: usize, n: usize, k: u16, round: u64) {
    let submits: Vec<Reply<u64>> = ids
        .iter()
        .map(|&id| {
            let batch: Vec<(usize, usize, Option<u16>)> = (0..WAVE_EDITS as u64)
                .map(|e| {
                    let u = ((round * 31 + e * 17 + 1) % m as u64) as usize;
                    let i = ((round * 13 + e * 7) % n as u64) as usize;
                    let choice = ((round + e) % k as u64) as u16;
                    (u, i, Some(choice))
                })
                .collect();
            srv.submit(id, batch)
        })
        .collect();
    for reply in submits {
        reply.wait().unwrap();
    }
    let reads: Vec<Reply<Ranking>> = ids.iter().map(|&id| srv.ranking(id)).collect();
    for reply in reads {
        reply.wait().unwrap();
    }
}

/// Group-commit throughput: the wave round under each flush policy.
fn bench_durable_waves(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_durable");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let k = 3u16;
    let (sessions, m, n) = if quick() { (4, 400, 40) } else { (8, 2000, 60) };
    let policies: &[(&str, Option<FlushPolicy>)] = &[
        ("nostore", None),
        ("fsync_commit", Some(FlushPolicy::EveryCommit)),
        ("group_n32", Some(FlushPolicy::EveryN(32))),
        ("os", Some(FlushPolicy::Os)),
    ];
    for &(name, policy) in policies {
        let opts = ServerOpts {
            workers: 2,
            idle_threshold: None,
            engine: engine_opts(),
            ..Default::default()
        };
        let mut dir = None;
        let srv = match policy {
            Some(flush) => {
                let d = store_dir(name);
                let store = SessionStore::open(
                    &d,
                    StoreOpts {
                        flush,
                        ..Default::default()
                    },
                )
                .expect("open bench store");
                dir = Some(d);
                SessionServer::with_store(opts, Arc::new(store))
            }
            None => SessionServer::new(opts),
        };
        let ids = preload(&srv, sessions, m, n, k);
        let mut round = 0u64;
        report::note(
            "serving_durable",
            "wave_round",
            format!("{name}_s{sessions}_m{m}"),
            report::EntryMeta {
                density: Some(1.0 / f64::from(k)),
                nnz: Some(sessions * m * n),
                ..Default::default()
            },
        );
        group.bench_with_input(
            BenchmarkId::new("wave_round", format!("{name}_s{sessions}_m{m}")),
            &name,
            |b, _| {
                b.iter(|| {
                    round += 1;
                    wave_round(&srv, &ids, m, n, k, round);
                });
            },
        );
        drop(srv);
        if let Some(d) = dir {
            std::fs::remove_dir_all(&d).ok();
        }
    }
    group.finish();
}

/// Rehydrate-vs-warm: one ranking read as a cache hit, after an
/// in-memory eviction, after a spill to disk, and after a restart over
/// the store directory. The eviction rows measure the whole round-trip
/// (evict + read), so the warm row is the floor, not a subtrahend.
fn bench_restore_gap(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_durable");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let k = 3u16;
    let (m, n) = if quick() { (400, 40) } else { (1000, 60) };
    // warm: no eviction, pure cache hit. rehydrate_mem: evict to the
    // resident log each round. restore_disk: spill to snapshot+WAL each
    // round. restore_restart: a fresh server over the spilled directory
    // each round.
    let rows: &[(&str, bool, bool)] = &[
        ("warm", false, false),
        ("rehydrate_mem", true, false),
        ("restore_disk", true, true),
        ("restore_restart", true, true),
    ];
    for &(name, evict, durable) in rows {
        let restart = name == "restore_restart";
        let opts = ServerOpts {
            workers: 1,
            idle_threshold: if evict { Some(0) } else { None },
            engine: engine_opts(),
            ..Default::default()
        };
        let mut dir = None;
        let srv = if durable {
            let d = store_dir(name);
            let store = SessionStore::open(&d, StoreOpts::default()).expect("open bench store");
            dir = Some(d);
            SessionServer::with_store(opts, Arc::new(store))
        } else {
            SessionServer::new(opts)
        };
        let ids = preload(&srv, 1, m, n, k);
        report::note(
            "serving_durable",
            "read",
            format!("{name}_m{m}"),
            report::EntryMeta {
                density: Some(1.0 / f64::from(k)),
                nnz: Some(m * n),
                ..Default::default()
            },
        );
        let mut srv = Some(srv);
        group.bench_with_input(
            BenchmarkId::new("read", format!("{name}_m{m}")),
            &name,
            |b, _| {
                b.iter(|| {
                    if restart {
                        // The previous process releases the directory
                        // before the next one adopts it.
                        drop(srv.take());
                        let d = dir.as_ref().expect("restart rows are durable");
                        let store = SessionStore::open(d, StoreOpts::default())
                            .expect("reopen bench store");
                        srv = Some(SessionServer::with_store(opts, Arc::new(store)));
                    }
                    let srv = srv.as_ref().expect("server running");
                    if evict {
                        srv.evict_idle();
                    }
                    srv.ranking(ids[0]).wait().unwrap();
                });
            },
        );
        drop(srv);
        if let Some(d) = dir {
            std::fs::remove_dir_all(&d).ok();
        }
    }
    group.finish();
}

criterion_group!(benches, bench_durable_waves, bench_restore_gap);
hnd_bench::bench_main!(benches);
