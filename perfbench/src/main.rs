//! `perfbench` — the repository's stack benchmark.
//!
//! ```text
//! perfbench --workload <classroom|cohort|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's sessions and command trace from the seed,
//! bulk-loads a store-backed `SessionServer`, replays the trace open-loop
//! (Poisson arrivals at the workload's fixed rate, latency timed from each
//! command's scheduled send), runs a closed saturation phase, and checks
//! the answers. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` the same run is followed by a
//! single-threaded replay of the trace through the layers' public
//! functions with spans, and the last line carries the per-layer metrics.
//! Any failed correctness gate exits non-zero.
//!
//! Run from the repository root:
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload classroom --seed 1 --seconds 10 --trace 0`

mod gates;
mod report;
mod stack;
mod stats;
mod sys;
mod traced;
mod workload;

use hnd_plan::{calibrate, CalibrationOpts, KernelCatalog, SessionShape};
use hnd_service::{EngineOpts, PlanMode, Planner, ShardPlan};
use report::Report;
use stats::{median, LagReport};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{generate, Generated, Workload};

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of the open-loop commands that may still be unsent when the
/// schedule ends before the run is invalid.
const MAX_BACKLOG_SHARE: f64 = 0.005;
/// Length of the closed saturation phase.
const CLOSED_DURATION: Duration = Duration::from_secs(3);
/// Kernel threads in the process, and so per worker `2 / WORKERS = 1`.
const THREADS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Only print the plan-decision digest of the seed's sessions (the
    /// line `plan-baseline.tsv` records) and exit.
    plan_digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut plan_digest = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--plan-digest" {
            plan_digest = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if plan_digest {
        return Ok(Args {
            workload,
            seed,
            seconds: 0,
            trace: false,
            plan_digest,
        });
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
        plan_digest,
    })
}

/// The checked-in catalog, calibrated on the reference host.
fn shipped_catalog() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("catalog/kernel-catalog.json")
}

/// Loads the planner's kernel catalog: the checked-in one when it matches
/// this host, else one calibrated once into the benchmark's state
/// directory and reused by later runs. Never the per-user cache.
fn pin_catalog(state: &Path) -> (KernelCatalog, PathBuf) {
    let shipped = shipped_catalog();
    if let Ok(catalog) = KernelCatalog::load_checked(&shipped) {
        return (catalog, shipped);
    }
    let local = state.join("kernel-catalog.json");
    if let Ok(catalog) = KernelCatalog::load_checked(&local) {
        return (catalog, local);
    }
    eprintln!(
        "perfbench: calibrating the kernel catalog into {}",
        local.display()
    );
    let catalog = calibrate(&CalibrationOpts::default());
    catalog.save(&local).expect("save the calibrated catalog");
    (catalog, local)
}

/// Pins everything the engine would otherwise read from the machine or
/// the environment: kernel threads, plan mode and the catalog.
fn hermetic_engine_opts(state: &Path) -> (EngineOpts, PathBuf) {
    // Single-threaded here, before any thread or kernel reads them.
    std::env::set_var("HND_THREADS", THREADS.to_string());
    std::env::remove_var("HND_PLAN");
    let (catalog, path) = pin_catalog(state);
    std::env::set_var("HND_CATALOG", &path);
    let opts = EngineOpts {
        shard_plan: Some(ShardPlan::default()),
        planner: Some(Planner::leaked(catalog)),
        plan_mode: PlanMode::Auto,
        ..EngineOpts::default()
    };
    (opts, path)
}

/// Every session's plan decision at bulk load, as the engine computes it
/// (the shard plan is pinned, so the planner only picks lane formats and
/// the patch budget). Returns the formatted decisions and their digest.
fn plan_decisions(gen: &Generated, opts: &EngineOpts) -> (Vec<String>, u64) {
    let planner = opts.planner.expect("the planner is pinned");
    let decisions: Vec<String> = gen
        .sessions
        .iter()
        .map(|s| {
            let shape = SessionShape::from_counts(&s.initial.row_counts(), &s.initial.col_counts());
            traced::describe_decision(&planner.plan(&shape, false))
        })
        .collect();
    // FNV-1a over the decisions in session order.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in decisions.iter().flat_map(|d| d.bytes().chain([b'\n'])) {
        h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
    }
    (decisions, h)
}

/// The recorded decision digest for this workload and seed, if any
/// (`plan-baseline.tsv`: `workload<TAB>seed<TAB>digest`).
fn baseline_digest(workload: Workload, seed: u64) -> Option<u64> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("plan-baseline.tsv");
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let mut f = line.split('\t');
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload.name() && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d.trim(), 16).ok())
            .flatten()
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <classroom|cohort|churn> --seed <n> \
                 (--seconds <s> --trace <0|1> | --plan-digest)"
            );
            return ExitCode::from(2);
        }
    };
    let state = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&state).expect("create the benchmark state directory");
    if args.plan_digest {
        let (opts, _) = hermetic_engine_opts(&state);
        let gen = generate(&args.workload.spec(), args.seed, 0.0, 0);
        let (_, digest) = plan_decisions(&gen, &opts);
        println!("{}\t{}\t{digest:016x}", args.workload.name(), args.seed);
        return ExitCode::SUCCESS;
    }
    let run_dir = state.join(format!("run-{}", std::process::id()));
    let result = run(&args, &state, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(report) => {
            let correct = report.correct;
            report.print(args.trace);
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, state: &Path, run_dir: &Path) -> Result<Report, String> {
    let (engine_opts, catalog_path) = hermetic_engine_opts(state);
    let spec = args.workload.spec();
    let open_s = args.seconds as f64;
    // Enough closed commands for eight times the offered rate.
    let closed_cmds = (spec.rate_per_s * 8.0 * CLOSED_DURATION.as_secs_f64()) as usize;
    let server_opts = stack::server_opts(&spec, engine_opts);
    eprintln!(
        "perfbench: {} seed {} — {} sessions, {} users, {:.0} cmd/s open loop for {}s; catalog {}",
        spec.workload.name(),
        args.seed,
        spec.sessions.len(),
        spec.total_users(),
        spec.rate_per_s,
        args.seconds,
        catalog_path.display()
    );

    // Set-up, several times over; the last one serves the run.
    let store_dir = run_dir.join("store");
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        drop(loaded.take());
        let _ = std::fs::remove_dir_all(&store_dir);
        let started = Instant::now();
        let gen = generate(&spec, args.seed, open_s, closed_cmds);
        let (srv, ids) = stack::load_server(&gen, server_opts, &store_dir);
        setups.push(started.elapsed().as_secs_f64());
        loaded = Some((gen, srv, ids));
    }
    let (gen, srv, ids) = loaded.expect("at least one setup");
    let setup_s = median(&setups);
    let (decisions, digest) = plan_decisions(&gen, &engine_opts);
    let baseline = baseline_digest(args.workload, args.seed);

    // Open-loop phase. Server CPU is the process's less the load
    // generator's own two threads.
    let cpu0 = sys::process_cpu_s();
    let (outcomes, harness_cpu_s) = stack::open_loop(&srv, &ids, &gen.open);
    let cpu_s = sys::process_cpu_s() - cpu0 - harness_cpu_s;
    let metrics = srv.metrics();
    let phase_ns = (open_s * 1e9) as u64;
    let lag = LagReport::of(
        &outcomes.iter().map(|o| o.timing).collect::<Vec<_>>(),
        phase_ns,
    );

    // Closed saturation phase.
    let closed = stack::closed_loop(&srv, &ids, &gen.closed, CLOSED_DURATION);

    // Correctness gates over everything sent.
    let sent: Vec<_> = gen
        .open
        .iter()
        .zip(outcomes.iter().map(|o| &o.result))
        .chain(closed.results.iter().map(|(i, r)| (&gen.closed[*i], r)))
        .collect();
    let gate = gates::run_all(&gen, srv, &ids, &sent, &store_dir, server_opts);
    let edits: u64 = match &gate {
        Ok(g) => g.logs.iter().map(|l| l.version()).sum(),
        Err(_) => 0,
    };
    let disk_bytes = sys::dir_bytes(&store_dir);

    let mut report = Report::new(&spec, args.seed);
    report.setup(setup_s, &setups);
    report.open_loop(&outcomes, &spec, phase_ns, cpu_s, &metrics, lag);
    report.closed(&closed);
    report.peak_rss_mb = sys::peak_rss_mb();
    report.disk_bytes_per_edit = disk_bytes as f64 / edits.max(1) as f64;
    report.plan(digest, baseline, &engine_opts);
    match gate {
        Ok(g) => report.ability_spearman = g.ability_spearman,
        Err(e) => report.fail(format!("correctness gate: {e}")),
    }
    if !lag.valid((MAX_BACKLOG_SHARE * gen.open.len() as f64) as usize) {
        report.fail(format!(
            "invalid run: the load generator fell behind ({} commands unsent when the schedule \
             ended, lag p99 {:.2} ms)",
            lag.backlog_end, lag.p99_ms
        ));
    }

    if args.trace {
        let inner = THREADS / stack::WORKERS;
        let off = traced::replay(
            &gen,
            engine_opts,
            &run_dir.join("replay-off"),
            &gen.open,
            false,
            inner,
        );
        let on = traced::replay(
            &gen,
            engine_opts,
            &run_dir.join("replay-on"),
            &gen.open,
            true,
            inner,
        );
        let spans_path = state.join(format!("spans-{}-{}.tsv", spec.workload.name(), args.seed));
        traced::dump(&on.tracer.spans, &spans_path)
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            on.tracer.spans.len(),
            spans_path.display()
        );
        // The engines' own decisions must be the ones the digest covers.
        for (s, expected) in decisions.iter().enumerate() {
            if on.counts.decisions.get(&s) != Some(expected) {
                report.note(format!(
                    "session {s}: the engine planned {:?}, the digest assumed {expected:?}",
                    on.counts.decisions.get(&s)
                ));
            }
        }
        report.traced(&on, on.wall_s / off.wall_s - 1.0);
    }
    Ok(report)
}
