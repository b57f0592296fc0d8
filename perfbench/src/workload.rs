//! Workload definitions and seeded trace generation.
//!
//! A workload is a fixed fleet *shape* (session sizes, popularity, command
//! mix, arrival rate) plus seeded *content*: abilities, item parameters,
//! prefilled answers, arrival times and which cells each submit edits.
//! Shapes are deterministic schedules (stratified quantiles, fixed
//! popularity ranks) so that a different seed changes the data and the
//! arrival process but not how much work the fleet holds — that keeps
//! the run-to-run spread of the figures small.
//!
//! Answers come from the Samejima multiple-choice model of `hnd-irt`
//! (`generate_from_items`), so the true abilities are known and the
//! final rankings can be scored against them. Later edits are fresh draws
//! from the same items: a user (re-)answering an item.

use hnd_irt::{generate_from_items, PolytomousModel, SamejimaItem};
use hnd_service::{ResponseLog, ResponseMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three traffic shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Classroom,
    Cohort,
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Classroom, Workload::Cohort, Workload::Churn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Classroom => "classroom",
            Workload::Cohort => "cohort",
            Workload::Churn => "churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed shape and traffic parameters.
    pub fn spec(self) -> Spec {
        match self {
            Workload::Classroom => Spec {
                workload: self,
                rate_per_s: 2500.0,
                latency_limit_ms: 50.0,
                sessions: classroom_shapes(),
                popularity: Popularity::Zipf(1.0),
                mix: Mix {
                    submit: 0.55,
                    rank_of: 0.25,
                    top_k: 0.15,
                    catch_up: 0.05,
                },
                submit_edits: (1, 16),
                top_k: 10,
                idle_threshold: None,
            },
            Workload::Cohort => {
                let mut sessions = vec![Shape {
                    users: 60_000,
                    items: 40,
                    prefill: 0.5,
                }];
                sessions.extend((0..4).map(|_| Shape {
                    users: 300,
                    items: 30,
                    prefill: 0.5,
                }));
                Spec {
                    workload: self,
                    rate_per_s: 1250.0,
                    latency_limit_ms: 250.0,
                    sessions,
                    // The cohort takes 1.6% of the commands (20/s) and
                    // nearly all of the work; the classroom traffic
                    // supplies the samples. The p50s show the small
                    // sessions; cohort reads that wait for a solve are
                    // about 1.2% of the reads, so the read p99 sits at
                    // the cohort's warm-solve time.
                    popularity: Popularity::Weights(vec![0.016, 0.246, 0.246, 0.246, 0.246]),
                    mix: Mix {
                        submit: 0.20,
                        rank_of: 0.50,
                        top_k: 0.30,
                        catch_up: 0.0,
                    },
                    submit_edits: (32, 32),
                    top_k: 100,
                    idle_threshold: None,
                }
            }
            Workload::Churn => Spec {
                workload: self,
                rate_per_s: 700.0,
                latency_limit_ms: 100.0,
                sessions: (0..600)
                    .map(|i| Shape {
                        users: log_quantile(100.0, 1000.0, stratum(i, 600)),
                        items: 30,
                        prefill: 0.5,
                    })
                    .collect(),
                popularity: Popularity::Uniform,
                mix: Mix {
                    submit: 0.50,
                    rank_of: 0.25,
                    top_k: 0.25,
                    catch_up: 0.0,
                },
                submit_edits: (8, 8),
                top_k: 10,
                // Manager ticks (two per single-command worker pass): with
                // uniform picks over 600 sessions this keeps roughly the
                // last 60 touched sessions resident.
                idle_threshold: Some(128),
            },
        }
    }
}

/// Midpoint quantile of stratum `i` of `n`.
fn stratum(i: usize, n: usize) -> f64 {
    (i as f64 + 0.5) / n as f64
}

/// Log-uniform quantile between `lo` and `hi`.
fn log_quantile(lo: f64, hi: f64, q: f64) -> usize {
    (lo * (hi / lo).powf(q)).round() as usize
}

/// 96 classrooms: 80% between 30 and 200 users, 20% between 200 and 2000
/// (log-uniform strata), 20–60 items on a stride so size and item count
/// are not correlated.
fn classroom_shapes() -> Vec<Shape> {
    const N: usize = 96;
    const SMALL: usize = 77;
    (0..N)
        .map(|i| {
            let users = if i < SMALL {
                log_quantile(30.0, 200.0, stratum(i, SMALL))
            } else {
                log_quantile(200.0, 2000.0, stratum(i - SMALL, N - SMALL))
            };
            Shape {
                users,
                items: 20 + (i * 37 % N) * 40 / (N - 1),
                prefill: 0.5,
            }
        })
        .collect()
}

/// One session's fixed size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub users: usize,
    pub items: usize,
    /// Share of the cells answered before traffic starts.
    pub prefill: f64,
}

/// Options per item in every workload.
pub const OPTIONS: u16 = 4;

/// How commands pick their session.
#[derive(Debug, Clone, PartialEq)]
pub enum Popularity {
    Uniform,
    /// Zipf with this exponent over a fixed popularity order of the
    /// sessions (see [`Spec::popularity_weights`]).
    Zipf(f64),
    /// Explicit per-session weights.
    Weights(Vec<f64>),
}

/// Command mix; shares sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    pub submit: f64,
    pub rank_of: f64,
    pub top_k: f64,
    pub catch_up: f64,
}

/// Everything fixed about a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workload: Workload,
    /// Open-loop Poisson arrival rate, commands per second.
    pub rate_per_s: f64,
    /// A command counts toward goodput only within this latency.
    pub latency_limit_ms: f64,
    pub sessions: Vec<Shape>,
    pub popularity: Popularity,
    pub mix: Mix,
    /// Edits per submit, inclusive range.
    pub submit_edits: (usize, usize),
    /// `k` of the workload's `top_k` reads.
    pub top_k: usize,
    /// Server idle-eviction threshold in manager ticks.
    pub idle_threshold: Option<u64>,
}

impl Spec {
    /// Normalized per-session pick probabilities. Zipf ranks are assigned
    /// on a fixed stride through the session list, so the hottest session
    /// is the same one under every seed.
    pub fn popularity_weights(&self) -> Vec<f64> {
        let n = self.sessions.len();
        let raw: Vec<f64> = match &self.popularity {
            Popularity::Uniform => vec![1.0; n],
            Popularity::Weights(w) => w.clone(),
            Popularity::Zipf(s) => {
                let mut w = vec![0.0; n];
                for rank in 0..n {
                    w[(rank * 53 + 7) % n] = 1.0 / ((rank + 1) as f64).powf(*s);
                }
                w
            }
        };
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|x| x / total).collect()
    }

    pub fn total_users(&self) -> usize {
        self.sessions.iter().map(|s| s.users).sum()
    }
}

/// One session's generated content.
pub struct SessionData {
    pub shape: Shape,
    /// True abilities (the generator's latent θ).
    pub abilities: Vec<f64>,
    pub items: Vec<SamejimaItem>,
    /// The prefilled answers the session is bulk-loaded with.
    pub initial: ResponseMatrix,
}

impl SessionData {
    /// The log the session is bulk-loaded from (version 0).
    pub fn initial_log(&self) -> ResponseLog {
        ResponseLog::from_matrix(&self.initial)
    }
}

/// The generator's items, following `hnd-irt`'s Samejima convention:
/// slopes `U[0, 10]` sorted ascending (option index = quality),
/// intercepts `−a·U[−0.5, 0.5]`.
fn samejima_items(n_items: usize, rng: &mut StdRng) -> Vec<SamejimaItem> {
    (0..n_items)
        .map(|_| {
            let mut slopes: Vec<f64> = (0..OPTIONS).map(|_| rng.gen::<f64>() * 10.0).collect();
            slopes.sort_by(f64::total_cmp);
            let intercepts = slopes
                .iter()
                .map(|&a| -a * rng.gen_range(-0.5..0.5))
                .collect();
            SamejimaItem::new(slopes, intercepts)
        })
        .collect()
}

/// One categorical draw from the item's option probabilities at `theta`.
fn draw_answer(item: &SamejimaItem, theta: f64, rng: &mut StdRng) -> u16 {
    let mut probs = [0.0; OPTIONS as usize];
    item.option_probs(theta, &mut probs);
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (h, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return h as u16;
        }
    }
    OPTIONS - 1
}

fn generate_session(shape: Shape, rng: &mut StdRng) -> SessionData {
    let abilities: Vec<f64> = (0..shape.users).map(|_| rng.gen::<f64>()).collect();
    let items = samejima_items(shape.items, rng);
    let correct = vec![OPTIONS - 1; shape.items];
    let sheet = generate_from_items(&items, &correct, &abilities, rng).responses;
    let options = vec![OPTIONS; shape.items];
    let rows: Vec<Vec<Option<u16>>> = (0..shape.users)
        .map(|u| {
            sheet
                .user_row(u)
                .iter()
                .map(|&c| c.filter(|_| rng.gen::<f64>() < shape.prefill))
                .collect()
        })
        .collect();
    let row_refs: Vec<&[Option<u16>]> = rows.iter().map(Vec::as_slice).collect();
    let initial = ResponseMatrix::from_choices(shape.items, &options, &row_refs)
        .expect("generated rows match the shape");
    SessionData {
        shape,
        abilities,
        items,
        initial,
    }
}

/// What one command asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Submit(Vec<(usize, usize, Option<u16>)>),
    RankOf(usize),
    TopK(usize),
    /// Compacted delta from the client's cached version to head.
    CatchUp(u64),
}

impl Op {
    pub fn is_submit(&self) -> bool {
        matches!(self, Op::Submit(_))
    }
}

/// One generated command.
#[derive(Debug, Clone, PartialEq)]
pub struct Cmd {
    /// Scheduled send time, nanoseconds after the open-loop start
    /// (`u64::MAX` for the closed saturation segment, which ignores it).
    pub at_ns: u64,
    /// Index into [`Generated::sessions`].
    pub session: usize,
    pub op: Op,
    /// The session version the generator predicts this submit returns
    /// (every edit changes its cell, so each bumps the version by one).
    pub expect_version: u64,
}

/// A workload's generated inputs: sessions, the open-loop trace and the
/// closed saturation segment.
pub struct Generated {
    pub spec: Spec,
    pub sessions: Vec<SessionData>,
    /// Commands replayed open-loop at their scheduled times.
    pub open: Vec<Cmd>,
    /// Commands the closed saturation phase draws from, in order.
    pub closed: Vec<Cmd>,
}

/// Per-session generator state: a mirror of the answers (so every edit
/// is a real change and versions are predictable) and recent versions
/// for catch-up clients.
struct Mirror {
    choices: Vec<Option<u16>>,
    items: usize,
    version: u64,
    recent: Vec<u64>,
}

/// Builds the workload's inputs for `seed`: `open_s` seconds of Poisson
/// arrivals followed by `closed_cmds` saturation commands.
pub fn generate(spec: &Spec, seed: u64, open_s: f64, closed_cmds: usize) -> Generated {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05EE_D0FB_3AC4);
    let sessions: Vec<SessionData> = spec
        .sessions
        .iter()
        .map(|&shape| generate_session(shape, &mut rng))
        .collect();
    let mut mirrors: Vec<Mirror> = sessions
        .iter()
        .map(|s| Mirror {
            choices: (0..s.shape.users)
                .flat_map(|u| s.initial.user_row(u).iter().copied())
                .collect(),
            items: s.shape.items,
            version: 0,
            recent: vec![0],
        })
        .collect();
    let cdf: Vec<f64> = spec
        .popularity_weights()
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let mut next = |rng: &mut StdRng, at_ns: u64| -> Cmd {
        let u: f64 = rng.gen();
        let session = cdf.partition_point(|&c| c <= u).min(sessions.len() - 1);
        next_cmd(
            spec,
            &sessions[session],
            &mut mirrors[session],
            session,
            at_ns,
            rng,
        )
    };
    let mut open = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Exponential inter-arrival gaps: a Poisson process at the rate.
        t += -(1.0 - rng.gen::<f64>()).ln() / spec.rate_per_s;
        if t >= open_s {
            break;
        }
        let cmd = next(&mut rng, (t * 1e9) as u64);
        open.push(cmd);
    }
    let closed = (0..closed_cmds).map(|_| next(&mut rng, u64::MAX)).collect();
    Generated {
        spec: spec.clone(),
        sessions,
        open,
        closed,
    }
}

fn next_cmd(
    spec: &Spec,
    data: &SessionData,
    mirror: &mut Mirror,
    session: usize,
    at_ns: u64,
    rng: &mut StdRng,
) -> Cmd {
    let mix = spec.mix;
    let pick: f64 = rng.gen();
    let op = if pick < mix.submit {
        let (lo, hi) = spec.submit_edits;
        let want = rng.gen_range(lo..=hi);
        let mut edits = Vec::with_capacity(want);
        // Draws that repeat the current answer are no-ops in the log;
        // redraw so the batch carries `want` real changes.
        while edits.len() < want {
            let user = rng.gen_range(0..data.shape.users);
            let item = rng.gen_range(0..data.shape.items);
            let choice = Some(draw_answer(&data.items[item], data.abilities[user], rng));
            let cell = &mut mirror.choices[user * mirror.items + item];
            if *cell != choice {
                *cell = choice;
                edits.push((user, item, choice));
            }
        }
        mirror.version += edits.len() as u64;
        mirror.recent.push(mirror.version);
        if mirror.recent.len() > 8 {
            mirror.recent.remove(0);
        }
        Op::Submit(edits)
    } else if pick < mix.submit + mix.rank_of {
        Op::RankOf(rng.gen_range(0..data.shape.users))
    } else if pick < mix.submit + mix.rank_of + mix.top_k {
        Op::TopK(spec.top_k)
    } else {
        // A client that last synced a few submits ago.
        Op::CatchUp(mirror.recent[rng.gen_range(0..mirror.recent.len())])
    };
    Cmd {
        at_ns,
        session,
        op,
        expect_version: mirror.version,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace() {
        let mut spec = Workload::Churn.spec();
        spec.sessions.truncate(20);
        let a = generate(&spec, 7, 0.5, 50);
        let b = generate(&spec, 7, 0.5, 50);
        assert_eq!(a.open, b.open);
        assert_eq!(a.closed, b.closed);
        let c = generate(&spec, 8, 0.5, 50);
        assert_ne!(a.open, c.open);
    }

    #[test]
    fn predicted_versions_match_a_sequential_replay() {
        let mut spec = Workload::Classroom.spec();
        spec.sessions.truncate(6);
        let g = generate(&spec, 3, 1.0, 200);
        let mut logs: Vec<ResponseLog> = g.sessions.iter().map(SessionData::initial_log).collect();
        for cmd in g.open.iter().chain(&g.closed) {
            if let Op::Submit(edits) = &cmd.op {
                let v = logs[cmd.session].submit(edits.iter().copied()).unwrap();
                assert_eq!(v, cmd.expect_version);
            }
        }
    }

    #[test]
    fn classroom_shape_matches_its_description() {
        let spec = Workload::Classroom.spec();
        assert_eq!(spec.sessions.len(), 96);
        let small = spec.sessions.iter().filter(|s| s.users <= 200).count();
        assert!(small > 70, "most classrooms hold at most 200 users");
        assert!(spec.sessions.iter().all(|s| (30..=2000).contains(&s.users)));
        assert!(spec.sessions.iter().all(|s| (20..=60).contains(&s.items)));
        let w = spec.popularity_weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
