//! Correctness gates run at the end of every run. Any failure fails the
//! run; none of them is a metric.

use crate::stats::ability_spearman;
use crate::workload::{Cmd, Generated, Op};
use hnd_service::{
    EngineOpts, PlanMode, RankingEngine, ResponseLog, ServerError, SessionId, SessionServer,
    SessionStore, SolverOpts, StoreOpts,
};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// What the gates measured on the way.
pub struct GateReport {
    /// Final log of every session, as the server returned it.
    pub logs: Vec<ResponseLog>,
    /// User-weighted |Spearman| of the exact final rankings against the
    /// true abilities.
    pub ability_spearman: f64,
}

/// Gate 1: every session's final log equals a sequential replay of its
/// acknowledged submits, and every ack is exactly the replayed version
/// at that point (so also ≤ the final version). `sent` lists each sent
/// command with its result, in send order.
pub fn check_logs(
    gen: &Generated,
    srv: &SessionServer,
    ids: &[SessionId],
    sent: &[(&Cmd, &Result<Option<u64>, ServerError>)],
) -> Result<Vec<ResponseLog>, String> {
    let mut replay: Vec<ResponseLog> = gen.sessions.iter().map(|s| s.initial_log()).collect();
    for (cmd, result) in sent {
        let (Op::Submit(edits), Ok(Some(ack))) = (&cmd.op, result) else {
            continue;
        };
        let log = &mut replay[cmd.session];
        let version = log
            .submit(edits.iter().copied())
            .map_err(|e| format!("replay of session {} rejected a submit: {e}", cmd.session))?;
        if *ack != version {
            return Err(format!(
                "session {}: submit acked version {ack}, sequential replay gives {version}",
                cmd.session
            ));
        }
    }
    let mut logs = Vec::with_capacity(ids.len());
    for (s, (&id, expected)) in ids.iter().zip(&replay).enumerate() {
        let log = srv
            .session_log(id)
            .wait()
            .map_err(|e| format!("session_log of session {s}: {e}"))?;
        same_log(&log, expected).map_err(|e| format!("session {s}: served log {e}"))?;
        logs.push(log);
    }
    Ok(logs)
}

/// Equal version and equal answers in every cell.
fn same_log(a: &ResponseLog, b: &ResponseLog) -> Result<(), String> {
    if a.version() != b.version() {
        return Err(format!(
            "at version {} but expected {}",
            a.version(),
            b.version()
        ));
    }
    if (a.n_users(), a.n_items()) != (b.n_users(), b.n_items()) {
        return Err("has a different roster".into());
    }
    for u in 0..a.n_users() {
        if a.user_row(u) != b.user_row(u) {
            return Err(format!("differs in user {u}'s answers"));
        }
    }
    Ok(())
}

/// Convergence tolerance of the reference solves: far below the serving
/// tolerance, so the reference order is settled wherever the serving
/// path's certificate could be.
const REFERENCE_TOL: f64 = 1e-10;

/// The reference engine configuration for exact answers: single-shard,
/// hand-tuned constants and a tight tolerance, so the check does not
/// share the planner or the shard layer with the path under test.
fn reference_opts() -> EngineOpts {
    let defaults = EngineOpts::default();
    EngineOpts {
        solver_opts: SolverOpts {
            tol: REFERENCE_TOL,
            ..defaults.solver_opts
        },
        shard_plan: None,
        planner: None,
        plan_mode: PlanMode::Static,
        ..defaults
    }
}

/// Whether `certified` is a top-`k` membership of the reference `scores`
/// (`order` is their best-to-worst order): it holds every user scoring
/// more than `tie` above the k-th best score and nobody scoring more than
/// `tie` below it. Users within `tie` of the k-th best score are ties the
/// reference cannot order (identical answer rows score identically), so
/// any of them may take the last places.
pub fn same_top_k(
    scores: &[f64],
    order: &[usize],
    certified: &BTreeSet<usize>,
    k: usize,
    tie: f64,
) -> bool {
    let kth = scores[order[k - 1]];
    certified.len() == k
        && certified
            .iter()
            .all(|&u| scores.get(u).is_some_and(|&x| x >= kth - tie))
        && order[..k]
            .iter()
            .all(|u| scores[*u] <= kth + tie || certified.contains(u))
}

/// Gate 2: certified `top_k` from the server has the membership of the
/// exact top-k of an independent reference solve, up to ties the
/// reference cannot resolve. Returns the user-weighted ability Spearman
/// of those exact rankings.
pub fn check_top_k(
    gen: &Generated,
    srv: &SessionServer,
    ids: &[SessionId],
    logs: &[ResponseLog],
) -> Result<f64, String> {
    let k = gen.spec.top_k;
    let (mut weighted, mut users) = (0.0, 0usize);
    for (s, (&id, log)) in ids.iter().zip(logs).enumerate() {
        let certified = srv
            .top_k(id, k)
            .wait()
            .map_err(|e| format!("final top_k of session {s}: {e}"))?;
        let mut reference = RankingEngine::from_log(log.clone(), reference_opts())
            .map_err(|e| format!("reference engine for session {s}: {e}"))?;
        let exact = reference
            .current_ranking()
            .map_err(|e| format!("reference solve of session {s}: {e}"))?;
        let k = k.min(exact.len());
        let order = exact.order_best_to_worst();
        let norm = exact.scores.iter().map(|x| x * x).sum::<f64>().sqrt();
        let certified_set: BTreeSet<usize> = certified.iter().map(|&(u, _)| u).collect();
        if !same_top_k(
            &exact.scores,
            &order,
            &certified_set,
            k,
            REFERENCE_TOL * norm,
        ) {
            let exact_set: BTreeSet<usize> = order[..k].iter().copied().collect();
            let describe = |u: usize| match order.iter().position(|&v| v == u) {
                Some(rank) => format!(
                    "user {u} (exact rank {rank}, score {:.12})",
                    exact.scores[u]
                ),
                None => format!("user {u} (not in the roster)"),
            };
            let only_certified: Vec<String> = certified_set
                .difference(&exact_set)
                .map(|&u| describe(u))
                .collect();
            let only_exact: Vec<String> = exact_set
                .difference(&certified_set)
                .map(|&u| describe(u))
                .collect();
            let bottom: BTreeSet<usize> = order[order.len() - k..].iter().copied().collect();
            let what = match order.get(k) {
                _ if certified_set == bottom => {
                    "it is the exact bottom-k, the ranking reversed".to_string()
                }
                Some(&next) => format!(
                    "exact gap at the boundary {:.3e} of the score norm",
                    (exact.scores[order[k - 1]] - exact.scores[next]) / norm
                ),
                None => "the whole roster".to_string(),
            };
            return Err(format!(
                "session {s} ({} users, version {}): certified top-{k} membership differs from \
                 the exact top-{k} ({what}): only certified {only_certified:?}, only exact \
                 {only_exact:?}",
                exact.len(),
                log.version()
            ));
        }
        let data = &gen.sessions[s];
        weighted += ability_spearman(&exact.scores, &data.abilities) * data.abilities.len() as f64;
        users += data.abilities.len();
    }
    Ok(weighted / users as f64)
}

/// Gate 3 (after the first server has flushed and shut down): a fresh
/// server over the same store directory adopts every session at the same
/// version and log. Gate 4: neither server saw store damage, store
/// errors or quarantines.
pub fn check_restart(
    dir: &Path,
    ids: &[SessionId],
    logs: &[ResponseLog],
    opts: hnd_service::ServerOpts,
) -> Result<(), String> {
    let store = SessionStore::open(dir, StoreOpts::default())
        .map_err(|e| format!("reopen the store: {e}"))?;
    let srv = SessionServer::with_store(opts, Arc::new(store));
    if srv.len() != ids.len() {
        return Err(format!(
            "restarted server adopted {} sessions, expected {}",
            srv.len(),
            ids.len()
        ));
    }
    for (s, (&id, expected)) in ids.iter().zip(logs).enumerate() {
        let log = srv
            .session_log(id)
            .wait()
            .map_err(|e| format!("restarted session {s}: {e}"))?;
        same_log(&log, expected).map_err(|e| format!("restarted session {s}: log {e}"))?;
    }
    check_health(&srv, "restarted server")
}

/// Gate 4 for one server.
pub fn check_health(srv: &SessionServer, what: &str) -> Result<(), String> {
    let mgr = srv.manager_stats();
    if mgr.quarantines != 0 || mgr.store_errors != 0 {
        return Err(format!(
            "{what}: {} quarantines, {} store errors",
            mgr.quarantines, mgr.store_errors
        ));
    }
    if let Some(store) = srv.store_stats() {
        if store.damaged_frames() != 0 || store.snapshot_failures != 0 {
            return Err(format!(
                "{what}: {} damaged WAL frames, {} snapshot failures",
                store.damaged_frames(),
                store.snapshot_failures
            ));
        }
    }
    Ok(())
}

/// Runs every gate on a finished run. Flushes and drops `srv`.
pub fn run_all(
    gen: &Generated,
    srv: SessionServer,
    ids: &[SessionId],
    sent: &[(&Cmd, &Result<Option<u64>, ServerError>)],
    dir: &Path,
    opts: hnd_service::ServerOpts,
) -> Result<GateReport, String> {
    let logs = check_logs(gen, &srv, ids, sent)?;
    let spearman = check_top_k(gen, &srv, ids, &logs)?;
    check_health(&srv, "server")?;
    srv.flush_store().map_err(|e| format!("flush_store: {e}"))?;
    drop(srv);
    check_restart(dir, ids, logs.as_slice(), opts)?;
    Ok(GateReport {
        logs,
        ability_spearman: spearman,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(users: &[usize]) -> BTreeSet<usize> {
        users.iter().copied().collect()
    }

    #[test]
    fn top_k_membership_allows_only_boundary_ties() {
        // Users 1 and 2 tie for second place; 3 is clearly below.
        let scores = [0.9, 0.5, 0.5, 0.1];
        let order = [0, 1, 2, 3];
        let tie = 1e-10;
        assert!(same_top_k(&scores, &order, &set(&[0, 1]), 2, tie));
        assert!(same_top_k(&scores, &order, &set(&[0, 2]), 2, tie));
        assert!(!same_top_k(&scores, &order, &set(&[0, 3]), 2, tie));
        assert!(!same_top_k(&scores, &order, &set(&[1, 2]), 2, tie));
        assert!(!same_top_k(&scores, &order, &set(&[0]), 2, tie));
        assert!(!same_top_k(&scores, &order, &set(&[0, 7]), 2, tie));
        // A gap wider than the tie band is a real boundary.
        let scores = [0.9, 0.5, 0.5 - 1e-6, 0.1];
        assert!(!same_top_k(&scores, &order, &set(&[0, 2]), 2, tie));
        // The reversed ranking's head is the exact bottom.
        assert!(!same_top_k(&scores, &order, &set(&[2, 3]), 2, tie));
    }
}
