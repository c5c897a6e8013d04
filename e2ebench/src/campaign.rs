//! The lock-step campaign: virtual users submit over HTTP, poll their
//! results pages, the daemon fleet ticks, the grid clock advances one
//! poll interval, and the database is compacted on a simulated-time
//! cadence. One thread drives it over one keep-alive connection, so the
//! simulated-time outcome is a pure function of the seed.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Duration, Instant};

use amp_core::models::{GridJobRecord, Simulation};
use amp_core::{roles, SimStatus};
use amp_grid::SimDuration;
use amp_simdb::orm::Manager;

use crate::client::Client;
use crate::cpu;
use crate::gen::{arrivals, Arrival, CampaignShape, Job};
use crate::stack::{login, nav_link, result_parses, Stack, SIZES, STEP_SECS};
use crate::stats::{Samples, Tally};
use crate::trace;

/// The campaign every `campaign`/`contended` round runs (sizes in
/// README.md). Two simulated days of arrivals, mostly direct runs.
pub fn shape() -> CampaignShape {
    CampaignShape {
        sims: 264,
        arrival_steps: 576,
        users: SIZES.users,
        targets: SIZES.targets,
        optimization_share: 0.2,
        stellar_share: 0.4,
        stellar_optimization_share: 0.15,
    }
}

/// Virtual users log in again once their session is this old (the
/// portal's sessions last twelve simulated hours).
const RELOGIN_AFTER_SECS: i64 = 11 * 3600;

/// Compaction cadence: every 72 steps, i.e. every six simulated hours.
pub const COMPACT_EVERY_STEPS: u64 = 72;
/// Steps allowed after the last arrival before the campaign counts as
/// stuck (two simulated weeks).
const DRAIN_LIMIT_STEPS: u64 = 4_032;

/// Per-item daemon timings, collected only while profiling.
#[derive(Debug, Default)]
pub struct TickTimes {
    pub ticks: Vec<Duration>,
    pub claims: Vec<Duration>,
    pub polls: Vec<Duration>,
    pub steps: Vec<Duration>,
}

#[derive(Debug, Default)]
pub struct CampaignOutcome {
    /// Wall time of the lock-step loop.
    pub wall: Duration,
    /// CPU time over the lock-step loop: of the whole process, and of
    /// the driving thread alone.
    pub cpu_process: Duration,
    pub cpu_thread: Duration,
    /// Results-page poll round-trips (µs).
    pub polls: Samples,
    /// Submit round-trips (µs).
    pub submits: Samples,
    pub tally: Tally,
    /// Simulations submitted (ids) and how many reached DONE.
    pub sims: Vec<i64>,
    pub done: usize,
    /// Simulated-time turnaround of each campaign simulation (hours).
    pub turnaround_h: Samples,
    pub makespan_h: f64,
    pub steps: u64,
    pub tick_count: u64,
    pub tick_times: TickTimes,
    pub advances: Vec<Duration>,
    pub compactions: Vec<Duration>,
    /// Sum of every timed top-level call (HTTP, ticks, advances,
    /// compactions): the reconciliation's parts.
    pub timed: Duration,
    /// Bytes appended to the WAL during the campaign.
    pub wal_bytes: u64,
    /// GRAM submits and GridFTP transfers the grid audited.
    pub gram_submits: usize,
    pub transfers: usize,
}

fn wal_len(stack: &Stack) -> u64 {
    std::fs::metadata(stack.dir.join("wal.log"))
        .map(|m| m.len())
        .unwrap_or(0)
}

fn submit(
    client: &mut Client,
    stack: &Stack,
    a: &Arrival,
    out: &mut CampaignOutcome,
) -> Result<i64, String> {
    let fx = &stack.fx;
    let target = &fx.targets(a.app)[a.target];
    let mut form: Vec<(&str, String)> = Vec::new();
    let kind = match &a.job {
        Job::Direct(params) => {
            form.extend(params.iter().map(|(k, v)| (*k, v.to_string())));
            "direct"
        }
        Job::Optimization {
            ga_runs,
            generations,
        } => {
            form.push(("observation", target.obs_id.to_string()));
            form.push(("ga_runs", ga_runs.to_string()));
            form.push(("generations", generations.to_string()));
            "optimization"
        }
    };
    form.push(("allocation", fx.alloc.to_string()));
    let path = format!("/submit/{}/{kind}/{}", a.app.id(), target.star_id);
    let mut span = trace::enter("http.submit", None);
    let reply = client.post(&path, &form, Some(&fx.sessions.get(a.user)));
    let id = reply.as_ref().ok().and_then(|r| {
        r.header("Location")?
            .strip_prefix("/simulation/")?
            .parse::<i64>()
            .ok()
    });
    if let Some(id) = id {
        span.set_sim(id);
    }
    out.timed += span.finish();
    let reply = reply?;
    out.submits.push(reply.rtt.as_secs_f64() * 1e6);
    match (reply.status, id) {
        (302, Some(id)) => Ok(id),
        (status, _) => Err(format!("submit {kind}: status {status}")),
    }
}

/// Poll one results page; the status it shows, once the page is a 200
/// that names its simulation.
fn poll(
    client: &mut Client,
    stack: &Stack,
    id: i64,
    owner: usize,
    out: &mut CampaignOutcome,
) -> Result<String, String> {
    let span = trace::enter("http.poll", Some(id));
    let reply = client.get(
        &format!("/simulation/{id}"),
        Some(&stack.fx.sessions.get(owner)),
    );
    out.timed += span.finish();
    let reply = reply?;
    out.polls.push(reply.rtt.as_secs_f64() * 1e6);
    if reply.status != 200 {
        return Err(format!("results page: status {}", reply.status));
    }
    if !reply.body.contains(&format!("Simulation #{id} ")) {
        return Err("results page does not name its simulation".into());
    }
    if !reply.body.contains(&nav_link(&stack.fx.users[owner].name)) {
        return Err("results page is not logged in".into());
    }
    let status = reply
        .body
        .split_once("Status: <b>")
        .and_then(|(_, rest)| rest.split_once("</b>"))
        .map(|(s, _)| s.to_string())
        .ok_or("results page shows no status")?;
    Ok(status)
}

/// One daemon tick, timed; with profiling on, its per-item profile is
/// recorded as child spans and kept for the per-layer table.
fn tick(stack: &mut Stack, i: usize, out: &mut CampaignOutcome) {
    let span = trace::enter("gridamp.tick", None);
    let parent = span.id();
    let started = Instant::now();
    stack.daemons[i].tick(&stack.grid);
    let took = span.finish();
    out.timed += took;
    out.tick_count += 1;
    if let Some(p) = &stack.daemons[i].profile {
        let times = &mut out.tick_times;
        let claim = took.saturating_sub(p.total);
        times.ticks.push(took);
        times.claims.push(claim);
        // The sequential engine runs the claim phase, then every poll,
        // then every step; item starts are laid end to end from there.
        let mut at = started + claim;
        for (sim, d) in &p.poll_items {
            trace::record_child("gridamp.poll", parent, at, *d, Some(*sim));
            times.polls.push(*d);
            at += *d;
        }
        for (sim, d) in &p.step_items {
            trace::record_child("gridamp.step", parent, at, *d, Some(*sim));
            times.steps.push(*d);
            at += *d;
        }
    }
}

/// Run one campaign on a freshly built stack.
pub fn run(stack: &mut Stack, seed: u64) -> Result<CampaignOutcome, String> {
    let plan = arrivals(seed, &shape());
    let mut out = CampaignOutcome::default();
    let mut client = Client::connect(stack.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut next = 0usize;
    // live simulation -> owning virtual user
    let mut live: BTreeMap<i64, usize> = BTreeMap::new();
    let mut wal_written = 0u64;
    let mut wal_mark = wal_len(stack);
    let last_arrival = plan.last().map(|a| a.step).unwrap_or(0);

    // simulated time each user last logged in (set-up logged all in)
    let mut logged_in = vec![stack.grid.now().as_secs() as i64; stack.fx.users.len()];

    let start = Instant::now();
    let (cpu_process, cpu_thread) = (cpu::process(), cpu::thread());
    let mut step = 0u64;
    loop {
        let now = stack.grid.now().as_secs() as i64;
        stack.portal.set_now(now);
        // 1. users whose sessions are about to lapse log in again
        for (u, at) in logged_in.iter_mut().enumerate() {
            if now - *at < RELOGIN_AFTER_SECS {
                continue;
            }
            let span = trace::enter("http.login", None);
            let session = login(&mut client, &stack.fx.users[u].name);
            out.timed += span.finish();
            if let Some(session) = out.tally.record(session) {
                stack.fx.sessions.set(u, session);
                *at = now;
            }
        }
        // 2. arrivals due this step submit over HTTP
        while next < plan.len() && plan[next].step <= step {
            let a = &plan[next];
            next += 1;
            let submitted = submit(&mut client, stack, a, &mut out);
            if let Some(id) = out.tally.record(submitted) {
                out.sims.push(id);
                live.insert(id, a.user);
            }
        }
        // 3. every user polls each of their live simulations
        let ids: Vec<(i64, usize)> = live.iter().map(|(id, u)| (*id, *u)).collect();
        for (id, owner) in ids {
            match poll(&mut client, stack, id, owner, &mut out) {
                Ok(status) if status == SimStatus::Done.as_str() => {
                    out.tally.ok();
                    live.remove(&id);
                }
                Ok(status) if status == SimStatus::Hold.as_str() => {
                    out.tally.fail(format!("simulation went to {status}"));
                    live.remove(&id);
                }
                Ok(_) => out.tally.ok(),
                Err(e) => out.tally.fail(e),
            }
        }
        if next == plan.len() && live.is_empty() {
            break;
        }
        if step > last_arrival + DRAIN_LIMIT_STEPS {
            for _ in &live {
                out.tally.fail("simulation never finished");
            }
            break;
        }
        // 4. the daemon fleet ticks
        for i in 0..stack.daemons.len() {
            tick(stack, i, &mut out);
        }
        // 5. the grid clock moves one poll interval
        let span = trace::enter("grid.advance", None);
        stack.grid.advance(SimDuration::from_secs(STEP_SECS));
        let took = span.finish();
        out.advances.push(took);
        out.timed += took;
        step += 1;
        // 6. the operator's checkpoint cron
        if step.is_multiple_of(COMPACT_EVERY_STEPS) {
            let before = wal_len(stack);
            wal_written += before.saturating_sub(wal_mark);
            let span = trace::enter("simdb.compact", None);
            let res = stack.db.compact();
            let took = span.finish();
            out.compactions.push(took);
            out.timed += took;
            out.tally.record(res.map_err(|e| format!("compact: {e}")));
            wal_mark = wal_len(stack);
        }
    }
    out.wall = start.elapsed();
    out.cpu_process = cpu::process() - cpu_process;
    out.cpu_thread = cpu::thread() - cpu_thread;
    out.steps = step;
    out.wal_bytes = wal_written + wal_len(stack).saturating_sub(wal_mark);
    verify(stack, &mut out)?;
    Ok(out)
}

/// Output checks on the finished campaign: every simulation DONE with a
/// parseable result, and a fully attributed GRAM audit log with exactly
/// one submit per job record and no duplicate job keys.
fn verify(stack: &Stack, out: &mut CampaignOutcome) -> Result<(), String> {
    let admin = stack
        .db
        .connect(roles::ROLE_ADMIN)
        .map_err(|e| format!("admin: {e}"))?;
    let sims = Manager::<Simulation>::new(admin.clone());
    let mut created = i64::MAX;
    let mut completed = i64::MIN;
    for id in &out.sims {
        let sim = sims.get(*id).map_err(|e| format!("sim {id}: {e}"))?;
        let (Some(done_at), SimStatus::Done) = (sim.completed_at, sim.status) else {
            out.tally.fail(format!("simulation ended {}", sim.status));
            continue;
        };
        if !result_parses(&sim) {
            out.tally.fail("result does not parse");
            continue;
        }
        out.tally.ok();
        out.done += 1;
        created = created.min(sim.created_at);
        completed = completed.max(done_at);
        out.turnaround_h
            .push((done_at - sim.created_at) as f64 / 3600.0);
    }
    if out.done > 0 {
        out.makespan_h = (completed - created) as f64 / 3600.0;
    }

    let ours: HashSet<i64> = out.sims.iter().copied().collect();
    let jobs = Manager::<GridJobRecord>::new(admin)
        .all()
        .map_err(|e| format!("jobs: {e}"))?;
    let mut keys = HashSet::new();
    // GRAM handle -> (job records carrying it, whether it is ours)
    let mut by_handle: HashMap<&str, (usize, bool)> = HashMap::new();
    for j in &jobs {
        let mine = ours.contains(&j.simulation_id);
        if mine
            && !keys.insert((
                j.simulation_id,
                j.app.as_str(),
                j.purpose.as_str(),
                j.ga_run,
                j.continuation,
            ))
        {
            out.tally.fail("duplicate job key");
        }
        if let Some(h) = j.gram_handle.as_deref() {
            by_handle.entry(h).or_insert((0, mine)).0 += 1;
        }
    }
    let audit = stack.grid.audit();
    if !audit.fully_attributed() {
        out.tally.fail("audit log has unattributed records");
    }
    for r in audit.records() {
        match (r.service.as_str(), r.action.as_str()) {
            ("GRAM", "submit") => {
                let handle = r.detail.rsplit(" -> ").next().unwrap_or("");
                match by_handle.get(handle) {
                    Some((1, mine)) => {
                        out.gram_submits += usize::from(*mine);
                        out.tally.ok();
                    }
                    Some(_) => out.tally.fail("GRAM handle recorded on several jobs"),
                    None => out.tally.fail("GRAM submit with no job record"),
                }
            }
            ("GridFTP", _) => {
                let sim = crate::stack::sim_of_workdir(&r.detail);
                if sim.is_some_and(|s| ours.contains(&s)) {
                    out.transfers += 1;
                }
            }
            _ => {}
        }
    }
    Ok(())
}
