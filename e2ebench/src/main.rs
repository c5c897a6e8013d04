//! End-to-end benchmark of the AMP gateway.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <browse|campaign|contended> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run repeats rounds of set-up → measured phase → shutdown →
//! restart until `--seconds` of measured phase have passed (at least
//! three rounds), then times extra set-ups until it has nine. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` an
//! untraced warm-up round is followed by alternating traced and
//! untraced rounds, and it prints the per-layer metrics. Every output
//! check runs in both modes; the last line of standard output is one
//! JSON object, and the exit code is non-zero if any check failed. See
//! README.md.

mod browse;
mod campaign;
mod client;
mod cpu;
mod gen;
mod layers;
mod stack;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use amp_obs::HistogramSnapshot;
use browse::{BrowseMix, BrowseOutcome};
use campaign::CampaignOutcome;
use gen::Rng;
use layers::{Probe, ROUTES};
use stack::Stack;
use stats::{histogram_mean, median, per, reconcile_error, reportable, Samples, Tally};

/// Rounds per run, at least: set-up is timed once per round and its
/// median reported, and the campaign's determinism is checked across
/// rounds. A traced run adds a warm-up round, then alternates traced and
/// untraced rounds so the tracing overhead compares like with like.
const MIN_ROUNDS: usize = 3;
const MIN_TRACED_RUN_ROUNDS: usize = 4;
/// Set-ups per run, at least: after the rounds, the stack is built (and
/// torn down unused) until this many set-ups are timed, so the reported
/// median rests on more than the rounds' few.
const MIN_SETUPS: usize = 9;
/// Browsing connections in `browse` (the box's core count).
const BROWSE_CONNECTIONS: usize = 2;
/// `Db::open` repetitions per restart measurement (`restart_s` is the
/// median over every round's).
const REOPENS: usize = 3;
/// The traced parts must account for the traced wall time within this
/// share (harness bookkeeping between calls is the remainder).
const RECONCILE_TOLERANCE: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Browse,
    Campaign,
    Contended,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Campaign => "campaign",
            Workload::Contended => "contended",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "browse" => Workload::Browse,
                    "campaign" => Workload::Campaign,
                    "contended" => Workload::Contended,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// One round's measurements.
#[derive(Default)]
struct Round {
    traced: bool,
    setup: Duration,
    phase: Duration,
    /// Every page GET round-trip (µs): browsing pages and campaign polls.
    pages: Samples,
    /// The results-page GETs among them: logged-in browsing of the
    /// archive and campaign polls. Never served from the cache.
    results: Samples,
    /// CPU time per operation (µs): per page GET in `browse`, per
    /// simulation in `campaign` and `contended`.
    cpu_per_op_us: f64,
    browse: BrowseOutcome,
    campaign: Option<CampaignOutcome>,
    tally: Tally,
    /// Every `Db::open` of the restart, in seconds.
    reopens: Vec<f64>,
    probe: Option<Probe>,
    snapshot_bytes: u64,
    /// Reconciliation: summed top-level call time and the wall time of
    /// the driving threads it should account for.
    parts: Duration,
    threads_wall: Duration,
}

impl Round {
    fn page_rps(&self) -> f64 {
        self.pages.len() as f64 / self.phase.as_secs_f64()
    }
}

/// Run the browse mix on `connections` threads until `stop` is set by
/// `until` (called on this thread while they run).
fn browse_while(
    addr: std::net::SocketAddr,
    mix: &BrowseMix,
    seed: u64,
    round: usize,
    connections: usize,
    until: impl FnOnce(),
) -> BrowseOutcome {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let rng = Rng::fork(seed, &format!("browse-{round}-{c}"));
                let stop = &stop;
                s.spawn(move || browse::browse(addr, mix, rng, stop))
            })
            .collect();
        until();
        stop.store(true, Ordering::SeqCst);
        let mut out = BrowseOutcome::default();
        for h in handles {
            match h.join() {
                Ok(part) => out.merge(&part),
                Err(_) => out.tally.fail("browsing thread panicked"),
            }
        }
        out
    })
}

fn run_round(
    args: &Args,
    dir: &Path,
    round: usize,
    phase_budget: Duration,
    traced: bool,
) -> Result<Round, String> {
    let mut r = Round {
        traced,
        ..Round::default()
    };
    let t0 = Instant::now();
    let mut stack = Stack::build(dir, args.seed)?;
    r.setup = t0.elapsed();
    let tables = stack.db.table_names();
    let mix = BrowseMix::new(&stack.fx, args.seed);

    stack.set_profiling(traced);
    let before = Probe::read(&tables);
    trace::set_enabled(traced);
    let phase_start = Instant::now();
    match args.workload {
        Workload::Browse => {
            let names: Vec<&str> = tables.iter().map(String::as_str).collect();
            let versions = stack.db.table_versions(&names);
            let cpu_start = cpu::process();
            r.browse = browse_while(
                stack.addr(),
                &mix,
                args.seed,
                round,
                BROWSE_CONNECTIONS,
                || std::thread::sleep(phase_budget),
            );
            r.phase = phase_start.elapsed();
            // every thread of the process works for the browsing
            // connections: client, event loop and portal workers
            r.cpu_per_op_us = per(
                (cpu::process() - cpu_start).as_secs_f64() * 1e6,
                r.browse.pages.len() as f64,
            );
            r.threads_wall = r.phase * BROWSE_CONNECTIONS as u32;
            r.parts = r.browse.timed;
            if stack.db.table_versions(&names) != versions {
                r.tally.fail("browse wrote to the database");
            }
        }
        Workload::Campaign => {
            let out = campaign::run(&mut stack, args.seed)?;
            r.phase = out.wall;
            r.cpu_per_op_us = per(out.cpu_process.as_secs_f64() * 1e6, out.done as f64);
            r.threads_wall = out.wall;
            r.parts = out.timed;
            r.campaign = Some(out);
        }
        Workload::Contended => {
            let addr = stack.addr();
            let mut result = None;
            r.browse = browse_while(addr, &mix, args.seed, round, 1, || {
                result = Some(campaign::run(&mut stack, args.seed));
            });
            let out = result.expect("campaign ran")?;
            r.phase = phase_start.elapsed();
            // Only the campaign thread's own CPU: the rest of the process
            // also serves the browsing connection, whose request count
            // follows the wall time the campaign takes.
            r.cpu_per_op_us = per(out.cpu_thread.as_secs_f64() * 1e6, out.done as f64);
            r.threads_wall = out.wall + r.phase;
            r.parts = out.timed + r.browse.timed;
            r.campaign = Some(out);
        }
    }
    trace::set_enabled(false);
    if traced {
        r.probe = Some(Probe::read(&tables).since(&before));
    }
    r.pages.extend(&r.browse.pages);
    r.results.extend(&r.browse.results);
    r.tally.merge(&r.browse.tally);
    if let Some(c) = &r.campaign {
        r.pages.extend(&c.polls);
        r.results.extend(&c.polls);
        r.tally.merge(&c.tally);
    }

    // Shutdown, then restart from snapshot + WAL: the reopened database
    // must hold byte-identical simulation rows.
    if let Some(server) = stack.server.take() {
        server.stop();
    }
    let rows = stack::simulation_rows(&stack.db)?;
    r.snapshot_bytes = std::fs::metadata(dir.join("snapshot.json"))
        .map(|m| m.len())
        .unwrap_or(0);
    drop(stack);
    let (opens, reopened) = stack::reopen(dir, REOPENS)?;
    r.reopens = opens.iter().map(Duration::as_secs_f64).collect();
    if stack::simulation_rows(&reopened)? == rows {
        r.tally.ok();
    } else {
        r.tally
            .fail("reopened database differs from the one shut down");
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(dir);
    Ok(r)
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    note: String,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        // non-finite (a 0/0 the workload never exercised) and -0 read as 0
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        note: String::new(),
    }
}

/// Percentile `q` of `n` samples under the percentile rule, read through
/// `at`. The note carries the count and names a stand-in percentile.
fn percentile(
    name: impl Into<String>,
    unit: &'static str,
    n: usize,
    q: f64,
    at: impl Fn(f64) -> f64,
) -> Metric {
    let Some(used) = reportable(n, q) else {
        let mut m = metric(name, unit, 0.0);
        m.note = "n=0".into();
        return m;
    };
    let mut m = metric(name, unit, at(used));
    m.note = if used == q {
        format!("n={n}")
    } else {
        format!("n={n}, p{} shown", used * 100.0)
    };
    m
}

fn sample_percentile(name: &str, unit: &'static str, s: &Samples, q: f64) -> Metric {
    percentile(name, unit, s.len(), q, |u| s.quantile(u))
}

/// A percentile of a nanosecond histogram, in microseconds.
fn histogram_percentile(name: String, h: Option<&HistogramSnapshot>, q: f64) -> Metric {
    match h {
        Some(h) => percentile(name, "us", h.count as usize, q, |u| {
            h.quantile(u) as f64 / 1e3
        }),
        None => percentile(name, "us", 0, q, |_| 0.0),
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn median_of(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
}

fn pooled(rounds: &[&Round], f: impl Fn(&Round) -> Option<&Samples>) -> Samples {
    let mut all = Samples::new();
    for r in rounds {
        if let Some(s) = f(r) {
            all.extend(s);
        }
    }
    all
}

/// A page-latency percentile: each round's, then the median over rounds
/// (a burst of machine noise moves one round, not the figure).
fn page_latency(
    name: &str,
    rounds: &[&Round],
    q: f64,
    samples: impl Fn(&Round) -> &Samples,
) -> Metric {
    let per_round: Vec<Metric> = rounds
        .iter()
        .map(|r| sample_percentile(name, "us", samples(r), q))
        .collect();
    let mut m = metric(
        name,
        "us",
        median(&per_round.iter().map(|m| m.value).collect::<Vec<_>>()).unwrap_or(0.0),
    );
    m.note = format!(
        "median of rounds: {}",
        per_round
            .iter()
            .map(|m| format!("{:.1} ({})", m.value, m.note))
            .collect::<Vec<_>>()
            .join("; ")
    );
    m
}

/// The gated metrics a user of the gateway sees, over every round;
/// `setups` holds every set-up time of the run (s). None of them is a
/// percentile of the whole page mix, whose shares are assumptions.
fn end_to_end(rounds: &[Round], setups: &[f64]) -> Vec<Metric> {
    let all: Vec<&Round> = rounds.iter().collect();
    let mut setup = metric("setup_s", "s", median(setups).unwrap_or(0.0));
    setup.note = format!("median of {} set-ups", setups.len());
    let reopens: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.reopens.iter().copied())
        .collect();
    let mut restart = metric("restart_s", "s", median(&reopens).unwrap_or(0.0));
    restart.note = format!("median of {} reopens", reopens.len());
    let mut cpu = metric("cpu_us_per_op", "us", median_of(&all, |r| r.cpu_per_op_us));
    cpu.note = format!(
        "median of rounds: {}",
        all.iter()
            .map(|r| format!("{:.1}", r.cpu_per_op_us))
            .collect::<Vec<_>>()
            .join("; ")
    );
    vec![
        setup,
        page_latency("results_p50_us", &all, 0.5, |r| &r.results),
        restart,
        metric("peak_rss_mb", "MB", peak_rss_mb()),
        cpu,
    ]
}

/// End-to-end figures that are not gated: the median and tail over the
/// whole page mix, the throughput and the figures that exist only where
/// simulations run (see README.md). Printed in every mode, and part of
/// the traced run's per-layer set.
fn ungated_figures(rounds: &[Round], tally: &Tally) -> Vec<Metric> {
    let all: Vec<&Round> = rounds.iter().collect();
    let submits = pooled(&all, |r| r.campaign.as_ref().map(|c| &c.submits));
    let first = rounds.iter().find_map(|r| r.campaign.as_ref());
    vec![
        page_latency("page_p50_us", &all, 0.5, |r| &r.pages),
        page_latency("page_p99_us", &all, 0.99, |r| &r.pages),
        metric("page_rps", "1/s", median_of(&all, Round::page_rps)),
        sample_percentile("submit_p50_us", "us", &submits, 0.5),
        sample_percentile("submit_p99_us", "us", &submits, 0.99),
        metric(
            "sims_per_s",
            "1/s",
            median_of(&all, |r| {
                r.campaign
                    .as_ref()
                    .map(|c| c.done as f64 / c.wall.as_secs_f64())
                    .unwrap_or(0.0)
            }),
        ),
        metric(
            "turnaround_sim_h_p50",
            "h",
            first.map(|c| c.turnaround_h.quantile(0.5)).unwrap_or(0.0),
        ),
        metric(
            "makespan_sim_h",
            "h",
            first.map(|c| c.makespan_h).unwrap_or(0.0),
        ),
        metric("failed_share", "ratio", tally.share()),
    ]
}

fn durations(ds: &[Duration], scale: f64) -> Samples {
    let mut s = Samples::new();
    for d in ds {
        s.push(d.as_secs_f64() * scale);
    }
    s
}

/// The per-layer table, from the traced rounds.
fn per_layer(args: &Args, rounds: &[Round], spans: &[trace::Span]) -> (Vec<Metric>, Vec<String>) {
    let mut problems = Vec::new();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    // round 0 is the warm-up, left out of the overhead comparison
    let untraced: Vec<&Round> = rounds.iter().skip(1).filter(|r| !r.traced).collect();
    let mut probe = Probe::default();
    for p in traced.iter().filter_map(|r| r.probe.as_ref()) {
        probe.add(p);
    }
    let campaigns: Vec<&CampaignOutcome> =
        traced.iter().filter_map(|r| r.campaign.as_ref()).collect();
    let sims: f64 = campaigns.iter().map(|c| c.done as f64).sum();
    let ticks: f64 = campaigns.iter().map(|c| c.tick_count as f64).sum();
    let wall: f64 = traced.iter().map(|r| r.phase.as_secs_f64()).sum();
    let http_requests: f64 = traced
        .iter()
        .map(|r| {
            r.pages.len() as f64
                + r.campaign
                    .as_ref()
                    .map(|c| c.submits.len() as f64)
                    .unwrap_or(0.0)
        })
        .sum();

    let mut out = Vec::new();
    for (family, patterns) in ROUTES {
        let h = probe.routes(patterns);
        for (suffix, q) in [("p50", 0.5), ("p99", 0.99)] {
            let name = format!("portal.{family}.handle_us_{suffix}");
            out.push(histogram_percentile(name, h.as_ref(), q));
        }
    }
    let pages = pooled(&traced, |r| Some(&r.pages));
    let handler_p50 = probe
        .page_routes()
        .map(|h| h.quantile(0.5) as f64 / 1e3)
        .unwrap_or(0.0);
    out.push(metric(
        "portal.serve_us_p50",
        "us",
        (pages.quantile(0.5) - handler_p50).max(0.0),
    ));
    let hits = probe.counter("portal_cache_hits_total") as f64;
    let misses = probe.counter("portal_cache_misses_total") as f64;
    out.push(metric(
        "portal.cache_hit_ratio",
        "ratio",
        per(hits, hits + misses),
    ));

    let batches = probe
        .histogram("simdb_wal_commit_batch_records")
        .map(|h| h.count as f64)
        .unwrap_or(0.0);
    out.push(metric(
        "simdb.fsyncs_per_sim",
        "count",
        per(probe.counter("simdb_wal_fsync_total") as f64, sims),
    ));
    out.push(metric(
        "simdb.wal_batches_per_sim",
        "count",
        per(batches, sims),
    ));
    out.push(metric(
        "simdb.wal_bytes_per_sim",
        "B",
        per(campaigns.iter().map(|c| c.wal_bytes as f64).sum(), sims),
    ));
    let mean = |name: &str| probe.histogram(name).map(histogram_mean).unwrap_or(0.0);
    out.push(metric(
        "simdb.rows_copied_per_write_mean",
        "count",
        mean("simdb_rows_copied_per_write"),
    ));
    out.push(metric(
        "simdb.group_commit_writers_mean",
        "count",
        mean("simdb_group_commit_writers"),
    ));
    out.push(histogram_percentile(
        "simdb.lock_wait_us_p99".into(),
        probe.lock_waits().as_ref(),
        0.99,
    ));
    let compactions: Vec<Duration> = campaigns
        .iter()
        .flat_map(|c| c.compactions.iter().copied())
        .collect();
    out.push(sample_percentile(
        "simdb.compact_ms_p50",
        "ms",
        &durations(&compactions, 1e3),
        0.5,
    ));
    out.push(metric(
        "simdb.snapshot_bytes",
        "B",
        traced
            .last()
            .map(|r| r.snapshot_bytes as f64)
            .unwrap_or(0.0),
    ));
    out.push(metric(
        "simdb.scan_plans_per_request",
        "count",
        per(probe.plans("full_scan") as f64, http_requests),
    ));

    // gridamp: the benchmark's own tick timing plus the daemon's profile
    let collect = |f: fn(&CampaignOutcome) -> &Vec<Duration>| -> Vec<Duration> {
        campaigns
            .iter()
            .flat_map(|c| f(c).iter().copied())
            .collect()
    };
    let tick_ms = durations(&collect(|c| &c.tick_times.ticks), 1e3);
    out.push(sample_percentile(
        "gridamp.tick_ms_p50",
        "ms",
        &tick_ms,
        0.5,
    ));
    out.push(sample_percentile(
        "gridamp.tick_ms_p99",
        "ms",
        &tick_ms,
        0.99,
    ));
    out.push(sample_percentile(
        "gridamp.claim_ms_p50",
        "ms",
        &durations(&collect(|c| &c.tick_times.claims), 1e3),
        0.5,
    ));
    out.push(sample_percentile(
        "gridamp.poll_us_p50",
        "us",
        &durations(&collect(|c| &c.tick_times.polls), 1e6),
        0.5,
    ));
    let step_us = durations(&collect(|c| &c.tick_times.steps), 1e6);
    out.push(sample_percentile(
        "gridamp.step_us_p50",
        "us",
        &step_us,
        0.5,
    ));
    out.push(sample_percentile(
        "gridamp.step_us_p99",
        "us",
        &step_us,
        0.99,
    ));

    let parent_name: std::collections::HashMap<u64, &str> =
        spans.iter().map(|s| (s.id, s.name)).collect();
    let science = |s: &&trace::Span| s.name.starts_with("science.");
    let science_in_ticks: f64 = spans
        .iter()
        .filter(science)
        .filter(|s| s.parent.and_then(|p| parent_name.get(&p)) == Some(&"gridamp.tick"))
        .map(trace::Span::secs)
        .sum();
    out.push(metric(
        "gridamp.self_ms_per_sim",
        "ms",
        per((tick_ms.sum() / 1e3 - science_in_ticks) * 1e3, sims),
    ));
    out.push(metric("gridamp.ticks_per_sim", "count", per(ticks, sims)));
    out.push(metric(
        "gridamp.lease_renewals_per_tick",
        "count",
        per(probe.counter("daemon_lease_renewals_total") as f64, ticks),
    ));

    let advance_ms = durations(&collect(|c| &c.advances), 1e3);
    out.push(sample_percentile(
        "grid.advance_ms_p50",
        "ms",
        &advance_ms,
        0.5,
    ));
    out.push(metric(
        "grid.gram_submits_per_sim",
        "count",
        per(campaigns.iter().map(|c| c.gram_submits as f64).sum(), sims),
    ));
    out.push(metric(
        "grid.transfers_per_sim",
        "count",
        per(campaigns.iter().map(|c| c.transfers as f64).sum(), sims),
    ));

    let span_ms = |name: &str| {
        let mut s = Samples::new();
        for sp in spans.iter().filter(|sp| sp.name == name) {
            s.push(sp.secs() * 1e3);
        }
        s
    };
    out.push(sample_percentile(
        "science.model_ms_p50",
        "ms",
        &span_ms("science.model"),
        0.5,
    ));
    out.push(sample_percentile(
        "science.ga_job_ms_p50",
        "ms",
        &span_ms("science.ga"),
        0.5,
    ));
    let science_total: f64 = spans.iter().filter(science).map(trace::Span::secs).sum();
    out.push(metric(
        "science.share_of_wall",
        "ratio",
        per(science_total, wall),
    ));
    let evals = probe.ga("ga_evals_total") as f64;
    let skips = probe.ga("ga_cached_skips_total") as f64;
    out.push(metric("ga.evals_per_sim", "count", per(evals, sims)));
    out.push(metric(
        "ga.cached_skip_ratio",
        "ratio",
        per(skips, evals + skips),
    ));

    let scrapes = pooled(&traced, |r| Some(&r.browse.scrapes));
    out.push(sample_percentile("obs.scrape_us_p50", "us", &scrapes, 0.5));

    // harness: tracing cost and reconciliation
    let overhead = match args.workload {
        // time per request, traced over untraced
        Workload::Browse => per(
            median_of(&untraced, Round::page_rps),
            median_of(&traced, Round::page_rps),
        ),
        _ => per(
            median_of(&traced, |r| r.phase.as_secs_f64()),
            median_of(&untraced, |r| r.phase.as_secs_f64()),
        ),
    };
    out.push(metric("trace.overhead", "ratio", overhead));
    let parts: f64 = traced.iter().map(|r| r.parts.as_secs_f64()).sum();
    let threads: f64 = traced.iter().map(|r| r.threads_wall.as_secs_f64()).sum();
    let reconcile = reconcile_error(&[parts], threads);
    if reconcile > RECONCILE_TOLERANCE {
        problems.push(format!(
            "traced parts reconcile to {:.1}% of wall time (tolerance {:.0}%)",
            reconcile * 100.0,
            RECONCILE_TOLERANCE * 100.0
        ));
    }
    let mut rec = metric("trace.reconcile_error", "ratio", reconcile);
    rec.note = format!("tolerance {RECONCILE_TOLERANCE}");
    out.push(rec);
    (out, problems)
}

/// The campaign is deterministic in simulated time: every round of one
/// run must reproduce the first round's outcome exactly.
fn check_determinism(rounds: &[Round]) -> Vec<String> {
    let key = |c: &CampaignOutcome| {
        (
            format!("{:?}", c.turnaround_h),
            c.makespan_h.to_bits(),
            c.gram_submits,
            c.transfers,
            c.tick_count,
            c.steps,
        )
    };
    let mut keys = rounds.iter().filter_map(|r| r.campaign.as_ref()).map(key);
    let Some(first) = keys.next() else {
        return Vec::new();
    };
    if keys.all(|k| k == first) {
        Vec::new()
    } else {
        vec!["campaign rounds disagree in simulated time".into()]
    }
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<36} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    let dir = out_dir.join(format!(
        "{}-seed{}-pid{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    let budget = Duration::from_secs(args.seconds);
    let min_rounds = if args.trace {
        MIN_TRACED_RUN_ROUNDS
    } else {
        MIN_ROUNDS
    };
    let browse_phase = budget / min_rounds as u32;
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = Duration::ZERO;
    while rounds.len() < min_rounds || measured < budget {
        let traced = args.trace && rounds.len() % 2 == 1;
        match run_round(&args, &dir, rounds.len(), browse_phase, traced) {
            Ok(r) => {
                measured += r.phase;
                println!(
                    "round {} ({}): set-up {:.3} s, phase {:.3} s, {} pages, {:.1} CPU us/op, reopens {:.3?} s, {} failed",
                    rounds.len(),
                    if traced { "traced" } else { "untraced" },
                    r.setup.as_secs_f64(),
                    r.phase.as_secs_f64(),
                    r.pages.len(),
                    r.cpu_per_op_us,
                    r.reopens,
                    r.tally.failed
                );
                rounds.push(r);
            }
            Err(e) => {
                let _ = std::fs::remove_dir_all(&dir);
                eprintln!("benchmark failed: {e}");
                std::process::exit(1);
            }
        }
    }

    // More set-ups, torn down unused, until the set-up median has its
    // samples.
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    while setups.len() < MIN_SETUPS {
        let t0 = Instant::now();
        match Stack::build(&dir, args.seed) {
            Ok(stack) => {
                setups.push(t0.elapsed().as_secs_f64());
                stack.shut_down();
                let _ = std::fs::remove_dir_all(&dir);
            }
            Err(e) => {
                let _ = std::fs::remove_dir_all(&dir);
                eprintln!("benchmark failed: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "set-ups (s): {}",
        setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let mut tally = Tally::default();
    for r in &rounds {
        tally.merge(&r.tally);
    }
    let mut problems = check_determinism(&rounds);
    let e2e = end_to_end(&rounds, &setups);
    let figures = ungated_figures(&rounds, &tally);
    print_table("end-to-end", &e2e);
    print_table(
        "ungated end-to-end figures (campaign ones read 0 on browse)",
        &figures,
    );

    let reported: Vec<Metric> = if args.trace {
        let spans = trace::spans();
        let path = out_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match trace::write(&path) {
            Ok(n) => println!("trace: {n} spans written to {}", path.display()),
            Err(e) => problems.push(format!("writing the trace: {e}")),
        }
        let (layers, more) = per_layer(&args, &rounds, &spans);
        problems.extend(more);
        print_table("per-layer (traced rounds)", &layers);
        layers.into_iter().chain(figures).collect()
    } else {
        e2e
    };

    for (reason, n) in &tally.reasons {
        println!("failure: {reason} (x{n})");
    }
    for p in &problems {
        println!("check failed: {p}");
    }
    let correct = tally.failed == 0 && problems.is_empty();
    let mut metrics = serde_json::Map::new();
    for m in &reported {
        metrics.insert(
            m.name.to_string(),
            serde_json::json!({"value": m.value, "unit": m.unit}),
        );
    }
    println!(
        "{}",
        serde_json::json!({
            "correct": correct,
            "attempted": tally.attempted.max(1),
            "failed": tally.failed,
            "metrics": serde_json::Value::Object(metrics),
        })
    );
    std::process::exit(if correct { 0 } else { 1 });
}
