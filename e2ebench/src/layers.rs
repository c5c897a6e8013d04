//! Per-layer readings taken from the process-wide metrics registry —
//! the same series `/metrics` exposes — as deltas over a measured phase.

use std::collections::BTreeMap;

use amp_obs::{HistogramSnapshot, Unit};

use crate::stats::{histogram_copy, histogram_delta, histogram_sum};

/// Route families of the per-layer table, by router pattern.
pub const ROUTES: &[(&str, &[&str])] = &[
    ("results", &["/simulation/<id>"]),
    ("plots", &["/simulation/<id>/plots.json"]),
    ("catalog", &["/", "/stars", "/star/<ident>"]),
    ("search", &["/stars/search", "/api/suggest"]),
    (
        "submit",
        &[
            "/submit/<app>/direct/<star_id>",
            "/submit/<app>/optimization/<star_id>",
        ],
    ),
];

/// Every GET page route the benchmark issues (serve-time baseline).
const PAGE_ROUTES: &[&str] = &[
    "/simulation/<id>",
    "/simulation/<id>/plots.json",
    "/",
    "/stars",
    "/star/<ident>",
    "/stars/search",
    "/api/suggest",
    "/simulations",
    "/metrics",
];

const PLAN_KINDS: &[&str] = &[
    "empty",
    "unique_probe",
    "index_probe",
    "range_scan",
    "index_ordered_scan",
    "full_scan",
];

const APPS: &[&str] = &["stellar", "curvefit"];

fn route_key(pattern: &str) -> String {
    amp_obs::labeled("portal_request_seconds", &[("route", pattern)])
}

/// A point-in-time reading of every series the per-layer table uses.
#[derive(Default)]
pub struct Probe {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Probe {
    pub fn read(tables: &[String]) -> Probe {
        let registry = amp_obs::registry();
        let mut counter_names = vec![
            "portal_cache_hits_total".to_string(),
            "portal_cache_misses_total".to_string(),
            "simdb_wal_fsync_total".to_string(),
            "daemon_lease_renewals_total".to_string(),
        ];
        for kind in PLAN_KINDS {
            counter_names.push(amp_obs::labeled("simdb_plan_total", &[("kind", kind)]));
        }
        for app in APPS {
            counter_names.push(amp_obs::labeled("ga_evals_total", &[("app", app)]));
            counter_names.push(amp_obs::labeled("ga_cached_skips_total", &[("app", app)]));
        }
        let counters = counter_names
            .into_iter()
            .map(|n| {
                let v = registry.counter(&n).get();
                (n, v)
            })
            .collect();

        let mut seconds: Vec<String> = PAGE_ROUTES
            .iter()
            .chain(ROUTES.iter().flat_map(|(_, p)| p.iter()))
            .map(|p| route_key(p))
            .collect();
        for t in tables {
            seconds.push(amp_obs::labeled(
                "simdb_table_lock_wait_seconds",
                &[("table", t)],
            ));
        }
        let counts = [
            "simdb_wal_commit_batch_records",
            "simdb_group_commit_writers",
            "simdb_rows_copied_per_write",
        ];
        let mut histograms = BTreeMap::new();
        for n in seconds {
            let h = registry.histogram(&n, Unit::Seconds).snapshot();
            histograms.insert(n, h);
        }
        for n in counts {
            histograms.insert(n.to_string(), registry.histogram(n, Unit::Count).snapshot());
        }
        Probe {
            counters,
            histograms,
        }
    }

    /// What happened between `before` and `self`.
    pub fn since(&self, before: &Probe) -> Probe {
        Probe {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v - before.counters.get(k).copied().unwrap_or(0)))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    let d = match before.histograms.get(k) {
                        Some(b) => histogram_delta(b, h),
                        None => histogram_copy(h),
                    };
                    (k.clone(), d)
                })
                .collect(),
        }
    }

    /// Accumulate another phase's delta into this one.
    pub fn add(&mut self, other: &Probe) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            let merged = match self.histograms.get(k) {
                Some(mine) => histogram_sum([mine, h]).expect("two parts"),
                None => histogram_copy(h),
            };
            self.histograms.insert(k.clone(), merged);
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn labeled_counter(&self, name: &str, label: &str, values: &[&str]) -> u64 {
        values
            .iter()
            .map(|v| self.counter(&amp_obs::labeled(name, &[(label, v)])))
            .sum()
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The merged handler-time histogram of a route family.
    pub fn routes(&self, patterns: &[&str]) -> Option<HistogramSnapshot> {
        let keys: Vec<String> = patterns.iter().map(|p| route_key(p)).collect();
        histogram_sum(keys.iter().filter_map(|k| self.histograms.get(k)))
    }

    pub fn page_routes(&self) -> Option<HistogramSnapshot> {
        self.routes(PAGE_ROUTES)
    }

    /// Every table's writer lock-wait histogram, merged.
    pub fn lock_waits(&self) -> Option<HistogramSnapshot> {
        histogram_sum(
            self.histograms
                .iter()
                .filter(|(k, _)| k.starts_with("simdb_table_lock_wait_seconds"))
                .map(|(_, h)| h),
        )
    }

    pub fn plans(&self, kind: &str) -> u64 {
        self.labeled_counter("simdb_plan_total", "kind", &[kind])
    }

    pub fn ga(&self, name: &str) -> u64 {
        self.labeled_counter(name, "app", APPS)
    }
}
