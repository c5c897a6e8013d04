//! The read-only page mix: anonymous catalog pages (Zipf-popular over a
//! catalog larger than the response cache), logged-in results pages,
//! search and suggest, and a low fixed share of `/metrics` scrapes. Each
//! connection is a closed loop; every response is checked.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::client::{encode, Client};
use crate::gen::{Rng, Zipf};
use crate::stack::{nav_link, Fixtures, Sessions};
use crate::stats::{Samples, Tally};
use crate::trace;

/// Request-mix shares (cumulative thresholds below). These are
/// unverified assumptions: no published usage figures for AMP or a
/// similar gateway give its page-family shares. Anonymous catalog
/// traffic is assumed to be the majority, as on a public portal.
const CATALOG_SHARE: f64 = 0.65;
const RESULTS_SHARE: f64 = 0.22;
const SEARCH_SHARE: f64 = 0.12;
// The remaining 1% are /metrics scrapes.

/// Within the catalog share (also assumed): the home page, then list
/// pages, the rest star detail pages. Popularity is Zipf within each
/// class, so the seed reorders pages of one kind but never trades a
/// cheap kind for a dear one.
const HOME_SHARE: f64 = 0.05;
const LIST_SHARE: f64 = 0.15;

/// Zipf exponent for catalog and search popularity.
const ZIPF_S: f64 = 1.0;
/// The catalog's page size (the portal lists 25 stars a page).
const CATALOG_PAGE: usize = 25;

/// Which page family a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Catalog,
    Results,
    Search,
    Metrics,
}

/// One request to issue: path, session, and the strings the body must
/// contain for the response to count as correct.
struct Planned {
    family: Family,
    path: String,
    session: Option<usize>,
    marker: String,
    /// For a logged-in HTML page: the navigation link naming the user,
    /// so a page served to an expired session counts as a failure.
    nav: Option<String>,
    sim: Option<i64>,
}

/// Everything a browsing connection needs, owned so it can move to a
/// thread: the popularity orders are seeded shuffles of the catalog.
#[derive(Clone)]
pub struct BrowseMix {
    list_pages: Vec<String>,
    list_zipf: Zipf,
    stars: Vec<String>,
    stars_zipf: Zipf,
    search_idents: Vec<String>,
    search_zipf: Zipf,
    sessions: Sessions,
    /// The navigation link each user's pages must show.
    navs: Vec<String>,
    user_sims: Vec<Vec<(i64, bool)>>,
}

impl BrowseMix {
    pub fn new(fx: &Fixtures, seed: u64) -> BrowseMix {
        let mut order = Rng::fork(seed, "popularity");
        let pages = fx.catalog.len().div_ceil(CATALOG_PAGE);
        let mut list_pages: Vec<String> = (1..=pages).map(|p| format!("/stars?page={p}")).collect();
        order.shuffle(&mut list_pages);
        let mut stars = fx.catalog.clone();
        order.shuffle(&mut stars);
        let mut search_idents = fx.catalog.clone();
        order.shuffle(&mut search_idents);
        let mut user_sims = vec![Vec::new(); fx.users.len()];
        for a in &fx.archive {
            user_sims[a.owner].push((a.id, a.stellar));
        }
        BrowseMix {
            list_zipf: Zipf::new(list_pages.len(), ZIPF_S),
            list_pages,
            stars_zipf: Zipf::new(stars.len(), ZIPF_S),
            stars,
            search_zipf: Zipf::new(search_idents.len(), ZIPF_S),
            search_idents,
            sessions: fx.sessions.clone(),
            navs: fx.users.iter().map(|u| nav_link(&u.name)).collect(),
            user_sims,
        }
    }

    fn plan(&self, rng: &mut Rng) -> Planned {
        let r = rng.unit();
        if r < CATALOG_SHARE {
            let c = rng.unit();
            let (path, marker) = if c < HOME_SHARE {
                ("/".to_string(), "Asteroseismic Modeling Portal".to_string())
            } else if c < HOME_SHARE + LIST_SHARE {
                let page = &self.list_pages[self.list_zipf.sample(rng)];
                (page.clone(), "Star catalog".to_string())
            } else {
                let ident = &self.stars[self.stars_zipf.sample(rng)];
                (format!("/star/{}", encode(ident)), ident.clone())
            };
            return Planned {
                family: Family::Catalog,
                path,
                session: None,
                marker,
                nav: None,
                sim: None,
            };
        }
        if r < CATALOG_SHARE + RESULTS_SHARE {
            let user = rng.below(self.navs.len());
            let sims = &self.user_sims[user];
            let x = rng.unit();
            if x < 0.2 || sims.is_empty() {
                return Planned {
                    family: Family::Results,
                    path: "/simulations".into(),
                    session: Some(user),
                    marker: "<h2>Simulations</h2>".into(),
                    nav: Some(self.navs[user].clone()),
                    sim: None,
                };
            }
            let (id, stellar) = sims[rng.below(sims.len())];
            // plots.json is bare JSON with no navigation to check
            let (path, marker, nav) = if stellar && x > 0.85 {
                (
                    format!("/simulation/{id}/plots.json"),
                    "\"hr_track\"".to_string(),
                    None,
                )
            } else {
                (
                    format!("/simulation/{id}"),
                    format!("Simulation #{id} "),
                    Some(self.navs[user].clone()),
                )
            };
            return Planned {
                family: Family::Results,
                path,
                session: Some(user),
                marker,
                nav,
                sim: Some(id),
            };
        }
        if r < CATALOG_SHARE + RESULTS_SHARE + SEARCH_SHARE {
            let ident = &self.search_idents[self.search_zipf.sample(rng)];
            let path = if rng.chance(0.6) {
                format!("/stars/search?q={}", encode(ident))
            } else {
                // a prefix one character short, as typed into the box
                let prefix = &ident[..ident.len() - 1];
                format!("/api/suggest?q={}", encode(prefix))
            };
            return Planned {
                family: Family::Search,
                path,
                session: None,
                marker: ident.clone(),
                nav: None,
                sim: None,
            };
        }
        Planned {
            family: Family::Metrics,
            path: "/metrics".into(),
            session: None,
            marker: "portal_requests_total".into(),
            nav: None,
            sim: None,
        }
    }
}

/// What one browsing connection saw.
#[derive(Debug, Default)]
pub struct BrowseOutcome {
    /// Round-trips (µs) of every page GET, scrapes included.
    pub pages: Samples,
    /// Round-trips (µs) of the logged-in results pages only.
    pub results: Samples,
    /// Round-trips (µs) of `/metrics` scrapes only.
    pub scrapes: Samples,
    pub tally: Tally,
    /// Sum of round-trip times, failed ones included (reconciliation).
    pub timed: std::time::Duration,
}

impl BrowseOutcome {
    pub fn merge(&mut self, other: &BrowseOutcome) {
        self.pages.extend(&other.pages);
        self.results.extend(&other.results);
        self.scrapes.extend(&other.scrapes);
        self.tally.merge(&other.tally);
        self.timed += other.timed;
    }
}

/// Browse in a closed loop on one keep-alive connection until `stop`.
pub fn browse(addr: SocketAddr, mix: &BrowseMix, mut rng: Rng, stop: &AtomicBool) -> BrowseOutcome {
    let mut out = BrowseOutcome::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.tally.fail(format!("connect: {e}"));
            return out;
        }
    };
    while !stop.load(Ordering::Relaxed) {
        let planned = mix.plan(&mut rng);
        let session = planned.session.map(|u| mix.sessions.get(u));
        let name = match planned.family {
            Family::Metrics => "obs.scrape",
            _ => "http.page",
        };
        let mut span = trace::enter(name, planned.sim);
        span.set_req(trace::next_req());
        let reply = client.get(&planned.path, session.as_deref());
        out.timed += span.finish();
        match reply {
            Err(e) => out.tally.fail(e),
            Ok(reply) => {
                let us = reply.rtt.as_secs_f64() * 1e6;
                out.pages.push(us);
                match planned.family {
                    Family::Results => out.results.push(us),
                    Family::Metrics => out.scrapes.push(us),
                    _ => {}
                }
                if reply.status != 200 {
                    out.tally
                        .fail(format!("GET {:?}: status {}", planned.family, reply.status));
                } else if !reply.body.contains(&planned.marker) {
                    out.tally
                        .fail(format!("GET {:?}: body lacks its marker", planned.family));
                } else if planned.nav.is_some_and(|nav| !reply.body.contains(&nav)) {
                    out.tally
                        .fail(format!("GET {:?}: page is not logged in", planned.family));
                } else {
                    out.tally.ok();
                }
            }
        }
    }
    out
}
