//! The stack under test, wired the way the gateway deploys it: a durable
//! file-backed database (fsync on for every commit once loaded), a simulated Kraken running the AMP
//! software stack, a two-daemon GridAMP fleet, and the portal behind the
//! epoll HTTP server. Set-up also populates the database (catalog,
//! users, campaign targets, an archive of DONE simulations) and logs the
//! virtual users in over HTTP.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use amp_core::app;
use amp_core::app::curvefit::{synthesize_curve, CurveParams};
use amp_core::models::{
    Allocation, AmpUser, GridJobRecord, Observation, Simulation, Star, SystemAuthorization,
};
use amp_core::{roles, OptimizationSpec, SimStatus};
use amp_grid::app::{AppContext, AppRun, Application};
use amp_grid::{Grid, SimDuration};
use amp_gridamp::apps::{install_amp_stack, GaApp, ModelApp};
use amp_gridamp::{DaemonConfig, GridAmp, TickProfile};
use amp_portal::{Portal, PortalConfig, Server, ServerConfig};
use amp_simdb::orm::{Manager, Model};
use amp_simdb::{Db, Query};
use amp_stellar::{synthesize, synthetic_sky, Domain, StellarParams};

use crate::client::Client;
use crate::gen::{App, Rng};
use crate::trace;

pub const SITE: &str = "kraken";
/// Lock-step poll interval: one step is five simulated minutes.
pub const STEP_SECS: u64 = 300;
const PASSWORD: &str = "orbitals88";

/// Database sizes fixed by the benchmark (see README.md).
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Catalog stars: 4x the portal's 4,096-entry response cache, so the
    /// Zipf-popular catalog pages do not all fit.
    pub catalog_stars: usize,
    pub users: usize,
    /// Campaign targets per application, each with an observation set.
    pub targets: usize,
    /// DONE simulations in the archive the results pages browse.
    pub archive_sims: usize,
}

pub const SIZES: Sizes = Sizes {
    catalog_stars: 16_384,
    users: 16,
    targets: 4,
    archive_sims: 1_024,
};

pub struct User {
    pub id: i64,
    pub name: String,
}

/// Every virtual user's current session token, shared between the
/// campaign thread (which logs users in again before sessions lapse) and
/// the browsing threads (which must send the fresh tokens).
#[derive(Clone, Default)]
pub struct Sessions(Arc<RwLock<Vec<String>>>);

impl Sessions {
    pub fn get(&self, user: usize) -> String {
        self.0.read().expect("sessions lock")[user].clone()
    }

    pub fn set(&self, user: usize, token: String) {
        self.0.write().expect("sessions lock")[user] = token;
    }
}

pub struct Target {
    pub star_id: i64,
    pub obs_id: i64,
}

/// An archived DONE simulation the browse mix reads.
pub struct Archived {
    pub id: i64,
    pub owner: usize,
    pub stellar: bool,
}

pub struct Fixtures {
    pub users: Vec<User>,
    pub sessions: Sessions,
    pub alloc: i64,
    pub stellar: Vec<Target>,
    pub curvefit: Vec<Target>,
    /// Catalog identifiers, in insertion order.
    pub catalog: Vec<String>,
    pub archive: Vec<Archived>,
}

impl Fixtures {
    pub fn targets(&self, app: App) -> &[Target] {
        match app {
            App::Stellar => &self.stellar,
            App::CurveFit => &self.curvefit,
        }
    }
}

pub struct Stack {
    pub dir: PathBuf,
    pub db: Db,
    pub grid: Grid,
    pub daemons: Vec<GridAmp>,
    pub portal: Arc<Portal>,
    pub server: Option<Server>,
    pub fx: Fixtures,
}

/// A science executable wrapped so the traced run sees its wall time,
/// attributed to the simulation whose working directory it runs in.
struct Timed {
    inner: Arc<dyn Application>,
    name: &'static str,
}

impl Application for Timed {
    fn run(&self, ctx: &AppContext<'_>) -> AppRun {
        let span = trace::enter(self.name, sim_of_workdir(&ctx.workdir));
        let run = self.inner.run(ctx);
        span.finish();
        run
    }
}

/// `amp/sim42` or `amp/sim42/run0` -> 42.
pub fn sim_of_workdir(workdir: &str) -> Option<i64> {
    let rest = workdir.strip_prefix("amp/sim")?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn err(context: &str) -> impl Fn(amp_simdb::DbError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

fn daemon_config(i: usize) -> DaemonConfig {
    DaemonConfig {
        daemon_id: format!("gridamp-{i}"),
        work_walltime_hours: 6.0,
        lease_ttl_secs: 1800,
        poll_interval_secs: STEP_SECS,
        workers: 1,
        ..DaemonConfig::default()
    }
}

fn stellar_truth(i: usize) -> StellarParams {
    StellarParams {
        mass: 0.95 + 0.05 * i as f64,
        metallicity: 0.018,
        helium: 0.27,
        alpha: 1.9,
        age: 3.0 + 0.5 * i as f64,
    }
}

fn curve_truth(i: usize) -> CurveParams {
    CurveParams {
        amplitude: 1.2 + 0.2 * i as f64,
        decay: 0.2,
        omega: 3.0 + 0.5 * i as f64,
        phase: 0.6,
        offset: 0.3,
    }
}

impl Stack {
    /// Build, populate and start the whole stack in `dir` (created fresh).
    pub fn build(dir: &Path, seed: u64) -> Result<Stack, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let db = Db::open(dir.join("snapshot.json"), dir.join("wal.log"))
            .map_err(err("open database"))?;
        // Bulk load without per-commit fsync; the checkpoint below makes
        // it durable, and every measured phase runs with fsync on.
        db.set_fsync(false);
        amp_core::setup::initialize(&db).map_err(err("initialize schema"))?;

        let mut grid = Grid::new();
        grid.add_site(amp_grid::systems::kraken());
        install_amp_stack(&mut grid, SITE);
        for a in app::builtin() {
            let model: Arc<dyn Application> = Arc::new(ModelApp::new(a.clone()));
            let ga: Arc<dyn Application> = Arc::new(GaApp::new(a.clone()));
            grid.install_app(
                SITE,
                &a.model_path(),
                Arc::new(Timed {
                    inner: model,
                    name: "science.model",
                }),
            );
            grid.install_app(
                SITE,
                &a.ga_path(),
                Arc::new(Timed {
                    inner: ga,
                    name: "science.ga",
                }),
            );
        }
        let mut daemons = Vec::new();
        for i in 0..2 {
            let d = GridAmp::new(&db, daemon_config(i)).map_err(err("daemon"))?;
            grid.authorize(SITE, d.credential());
            daemons.push(d);
        }

        let mut fx = populate_fixtures(&db, seed)?;
        fx.archive = populate_archive(&db, &grid, &mut daemons, &fx, seed)?;
        // The operator's checkpoint after the bulk load: the measured
        // phase starts from a compacted snapshot, not a long WAL.
        db.compact().map_err(err("compact after load"))?;
        db.set_fsync(true);

        let portal = Arc::new(Portal::new(&db, PortalConfig::default()).map_err(err("portal"))?);
        portal.set_now(grid.now().as_secs() as i64);
        let server = Server::spawn_with(
            portal.clone(),
            0,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("server: {e}"))?;
        let mut stack = Stack {
            dir: dir.to_path_buf(),
            db,
            grid,
            daemons,
            portal,
            server: Some(server),
            fx,
        };
        stack.login_all()?;
        stack.warm_up()?;
        Ok(stack)
    }

    /// Stop the server and drop every database handle.
    pub fn shut_down(mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }

    /// Turn the daemons' per-item tick profiles on or off.
    pub fn set_profiling(&mut self, on: bool) {
        for d in &mut self.daemons {
            d.profile = on.then(TickProfile::default);
        }
    }

    fn login_all(&mut self) -> Result<(), String> {
        let mut client = Client::connect(self.addr()).map_err(|e| format!("connect: {e}"))?;
        for (i, u) in self.fx.users.iter().enumerate() {
            let token = login(&mut client, &u.name)?;
            self.fx.sessions.set(i, token);
        }
        Ok(())
    }

    /// One request of every page family, so lazy initialization (template
    /// registry, metric handles, router) is paid before timing starts.
    fn warm_up(&self) -> Result<(), String> {
        let mut client = Client::connect(self.addr()).map_err(|e| format!("connect: {e}"))?;
        let first = &self.fx.archive[0];
        let paths = [
            ("/".to_string(), None),
            ("/stars".to_string(), None),
            (
                format!("/star/{}", crate::client::encode(&self.fx.catalog[0])),
                None,
            ),
            ("/metrics".to_string(), None),
            ("/simulations".to_string(), Some(self.fx.sessions.get(0))),
            (
                format!("/simulation/{}", first.id),
                Some(self.fx.sessions.get(first.owner)),
            ),
        ];
        for (path, session) in &paths {
            let reply = client.get(path, session.as_deref())?;
            if reply.status != 200 {
                return Err(format!("warm-up GET {path}: status {}", reply.status));
            }
        }
        Ok(())
    }
}

/// Drive the daemons in lock-step (no HTTP) until every simulation
/// is DONE or `max_steps` pass. Used only to create the archive's
/// template simulations during set-up.
fn settle(db: &Db, grid: &Grid, daemons: &mut [GridAmp], max_steps: usize) -> Result<(), String> {
    let admin = db.connect(roles::ROLE_ADMIN).map_err(err("admin"))?;
    let sims = Manager::<Simulation>::new(admin);
    for _ in 0..max_steps {
        for d in daemons.iter_mut() {
            d.tick(grid);
        }
        let open = sims
            .count(&Query::new().filter("status", amp_simdb::Op::Ne, SimStatus::Done.as_str()))
            .map_err(err("count open sims"))?;
        if open == 0 {
            return Ok(());
        }
        grid.advance(SimDuration::from_secs(STEP_SECS));
    }
    Err("set-up simulations did not settle".into())
}

/// Run a handful of real simulations of both applications through the
/// daemons and grid, then replicate their DONE rows (and job records)
/// across users and catalog stars to form the archive.
fn populate_archive(
    db: &Db,
    grid: &Grid,
    daemons: &mut [GridAmp],
    fx: &Fixtures,
    seed: u64,
) -> Result<Vec<Archived>, String> {
    let web = db.connect(roles::ROLE_WEB).map_err(err("web"))?;
    let sims = Manager::<Simulation>::new(web);
    let owner = fx.users[0].id;
    let mut templates = Vec::new();
    let mut submit = |mut sim: Simulation| -> Result<(), String> {
        templates.push(sims.create(&mut sim).map_err(err("template submit"))?);
        Ok(())
    };
    for i in 0..2 {
        let t = &fx.stellar[i];
        let params = serde_json::to_value(&stellar_truth(i + 2));
        submit(Simulation::direct_for(
            "stellar", t.star_id, owner, params, SITE, fx.alloc, 0,
        ))?;
        let c = &fx.curvefit[i];
        let params = serde_json::to_value(&curve_truth(i + 1));
        submit(Simulation::direct_for(
            "curvefit", c.star_id, owner, params, SITE, fx.alloc, 0,
        ))?;
    }
    let small = |population, generations, cores| OptimizationSpec {
        ga_runs: 1,
        population,
        generations,
        cores_per_run: cores,
        seed: seed.wrapping_add(17),
    };
    let c = &fx.curvefit[0];
    submit(Simulation::optimization_for(
        "curvefit",
        c.star_id,
        owner,
        small(24, 8, 16),
        c.obs_id,
        SITE,
        fx.alloc,
        0,
    ))?;
    let t = &fx.stellar[0];
    submit(Simulation::optimization_for(
        "stellar",
        t.star_id,
        owner,
        small(12, 2, 128),
        t.obs_id,
        SITE,
        fx.alloc,
        0,
    ))?;
    settle(db, grid, daemons, 2_000)?;

    let admin = db.connect(roles::ROLE_ADMIN).map_err(err("admin"))?;
    let all_sims = Manager::<Simulation>::new(admin.clone());
    let all_jobs = Manager::<GridJobRecord>::new(admin.clone());
    let mut rows = Vec::new();
    for id in &templates {
        let sim = all_sims.get(*id).map_err(err("template"))?;
        if sim.status != SimStatus::Done {
            return Err(format!("template sim {id} ended {}", sim.status));
        }
        let jobs = all_jobs
            .filter(&Query::new().eq("simulation_id", *id).order_by("id"))
            .map_err(err("template jobs"))?;
        rows.push((sim, jobs));
    }

    let star_ids = Manager::<Star>::new(admin.clone())
        .ids(&Query::new().eq("source", "local"))
        .map_err(err("catalog ids"))?;
    let mut rng = Rng::fork(seed, "archive");
    let archive = admin
        .transaction(&[Simulation::TABLE, GridJobRecord::TABLE], |tx| {
            let mut out = Vec::with_capacity(SIZES.archive_sims);
            for i in 0..SIZES.archive_sims {
                let (template, jobs) = &rows[i % rows.len()];
                let owner = i % fx.users.len();
                let mut sim = template.clone();
                sim.id = None;
                sim.owner_id = fx.users[owner].id;
                sim.star_id = star_ids[rng.below(star_ids.len())];
                let id = tx.insert(Simulation::TABLE, &sim.to_values())?;
                for j in jobs {
                    let mut job = j.clone();
                    job.id = None;
                    job.simulation_id = id;
                    job.gram_handle = job.gram_handle.map(|h| format!("{h}-archive{id}"));
                    tx.insert(GridJobRecord::TABLE, &job.to_values())?;
                }
                out.push(Archived {
                    id,
                    owner,
                    stellar: sim.app == "stellar",
                });
            }
            Ok(out)
        })
        .map_err(err("archive load"))?;
    Ok(archive)
}

/// Users, the allocation, campaign targets with observations, and the
/// catalog — bulk-loaded in a few durable transactions.
fn populate_fixtures(db: &Db, seed: u64) -> Result<Fixtures, String> {
    let admin = db.connect(roles::ROLE_ADMIN).map_err(err("admin"))?;
    let hash = amp_portal::hash_password(PASSWORD, "e2e");
    let users = admin
        .transaction(&[AmpUser::TABLE], |tx| {
            (0..SIZES.users)
                .map(|i| {
                    let name = format!("astro{i:02}");
                    let mut u = AmpUser::new(&name, &format!("{name}@example.edu"), &hash, 0);
                    u.approved = true;
                    let id = tx.insert(AmpUser::TABLE, &u.to_values())?;
                    Ok(User { id, name })
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(err("users"))?;
    let alloc = Manager::<Allocation>::new(admin.clone())
        .create(&mut Allocation::new(SITE, "TG-AST-E2E", 1.0e12))
        .map_err(err("allocation"))?;
    admin
        .transaction(&[SystemAuthorization::TABLE], |tx| {
            for u in &users {
                tx.insert(
                    SystemAuthorization::TABLE,
                    &SystemAuthorization::new(u.id, alloc, 0).to_values(),
                )?;
            }
            Ok(())
        })
        .map_err(err("authorizations"))?;

    let sky = synthetic_sky(SIZES.catalog_stars, seed);
    let catalog: Vec<String> = sky.iter().map(|s| s.identifier()).collect();
    admin
        .transaction(&[Star::TABLE], |tx| {
            for entry in &sky {
                tx.insert(Star::TABLE, &Star::from_catalog(entry, "local").to_values())?;
            }
            Ok(())
        })
        .map_err(err("catalog"))?;

    let stars = Manager::<Star>::new(admin.clone());
    let observations = Manager::<Observation>::new(admin.clone());
    let mut stellar = Vec::new();
    let mut curvefit = Vec::new();
    for i in 0..SIZES.targets {
        let mut star = Star::from_catalog(
            &synthetic_sky(1, seed.wrapping_add(900 + i as u64))[0],
            "target",
        );
        star.identifier = format!("KIC E2E-{i}");
        let star_id = stars.create(&mut star).map_err(err("stellar target"))?;
        let observed = synthesize(
            &star.identifier,
            &stellar_truth(i),
            &Domain::default(),
            0.1,
            seed,
        )
        .map_err(|e| format!("synthesize: {e}"))?;
        let obs_id = observations
            .create(&mut Observation::new(star_id, users[0].id, &observed, 0))
            .map_err(err("stellar observation"))?;
        stellar.push(Target { star_id, obs_id });

        let mut star = Star::from_catalog(
            &synthetic_sky(1, seed.wrapping_add(7000 + i as u64))[0],
            "curvefit",
        );
        star.identifier = format!("CF E2E-{i}");
        let star_id = stars.create(&mut star).map_err(err("curvefit target"))?;
        let curve = synthesize_curve(
            &star.identifier,
            &curve_truth(i),
            60,
            0.02,
            seed.wrapping_add(i as u64),
        );
        let obs_id = observations
            .create(&mut Observation::from_data_json(
                star_id,
                users[0].id,
                serde_json::to_string(&curve).expect("curve serializes"),
                0,
            ))
            .map_err(err("curvefit observation"))?;
        curvefit.push(Target { star_id, obs_id });
    }
    Ok(Fixtures {
        sessions: Sessions(Arc::new(RwLock::new(vec![String::new(); users.len()]))),
        users,
        alloc,
        stellar,
        curvefit,
        catalog,
        archive: Vec::new(),
    })
}

/// The navigation link every page shows a logged-in `user`.
pub fn nav_link(user: &str) -> String {
    format!("<a href=\"/accounts/profile\">{user}</a>")
}

/// Log `user` in over HTTP; returns the session token.
pub fn login(client: &mut Client, user: &str) -> Result<String, String> {
    let reply = client.post(
        "/accounts/login",
        &[
            ("username", user.to_string()),
            ("password", PASSWORD.to_string()),
        ],
        None,
    )?;
    reply
        .header("Set-Cookie")
        .and_then(|c| c.split(';').next())
        .and_then(|c| c.strip_prefix("amp_session="))
        .map(str::to_string)
        .ok_or_else(|| format!("login of {user} failed: status {}", reply.status))
}

/// Check a DONE simulation's result through its own application.
pub fn result_parses(sim: &Simulation) -> bool {
    let Some(raw) = &sim.result_json else {
        return false;
    };
    let Some(app) = app::lookup(&sim.app) else {
        return false;
    };
    serde_json::from_str::<serde_json::Value>(raw).is_ok()
        && app.result_summary(sim.kind, raw).is_some()
}

/// Every simulation row, serialized: the byte-identity witness for the
/// restart check.
pub fn simulation_rows(db: &Db) -> Result<Vec<(i64, String)>, String> {
    let admin = db.connect(roles::ROLE_ADMIN).map_err(err("admin"))?;
    let rows = admin
        .select(Simulation::TABLE, &Query::new().order_by("id"))
        .map_err(err("select simulations"))?;
    Ok(rows
        .into_iter()
        .map(|(id, row)| (id, serde_json::to_string(&row).expect("row serializes")))
        .collect())
}

/// Time `Db::open` of the snapshot + WAL in `dir` `times` times; returns
/// the open durations and the reopened database of the last open.
pub fn reopen(dir: &Path, times: usize) -> Result<(Vec<Duration>, Db), String> {
    let mut took = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let start = Instant::now();
        let db = Db::open(dir.join("snapshot.json"), dir.join("wal.log")).map_err(err("reopen"))?;
        took.push(start.elapsed());
        last = Some(db);
    }
    let db = last.ok_or("reopen needs at least one open")?;
    amp_core::setup::initialize(&db).map_err(err("roles after reopen"))?;
    Ok((took, db))
}

#[cfg(test)]
mod tests {
    use super::sim_of_workdir;

    #[test]
    fn workdir_names_its_simulation() {
        assert_eq!(sim_of_workdir("amp/sim42"), Some(42));
        assert_eq!(sim_of_workdir("amp/sim7/run1"), Some(7));
        assert_eq!(sim_of_workdir("scratch/x"), None);
    }
}
