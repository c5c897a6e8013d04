//! Seeded input generation. The program under test only ever sees what
//! these generators produce; the same seed always yields the same inputs.

/// SplitMix64: tiny, fast, and fully specified, so the generated inputs
/// do not depend on any other crate's RNG stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent stream for `label`, so adding a draw to one
    /// generator never shifts another's sequence.
    pub fn fork(seed: u64, label: &str) -> Rng {
        let mut h = seed;
        for b in label.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        Rng::new(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Zipf popularity over `n` ranks: rank `k` (0-based) is drawn with
/// probability proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty set");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Which science application a submission targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Stellar,
    CurveFit,
}

impl App {
    pub fn id(self) -> &'static str {
        match self {
            App::Stellar => "stellar",
            App::CurveFit => "curvefit",
        }
    }
}

/// What a virtual user submits.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    /// A direct model run with these form parameters.
    Direct(Vec<(&'static str, f64)>),
    /// An optimization run: GA runs × generations (population and cores
    /// are the application's defaults, as the submit form fixes them).
    Optimization { ga_runs: u32, generations: u32 },
}

/// One seeded submission: at lock-step `step`, virtual user `user`
/// submits `job` for application `app` against target `target`.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub step: u64,
    pub user: usize,
    pub app: App,
    pub target: usize,
    pub job: Job,
}

/// The campaign's shape. Every field is fixed by the benchmark; only the
/// seed varies between runs.
#[derive(Debug, Clone)]
pub struct CampaignShape {
    /// Submissions in one campaign.
    pub sims: usize,
    /// Lock-step steps over which arrivals are spread.
    pub arrival_steps: u64,
    pub users: usize,
    /// Targets per application (each owns an observation set).
    pub targets: usize,
    /// Share of submissions that are optimizations.
    pub optimization_share: f64,
    /// Share of submissions for the stellar application.
    pub stellar_share: f64,
    /// Share of optimizations that are stellar (the rest are curvefit);
    /// stellar GA evaluations are ~12x a curvefit one, so they stay rare.
    pub stellar_optimization_share: f64,
}

/// Draw stellar parameters from a main-sequence box where the forward
/// model is well behaved (no submission is meant to fail).
fn stellar_params(rng: &mut Rng) -> Vec<(&'static str, f64)> {
    vec![
        ("mass", round3(rng.range(0.90, 1.15))),
        ("metallicity", round3(rng.range(0.012, 0.030))),
        ("helium", round3(rng.range(0.25, 0.29))),
        ("alpha", round3(rng.range(1.7, 2.2))),
        ("age", round3(rng.range(1.0, 6.0))),
    ]
}

fn curvefit_params(rng: &mut Rng) -> Vec<(&'static str, f64)> {
    vec![
        ("amplitude", round3(rng.range(0.5, 3.0))),
        ("decay", round3(rng.range(0.05, 0.8))),
        ("omega", round3(rng.range(1.0, 8.0))),
        ("phase", round3(rng.range(0.0, 6.0))),
        ("offset", round3(rng.range(-1.0, 1.0))),
    ]
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// The campaign's fixed composition: how many submissions of each
/// application and kind. Rounded shares of `shape.sims`; the seed decides
/// which arrival gets which, never how many there are, so the work a
/// campaign carries is the same for every seed.
pub fn composition(shape: &CampaignShape) -> Vec<(App, bool)> {
    let n = shape.sims;
    let opts = (n as f64 * shape.optimization_share).round() as usize;
    let stellar_opts = (opts as f64 * shape.stellar_optimization_share).round() as usize;
    let directs = n - opts;
    let stellar_directs = (directs as f64 * shape.stellar_share).round() as usize;
    let mut out = Vec::with_capacity(n);
    out.extend(std::iter::repeat_n((App::Stellar, true), stellar_opts));
    out.extend(std::iter::repeat_n(
        (App::CurveFit, true),
        opts - stellar_opts,
    ));
    out.extend(std::iter::repeat_n((App::Stellar, false), stellar_directs));
    out.extend(std::iter::repeat_n(
        (App::CurveFit, false),
        directs - stellar_directs,
    ));
    out
}

/// The seeded arrival schedule. Arrival times are jittered: the `i`-th
/// submission lands uniformly at random inside the `i`-th of `sims` equal
/// slices of the arrival window, so the live set reaches the same steady
/// level for every seed while the exact steps still vary. The fixed
/// composition is shuffled onto the arrivals, and each arrival draws its
/// user, parameters and target.
pub fn arrivals(seed: u64, shape: &CampaignShape) -> Vec<Arrival> {
    let mut times = Rng::fork(seed, "arrival-times");
    let mut mix = Rng::fork(seed, "arrival-mix");
    let slice = shape.arrival_steps as f64 / shape.sims as f64;
    let steps: Vec<u64> = (0..shape.sims)
        .map(|i| ((i as f64 + times.unit()) * slice) as u64)
        .collect();
    let mut kinds = composition(shape);
    mix.shuffle(&mut kinds);
    steps
        .into_iter()
        .zip(kinds)
        .map(|(step, (app, optimize))| {
            let user = mix.below(shape.users);
            let job = match (optimize, app) {
                (true, App::Stellar) => Job::Optimization {
                    ga_runs: 1,
                    generations: 3,
                },
                (true, App::CurveFit) => Job::Optimization {
                    ga_runs: 2,
                    generations: 10,
                },
                (false, App::Stellar) => Job::Direct(stellar_params(&mut mix)),
                (false, App::CurveFit) => Job::Direct(curvefit_params(&mut mix)),
            };
            let target = mix.below(shape.targets);
            Arrival {
                step,
                user,
                app,
                target,
                job,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> CampaignShape {
        CampaignShape {
            sims: 200,
            arrival_steps: 400,
            users: 8,
            targets: 4,
            optimization_share: 0.2,
            stellar_share: 0.4,
            stellar_optimization_share: 0.1,
        }
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(8);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut a = Rng::fork(1, "x");
        let mut b = Rng::fork(1, "y");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(1000, 1.0);
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..5000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let sample = draw(3);
        assert!(sample.iter().all(|&k| k < 1000));
        let head = sample.iter().filter(|&&k| k == 0).count();
        let tail = sample.iter().filter(|&&k| k == 999).count();
        // rank 0 is ~1000x as likely as rank 999
        assert!(head > 400 && tail < 20, "head {head} tail {tail}");
    }

    #[test]
    fn zipf_single_rank() {
        let z = Zipf::new(1, 1.0);
        let mut r = Rng::new(1);
        assert!((0..100).all(|_| z.sample(&mut r) == 0));
    }

    #[test]
    fn arrivals_are_deterministic_per_seed() {
        let s = shape();
        assert_eq!(arrivals(11, &s), arrivals(11, &s));
        assert_ne!(arrivals(11, &s), arrivals(12, &s));
    }

    #[test]
    fn composition_is_the_same_for_every_seed() {
        let s = shape();
        let count = |seed| {
            let a = arrivals(seed, &s);
            let stellar = a.iter().filter(|x| x.app == App::Stellar).count();
            let direct = a.iter().filter(|x| matches!(x.job, Job::Direct(_))).count();
            (stellar, direct)
        };
        assert_eq!(count(1), count(2));
        assert_eq!(composition(&s).len(), s.sims);
    }

    #[test]
    fn arrivals_respect_the_shape() {
        let s = shape();
        let a = arrivals(5, &s);
        assert_eq!(a.len(), s.sims);
        assert!(a.windows(2).all(|w| w[0].step <= w[1].step));
        assert!(a.iter().all(|x| x.step < s.arrival_steps));
        assert!(a.iter().all(|x| x.user < s.users && x.target < s.targets));
        let opts = a
            .iter()
            .filter(|x| matches!(x.job, Job::Optimization { .. }))
            .count();
        assert_eq!(opts, 40, "20% of 200");
        let stellar_opts = a
            .iter()
            .filter(|x| x.app == App::Stellar && matches!(x.job, Job::Optimization { .. }))
            .count();
        assert_eq!(stellar_opts, 4, "10% of the optimizations");
        for x in &a {
            if let Job::Direct(p) = &x.job {
                assert_eq!(p.len(), 5);
            }
        }
    }
}
