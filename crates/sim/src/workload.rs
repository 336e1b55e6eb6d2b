//! Input workloads for the experiments.
//!
//! The paper's evaluation is worst-case/synthetic; these generators cover
//! the regimes its narrative cares about: planted heavy hitters over a
//! light tail (the object of Definition 3.1), Zipf-like skew (realistic
//! telemetry), and the "URL telemetry" mixture motivated by the paper's
//! Chrome/iOS deployment discussion.
//!
//! [`StreamWorkload`] extends these to the streaming engine's epochs:
//! the distribution may *drift* between epochs (a Zipf exponent ramp,
//! heavy-hitter churn through a rotating pool) and per-epoch arrival
//! counts may jitter — the shapes a live telemetry pipeline actually
//! sees between checkpoints.

use hh_math::dist::{AliasTable, Zipf};
use hh_math::rng::{derive_seed, seeded_rng};
use hh_math::sampler::Bernoulli;
use rand::Rng;

/// A reproducible workload over a `u64` domain.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable label for experiment output.
    pub name: String,
    /// Domain size `|X|`.
    pub domain: u64,
    kind: Kind,
}

#[derive(Debug, Clone)]
enum Kind {
    Uniform,
    Zipf {
        exponent: f64,
    },
    Planted {
        heavy: Vec<(u64, f64)>,
    },
    UrlTelemetry {
        popular: u64,
        popular_mass: f64,
        exponent: f64,
    },
}

impl Workload {
    /// Uniform over the domain — the no-heavy-hitters null case.
    pub fn uniform(domain: u64) -> Self {
        Self {
            name: format!("uniform(|X|=2^{})", domain.ilog2()),
            domain,
            kind: Kind::Uniform,
        }
    }

    /// Zipf with the given exponent (rank 1 = element 0).
    pub fn zipf(domain: u64, exponent: f64) -> Self {
        Self {
            name: format!("zipf(s={exponent})"),
            domain,
            kind: Kind::Zipf { exponent },
        }
    }

    /// Planted heavy elements `(value, probability)` over a uniform tail.
    pub fn planted(domain: u64, heavy: Vec<(u64, f64)>) -> Self {
        let total: f64 = heavy.iter().map(|&(_, f)| f).sum();
        assert!(total < 1.0, "planted mass must leave room for the tail");
        for &(x, _) in &heavy {
            assert!(x < domain);
        }
        Self {
            name: format!("planted({} heavies, mass {total:.2})", heavy.len()),
            domain,
            kind: Kind::Planted { heavy },
        }
    }

    /// The browser-telemetry mixture: a Zipf head over `popular` ids
    /// holding `popular_mass` of the traffic, plus a uniform long tail
    /// over the whole (huge) domain — realistic skew for the paper's
    /// motivating deployments.
    pub fn url_telemetry(domain: u64, popular: u64, popular_mass: f64, exponent: f64) -> Self {
        assert!(popular <= domain);
        assert!((0.0..1.0).contains(&popular_mass));
        Self {
            name: format!("url-telemetry({popular} popular, mass {popular_mass})"),
            domain,
            kind: Kind::UrlTelemetry {
                popular,
                popular_mass,
                exponent,
            },
        }
    }

    /// Generate `n` user inputs, reproducibly.
    ///
    /// Skewed kinds precompute their sampling plan once per call: Zipf
    /// heads tabulate into an alias table when the batch amortizes the
    /// build (O(1) table lookups instead of `powf` rejection rounds) and
    /// planted mixtures compare one raw coin word against precomputed
    /// cumulative thresholds (no per-draw `f64` scan). The draws change
    /// relative to the per-draw code they replace, but every generator
    /// stays a pure function of `(self, n, seed)`.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = seeded_rng(seed);
        match &self.kind {
            Kind::Uniform => (0..n).map(|_| rng.gen_range(0..self.domain)).collect(),
            Kind::Zipf { exponent } => {
                let z = Zipf::new(self.domain, *exponent);
                match zipf_alias(&z, n) {
                    Some(table) => (0..n).map(|_| table.sample(&mut rng) as u64).collect(),
                    None => (0..n).map(|_| z.sample(&mut rng)).collect(),
                }
            }
            Kind::Planted { heavy } => {
                let cdf = PlantedCdf::new(heavy);
                (0..n)
                    .map(|_| {
                        cdf.sample(&mut rng)
                            .unwrap_or_else(|| rng.gen_range(0..self.domain))
                    })
                    .collect()
            }
            Kind::UrlTelemetry {
                popular,
                popular_mass,
                exponent,
            } => {
                let z = Zipf::new(*popular, *exponent);
                let table = zipf_alias(&z, n);
                let head = Bernoulli::new(*popular_mass);
                (0..n)
                    .map(|_| {
                        if head.sample(&mut rng) {
                            match &table {
                                Some(t) => t.sample(&mut rng) as u64,
                                None => z.sample(&mut rng),
                            }
                        } else {
                            rng.gen_range(0..self.domain)
                        }
                    })
                    .collect()
            }
        }
    }

    /// The elements whose *expected* count reaches `threshold` at `n`
    /// users (exact for planted; head ranks for Zipf/telemetry; empty for
    /// uniform unless the domain is tiny).
    pub fn expected_heavy(&self, n: u64, threshold: f64) -> Vec<u64> {
        match &self.kind {
            Kind::Uniform => {
                let per = n as f64 / self.domain as f64;
                if per >= threshold {
                    (0..self.domain).collect()
                } else {
                    Vec::new()
                }
            }
            Kind::Zipf { exponent } => {
                let z = Zipf::new(self.domain, *exponent);
                let mut out = Vec::new();
                for rank in 0..self.domain.min(10_000) {
                    if n as f64 * z.pmf(rank) >= threshold {
                        out.push(rank);
                    } else {
                        break;
                    }
                }
                out
            }
            Kind::Planted { heavy } => heavy
                .iter()
                .filter(|&&(_, f)| n as f64 * f >= threshold)
                .map(|&(x, _)| x)
                .collect(),
            Kind::UrlTelemetry {
                popular,
                popular_mass,
                exponent,
            } => {
                let z = Zipf::new(*popular, *exponent);
                let mut out = Vec::new();
                for rank in 0..(*popular).min(10_000) {
                    if n as f64 * popular_mass * z.pmf(rank) >= threshold {
                        out.push(rank);
                    } else {
                        break;
                    }
                }
                out
            }
        }
    }
}

/// Tabulate a Zipf head into an alias table when the domain is small
/// enough to hold and the batch is large enough to amortize the O(domain)
/// build (one `powf` per outcome — roughly what a handful of rejection
/// draws cost). Huge domains (e.g. 2^40 "URLs") keep the rejection
/// sampler, whose cost is domain-independent.
fn zipf_alias(z: &Zipf, n: usize) -> Option<AliasTable> {
    let d = z.domain();
    if d <= 1 << 20 && n as u64 >= d / 8 {
        let s = z.exponent();
        let weights: Vec<f64> = (1..=d).map(|j| (j as f64).powf(-s)).collect();
        Some(AliasTable::new(&weights))
    } else {
        None
    }
}

/// Precomputed cumulative thresholds of a planted-heavy mixture: one raw
/// coin word decides which heavy (or the tail) a draw lands on, replacing
/// the per-draw `f64` cumulative scan. Thresholds reuse the
/// [`Bernoulli`] kernel's fixed-point rounding, so each heavy's realized
/// mass is within 2⁻⁶⁴ of its requested probability.
struct PlantedCdf {
    /// `thresholds[i]` = scaled cumulative mass of heavies `0..=i`.
    thresholds: Vec<u64>,
    values: Vec<u64>,
}

impl PlantedCdf {
    fn new(heavy: &[(u64, f64)]) -> Self {
        let mut acc = 0.0;
        let mut thresholds = Vec::with_capacity(heavy.len());
        let mut values = Vec::with_capacity(heavy.len());
        for &(x, f) in heavy {
            acc += f;
            thresholds.push(Bernoulli::new(acc).threshold());
            values.push(x);
        }
        Self { thresholds, values }
    }

    /// One draw: `Some(heavy)` or `None` for the uniform tail.
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<u64> {
        let w = rng.next_u64();
        let idx = self.thresholds.partition_point(|&t| t <= w);
        self.values.get(idx).copied()
    }
}

/// Seed label separating per-epoch arrival-jitter draws from the data
/// draws of the same epoch.
const JITTER_LABEL: u64 = 0x71773E;

/// How a [`StreamWorkload`]'s distribution evolves across epochs.
#[derive(Debug, Clone)]
enum StreamKind {
    /// The same workload every epoch.
    Stationary(Workload),
    /// Zipf skew ramping linearly from one exponent to another over the
    /// stream's nominal length (clamped afterwards) — "the head
    /// sharpens/flattens as the day progresses".
    ZipfRamp { from: f64, to: f64, epochs: usize },
    /// Heavy-hitter churn: every `period` epochs the `active` planted
    /// heavies rotate to the next window of a candidate pool — trending
    /// topics arriving and fading.
    Churn {
        pool: Vec<u64>,
        active: usize,
        mass: f64,
        period: usize,
    },
}

/// A reproducible *streaming* workload: one distribution per epoch plus
/// per-epoch arrival jitter. Feed [`StreamWorkload::generate_epoch`]
/// straight into `PipelineSession::ingest_epoch`.
#[derive(Debug, Clone)]
pub struct StreamWorkload {
    /// Human-readable label for experiment output.
    pub name: String,
    /// Domain size `|X|`.
    pub domain: u64,
    kind: StreamKind,
    /// Fractional arrival jitter: epoch sizes draw uniformly from
    /// `base ± jitter·base` (0 = constant arrivals).
    jitter: f64,
}

impl StreamWorkload {
    fn check_jitter(jitter: f64) {
        assert!(
            (0.0..1.0).contains(&jitter),
            "arrival jitter must be in [0, 1), got {jitter}"
        );
    }

    /// The same distribution every epoch, with arrival jitter.
    pub fn stationary(workload: Workload, jitter: f64) -> Self {
        Self::check_jitter(jitter);
        Self {
            name: format!("stream[{}]", workload.name),
            domain: workload.domain,
            kind: StreamKind::Stationary(workload),
            jitter,
        }
    }

    /// Zipf skew ramping linearly from exponent `from` (epoch 0) to `to`
    /// (epoch `epochs - 1`), constant afterwards.
    pub fn zipf_ramp(domain: u64, from: f64, to: f64, epochs: usize, jitter: f64) -> Self {
        Self::check_jitter(jitter);
        assert!(epochs >= 1, "a ramp needs at least one epoch");
        Self {
            name: format!("zipf-ramp(s={from}->{to} over {epochs} epochs)"),
            domain,
            kind: StreamKind::ZipfRamp { from, to, epochs },
            jitter,
        }
    }

    /// Heavy-hitter churn: `active` elements of `pool` hold `mass` of
    /// the traffic (uniform tail beneath), rotating to the next window
    /// of the pool every `period` epochs.
    pub fn churn(
        domain: u64,
        pool: Vec<u64>,
        active: usize,
        mass: f64,
        period: usize,
        jitter: f64,
    ) -> Self {
        Self::check_jitter(jitter);
        assert!(!pool.is_empty(), "churn needs a candidate pool");
        assert!(
            (1..=pool.len()).contains(&active),
            "active heavies must be in 1..=pool ({} vs {})",
            active,
            pool.len()
        );
        assert!((0.0..1.0).contains(&mass), "heavy mass must leave a tail");
        assert!(period >= 1, "churn period must be >= 1");
        for &x in &pool {
            assert!(x < domain, "pool element {x} outside domain");
        }
        Self {
            name: format!(
                "churn({active}/{} heavies, mass {mass}, period {period})",
                pool.len()
            ),
            domain,
            kind: StreamKind::Churn {
                pool,
                active,
                mass,
                period,
            },
            jitter,
        }
    }

    /// The (static) workload epoch `epoch` draws from.
    pub fn epoch_workload(&self, epoch: u64) -> Workload {
        match &self.kind {
            StreamKind::Stationary(w) => w.clone(),
            StreamKind::ZipfRamp { from, to, epochs } => {
                let steps = (*epochs - 1).max(1) as f64;
                let t = (epoch as f64).min(steps) / steps;
                let s = from + (to - from) * t;
                Workload::zipf(self.domain, s)
            }
            StreamKind::Churn {
                pool,
                active,
                mass,
                period,
            } => {
                let window = (epoch / *period as u64) as usize;
                let start = (window * active) % pool.len();
                let heavy: Vec<(u64, f64)> = (0..*active)
                    .map(|i| (pool[(start + i) % pool.len()], mass / *active as f64))
                    .collect();
                Workload::planted(self.domain, heavy)
            }
        }
    }

    /// The jittered arrival count of epoch `epoch` around `base` users
    /// (a pure function of `(seed, epoch)`; at least one arrival).
    pub fn epoch_len(&self, epoch: u64, base: usize, seed: u64) -> usize {
        if self.jitter == 0.0 {
            return base.max(1);
        }
        let mut rng = seeded_rng(derive_seed(derive_seed(seed, JITTER_LABEL), epoch));
        let scale = 1.0 + self.jitter * (2.0 * rng.gen::<f64>() - 1.0);
        ((base as f64 * scale).round() as usize).max(1)
    }

    /// Generate epoch `epoch`'s arrivals: the drifted distribution at
    /// the jittered count, reproducibly.
    pub fn generate_epoch(&self, epoch: u64, base: usize, seed: u64) -> Vec<u64> {
        self.epoch_workload(epoch)
            .generate(self.epoch_len(epoch, base, seed), derive_seed(seed, epoch))
    }

    /// The elements the *current* epoch's distribution makes heavy (see
    /// [`Workload::expected_heavy`]).
    pub fn expected_heavy(&self, epoch: u64, n: u64, threshold: f64) -> Vec<u64> {
        self.epoch_workload(epoch).expected_heavy(n, threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_reproducible() {
        let w = Workload::zipf(1 << 20, 1.1);
        assert_eq!(w.generate(100, 5), w.generate(100, 5));
        assert_ne!(w.generate(100, 5), w.generate(100, 6));
    }

    #[test]
    fn planted_masses_are_respected() {
        let w = Workload::planted(1 << 16, vec![(7, 0.3), (9, 0.1)]);
        let data = w.generate(50_000, 1);
        let c7 = data.iter().filter(|&&x| x == 7).count() as f64 / 50_000.0;
        let c9 = data.iter().filter(|&&x| x == 9).count() as f64 / 50_000.0;
        assert!((c7 - 0.3).abs() < 0.02, "c7 = {c7}");
        assert!((c9 - 0.1).abs() < 0.02, "c9 = {c9}");
    }

    #[test]
    fn expected_heavy_for_planted() {
        let w = Workload::planted(1 << 16, vec![(7, 0.3), (9, 0.01)]);
        assert_eq!(w.expected_heavy(10_000, 500.0), vec![7]);
        assert_eq!(w.expected_heavy(10_000, 50.0), vec![7, 9]);
    }

    #[test]
    fn zipf_head_is_heavy() {
        let w = Workload::zipf(1 << 20, 1.5);
        let heavy = w.expected_heavy(100_000, 1_000.0);
        assert!(!heavy.is_empty());
        assert_eq!(heavy[0], 0);
        // The head must actually dominate the sample.
        let data = w.generate(50_000, 2);
        let c0 = data.iter().filter(|&&x| x == 0).count();
        assert!(c0 > 10_000, "rank-0 count {c0}");
    }

    #[test]
    fn telemetry_mixes_head_and_tail() {
        let w = Workload::url_telemetry(1 << 40, 1000, 0.8, 1.2);
        let data = w.generate(20_000, 3);
        let head = data.iter().filter(|&&x| x < 1000).count() as f64 / 20_000.0;
        assert!((head - 0.8).abs() < 0.05, "head mass {head}");
        assert!(data.iter().any(|&x| x >= 1000), "no tail traffic");
    }

    #[test]
    #[should_panic(expected = "leave room for the tail")]
    fn rejects_overfull_planted() {
        let _ = Workload::planted(16, vec![(0, 0.7), (1, 0.5)]);
    }

    #[test]
    fn zipf_ramp_drifts_monotonically() {
        let w = StreamWorkload::zipf_ramp(1 << 16, 1.0, 2.0, 5, 0.0);
        // A sharper exponent concentrates more mass on rank 0.
        let head_mass = |e: u64| {
            let data = w.epoch_workload(e).generate(20_000, 9);
            data.iter().filter(|&&x| x == 0).count()
        };
        let (first, last) = (head_mass(0), head_mass(4));
        assert!(
            last > first + 2_000,
            "ramp did not sharpen the head: {first} -> {last}"
        );
        // Clamped past the ramp's end.
        assert_eq!(
            w.epoch_workload(4).generate(100, 3),
            w.epoch_workload(40).generate(100, 3)
        );
    }

    #[test]
    fn churn_rotates_the_heavy_set() {
        let pool: Vec<u64> = (100..112).collect();
        let w = StreamWorkload::churn(1 << 16, pool.clone(), 3, 0.6, 2, 0.0);
        let heavy0 = w.expected_heavy(0, 10_000, 500.0);
        let heavy1 = w.expected_heavy(1, 10_000, 500.0);
        let heavy2 = w.expected_heavy(2, 10_000, 500.0);
        assert_eq!(heavy0, vec![100, 101, 102]);
        assert_eq!(heavy1, heavy0, "rotated before the period elapsed");
        assert_eq!(heavy2, vec![103, 104, 105]);
        // The pool wraps around.
        assert_eq!(w.expected_heavy(8, 10_000, 500.0), vec![100, 101, 102]);
    }

    #[test]
    fn arrival_jitter_is_bounded_and_reproducible() {
        let w = StreamWorkload::stationary(Workload::uniform(1 << 10), 0.25);
        for e in 0..20u64 {
            let len = w.epoch_len(e, 1000, 7);
            assert!((750..=1250).contains(&len), "epoch {e}: {len}");
            assert_eq!(len, w.epoch_len(e, 1000, 7));
        }
        // Jitter actually varies across epochs.
        let lens: std::collections::HashSet<usize> =
            (0..20).map(|e| w.epoch_len(e, 1000, 7)).collect();
        assert!(lens.len() > 5, "jitter degenerate: {lens:?}");
        // Zero jitter means constant epochs.
        let flat = StreamWorkload::stationary(Workload::uniform(1 << 10), 0.0);
        assert!((0..20).all(|e| flat.epoch_len(e, 1000, 7) == 1000));
    }

    #[test]
    #[should_panic(expected = "churn needs a candidate pool")]
    fn rejects_empty_churn_pool() {
        let _ = StreamWorkload::churn(16, vec![], 1, 0.5, 1, 0.0);
    }
}
