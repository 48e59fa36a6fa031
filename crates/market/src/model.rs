//! The factor-model return simulator.
//!
//! Daily returns follow a three-level factor structure plus a global
//! consumer-demand channel:
//!
//! ```text
//! r_i(t) = β_m,i · f_mkt(t) + β_s,i · f_sec(i)(t) + β_ss,i · f_sub(i)(t)
//!        + β_d,i · d(t)                  (consumer-leaning sectors)
//!        + φ_i · (|d(t)| − E|d|)         (producer-leaning sectors)
//!        + ε_i(t)
//! ```
//!
//! Same-sub-sector pairs share all three hierarchy factors (high
//! correlation, paper-like top ACVs ≈ 0.45–0.6 at k = 3); same-sector pairs
//! share two; cross-sector pairs share only the (weak) market factor and
//! the demand channel.
//!
//! The demand channel reproduces the paper's producer/consumer findings
//! (Section 5.2) including their *direction*. There are several independent
//! demand **streams** `d_j(t)`; each consumer loads on exactly one stream
//! monotonically, and each producer responds to the *folded magnitude*
//! `|d_j(t)|` of a couple of randomly selected streams. A consumer's
//! discretized value therefore pins down its stream and hence predicts the
//! producers exposed to it (consumers gain weighted **out**-degree,
//! producers gain weighted **in**-degree), while a producer's value leaves
//! the *sign* of the stream ambiguous, so the reverse edges carry much
//! lower ACVs — an asymmetry a jointly-Gaussian model cannot express,
//! because ACVs of symmetric joint distributions are direction-symmetric.
//! Spreading consumers over many streams avoids a market-wide consumer
//! clique that would otherwise swamp both degree lists. Producer-leaning
//! sectors also get shrunken idiosyncratic noise (predictable, matching the
//! paper's "producers thrive mostly on their own").

use crate::universe::Universe;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the market simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of trading days to simulate (prices get `n_days` entries, so
    /// delta series have `n_days - 1`).
    pub n_days: usize,
    /// RNG seed; equal seeds reproduce identical markets.
    pub seed: u64,
    /// Daily volatility scale applied to every return component.
    pub daily_vol: f64,
    /// Market-factor standard deviation (relative units).
    pub market_sd: f64,
    /// Sector-factor standard deviation.
    pub sector_sd: f64,
    /// Sub-sector-factor standard deviation.
    pub subsector_sd: f64,
    /// Idiosyncratic noise s.d. is drawn uniformly from this range.
    pub idio_sd: (f64, f64),
    /// Multiplier on idiosyncratic noise for producer-leaning sectors
    /// (< 1 ⇒ more predictable).
    pub producer_idio_shrink: f64,
    /// Multiplier on idiosyncratic noise for consumer-leaning sectors
    /// (< 1 ⇒ sharper predictors; their demand component remains opaque to
    /// non-stream-mates, so their own predictability stays moderate).
    pub consumer_idio_shrink: f64,
    /// Multiplier on market loading for consumer-leaning sectors
    /// (> 1 ⇒ more predictive).
    pub consumer_market_boost: f64,
    /// Multiplier on market loading for producer-leaning sectors (< 1 ⇒
    /// producers move on sector fundamentals and demand magnitude, not the
    /// broad market — they are predicted, they do not predict).
    pub producer_market_shrink: f64,
    /// Multiplier on sector and sub-sector loadings for producer-leaning
    /// sectors. Values < 1 damp shared sector shocks relative to the folded
    /// demand channel and the shrunken idiosyncratic noise, which is what
    /// concentrates weighted in-degree on producers (the Figure 5.1
    /// finding); > 1 instead yields commodity-style sector cliques that
    /// dilute it.
    pub producer_cohesion: f64,
    /// Demand loading `β_d` range for consumer-leaning sectors.
    pub consumer_demand_loading: (f64, f64),
    /// Folded-demand loading `φ` range, per selected stream, for
    /// producer-leaning sectors.
    pub producer_fold_loading: (f64, f64),
    /// Number of independent demand streams; 0 means one stream per three
    /// consumers (min 4).
    pub demand_streams: usize,
    /// Streams each producer responds to.
    pub producer_streams: usize,
    /// Initial price for every series.
    pub start_price: f64,
    /// Degrees of freedom for Student-t idiosyncratic noise. `0` (the
    /// default) keeps the Gaussian draws — and the exact RNG stream —
    /// of every earlier fixture; `df ≥ 3` fattens the delta tails
    /// (variance-normalized, so factor structure and ACV levels stay
    /// comparable) for the heavy-tail stress scenarios.
    pub tail_df: usize,
    /// Optional two-state calm/crisis regime schedule. `None` (the
    /// default) draws nothing extra, preserving the RNG stream of
    /// regime-free fixtures.
    pub regimes: Option<RegimeConfig>,
}

/// A two-state (calm/crisis) Markov regime schedule: in a crisis the
/// market factor swells and every ticker leans harder on it, so
/// cross-sector correlations jump *together* — the correlated regime
/// shift the plain factor model never produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeConfig {
    /// Expected calm-segment length in days (per-day switch probability
    /// is its reciprocal).
    pub calm_len: usize,
    /// Expected crisis-segment length in days.
    pub crisis_len: usize,
    /// Market-factor s.d. multiplier during a crisis.
    pub crisis_vol: f64,
    /// Market-loading multiplier applied to every ticker in a crisis
    /// (raises cross-sector co-movement, not just variance).
    pub crisis_beta: f64,
    /// Idiosyncratic-noise multiplier during a crisis (< 1 ⇒ the common
    /// factor dominates even harder).
    pub crisis_idio: f64,
}

impl Default for RegimeConfig {
    fn default() -> Self {
        RegimeConfig {
            calm_len: 180,
            crisis_len: 40,
            crisis_vol: 2.5,
            crisis_beta: 1.6,
            crisis_idio: 0.6,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n_days: 15 * crate::calendar::TRADING_DAYS_PER_YEAR,
            seed: 0x5eed,
            daily_vol: 0.012,
            // Strong global factor + low idiosyncratic noise: like the
            // paper's real S&P data, most directed-edge candidates pass γ₁
            // (the paper kept ~89%), and because every series already
            // reflects its factors sharply, *redundant* pairs gain < 5%
            // synergy — the γ₂ bar keeps only genuinely complementary
            // (cross-factor) 2-to-1 hyperedges.
            market_sd: 1.5,
            sector_sd: 0.95,
            subsector_sd: 0.85,
            idio_sd: (1.3, 2.2),
            producer_idio_shrink: 0.25,
            consumer_idio_shrink: 0.55,
            consumer_market_boost: 1.15,
            producer_market_shrink: 1.0,
            producer_cohesion: 0.9,
            consumer_demand_loading: (1.2, 1.8),
            producer_fold_loading: (0.7, 1.1),
            demand_streams: 0,
            producer_streams: 2,
            start_price: 50.0,
            tail_df: 0,
            regimes: None,
        }
    }
}

/// Per-ticker loadings drawn once per simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct TickerParams {
    pub beta_market: f64,
    pub beta_sector: f64,
    pub beta_subsector: f64,
    /// Monotone demand loading and stream index (consumer-leaning sectors
    /// only; `None` otherwise).
    pub demand: Option<(u16, f64)>,
    /// Folded-demand responses `(stream, φ)` (producer-leaning sectors
    /// only; empty otherwise).
    pub folds: Vec<(u16, f64)>,
    pub idio_sd: f64,
}

/// A simulated market: the universe plus per-ticker daily closing prices.
#[derive(Debug, Clone)]
pub struct Market {
    universe: Universe,
    params: Vec<TickerParams>,
    /// `prices[ticker][day]`.
    prices: Vec<Vec<f64>>,
    /// Crisis flag per *return* day (aligned with the delta series:
    /// entry `d` covers the move from day `d` to `d + 1`). Empty unless
    /// [`SimConfig::regimes`] was set.
    crisis_days: Vec<bool>,
}

/// Samples a standard normal via Box–Muller (keeps us off rand_distr).
fn std_normal<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.gen::<f64>();
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Idiosyncratic noise sample. With `tail_df == 0` this is exactly one
/// [`std_normal`] draw (the historical RNG stream); with `df ≥ 1` it is a
/// Student-t variate `z · √(df / Σᵢzᵢ²)` built from `df` extra normals,
/// rescaled to unit variance when `df > 2` so heavy tails don't also mean
/// inflated overall noise.
fn idio_noise<R: Rng>(rng: &mut R, tail_df: usize) -> f64 {
    let z = std_normal(rng);
    if tail_df == 0 {
        return z;
    }
    let mut chi2 = 0.0;
    for _ in 0..tail_df {
        let x = std_normal(rng);
        chi2 += x * x;
    }
    let df = tail_df as f64;
    let t = z * (df / chi2.max(f64::MIN_POSITIVE)).sqrt();
    if tail_df > 2 {
        t * ((df - 2.0) / df).sqrt()
    } else {
        t
    }
}

impl Market {
    /// Simulates a market over `universe` with the given configuration.
    pub fn simulate(universe: Universe, cfg: &SimConfig) -> Market {
        assert!(cfg.n_days >= 2, "need at least two days for a delta series");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = universe.len();

        let num_consumers = universe
            .tickers()
            .iter()
            .filter(|t| t.sector.is_consumer_leaning())
            .count();
        let streams = if cfg.demand_streams > 0 {
            cfg.demand_streams
        } else {
            (num_consumers / 3).max(4)
        };

        let mut consumer_rank = 0usize;
        let params: Vec<TickerParams> = universe
            .tickers()
            .iter()
            .map(|t| {
                let mut beta_market = rng.gen_range(0.4..1.1);
                if t.sector.is_consumer_leaning() {
                    beta_market *= cfg.consumer_market_boost;
                }
                if t.sector.is_producer_leaning() {
                    beta_market *= cfg.producer_market_shrink;
                }
                let mut beta_sector = rng.gen_range(0.6..1.4);
                let mut beta_subsector = rng.gen_range(0.4..1.1);
                if t.sector.is_producer_leaning() {
                    beta_sector *= cfg.producer_cohesion;
                    beta_subsector *= cfg.producer_cohesion;
                }
                // Consecutive consumers share a stream (they sit in one
                // sector anyway), spreading demand across the universe.
                let demand = if t.sector.is_consumer_leaning() {
                    let stream = (consumer_rank * streams / num_consumers.max(1)) as u16;
                    consumer_rank += 1;
                    Some((
                        stream,
                        rng.gen_range(cfg.consumer_demand_loading.0..cfg.consumer_demand_loading.1),
                    ))
                } else {
                    None
                };
                let folds = if t.sector.is_producer_leaning() {
                    let picks = cfg.producer_streams.min(streams);
                    let mut chosen: Vec<u16> = Vec::with_capacity(picks);
                    while chosen.len() < picks {
                        let s = rng.gen_range(0..streams) as u16;
                        if !chosen.contains(&s) {
                            chosen.push(s);
                        }
                    }
                    chosen
                        .into_iter()
                        .map(|s| {
                            (
                                s,
                                rng.gen_range(
                                    cfg.producer_fold_loading.0..cfg.producer_fold_loading.1,
                                ),
                            )
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                let mut idio_sd = rng.gen_range(cfg.idio_sd.0..cfg.idio_sd.1);
                if t.sector.is_producer_leaning() {
                    idio_sd *= cfg.producer_idio_shrink;
                } else if t.sector.is_consumer_leaning() {
                    idio_sd *= cfg.consumer_idio_shrink;
                }
                TickerParams {
                    beta_market,
                    beta_sector,
                    beta_subsector,
                    demand,
                    folds,
                    idio_sd,
                }
            })
            .collect();

        let num_ss = universe.num_subsectors().max(1);
        let mut prices = vec![Vec::with_capacity(cfg.n_days); n];
        for p in prices.iter_mut() {
            p.push(cfg.start_price);
        }

        // E|Z| for a standard normal, to center the folded demand.
        let fold_mean = (2.0 / std::f64::consts::PI).sqrt();
        let mut sector_f = [0.0f64; 12];
        let mut subsector_f = vec![0.0f64; num_ss];
        let mut demand_f = vec![0.0f64; streams];
        let mut in_crisis = false;
        let mut crisis_days: Vec<bool> = Vec::new();
        for _day in 1..cfg.n_days {
            // Regime switch first, so the day's factors already see the new
            // state. Drawing the uniform only when a schedule is configured
            // keeps the regime-free RNG stream byte-identical to before.
            if let Some(rc) = &cfg.regimes {
                let expected_len = if in_crisis {
                    rc.crisis_len
                } else {
                    rc.calm_len
                };
                let flip: f64 = rng.gen();
                if flip < 1.0 / expected_len.max(1) as f64 {
                    in_crisis = !in_crisis;
                }
                crisis_days.push(in_crisis);
            }
            let (crisis_vol, crisis_beta, crisis_idio) = match (&cfg.regimes, in_crisis) {
                (Some(rc), true) => (rc.crisis_vol, rc.crisis_beta, rc.crisis_idio),
                _ => (1.0, 1.0, 1.0),
            };
            let f_mkt = std_normal(&mut rng) * cfg.market_sd * crisis_vol;
            for f in demand_f.iter_mut() {
                *f = std_normal(&mut rng);
            }
            for f in sector_f.iter_mut() {
                *f = std_normal(&mut rng) * cfg.sector_sd;
            }
            for f in subsector_f.iter_mut() {
                *f = std_normal(&mut rng) * cfg.subsector_sd;
            }
            for (i, t) in universe.tickers().iter().enumerate() {
                let p = &params[i];
                let mut raw = p.beta_market * crisis_beta * f_mkt
                    + p.beta_sector * sector_f[t.sector.index()]
                    + p.beta_subsector * subsector_f[t.subsector as usize]
                    + p.idio_sd * crisis_idio * idio_noise(&mut rng, cfg.tail_df);
                if let Some((stream, beta)) = p.demand {
                    raw += beta * demand_f[stream as usize];
                }
                for &(stream, phi) in &p.folds {
                    raw += phi * (demand_f[stream as usize].abs() - fold_mean);
                }
                // Scale to daily volatility; floor keeps prices positive.
                let r = (raw * cfg.daily_vol).max(-0.5);
                let last = *prices[i].last().expect("seeded with start price");
                prices[i].push(last * (1.0 + r));
            }
        }

        Market {
            universe,
            params,
            prices,
            crisis_days,
        }
    }

    /// Crisis flag per return day (length `n_days - 1`, aligned with the
    /// delta series). Empty when the market was simulated without a
    /// [`RegimeConfig`].
    pub fn crisis_days(&self) -> &[bool] {
        &self.crisis_days
    }

    /// The universe behind this market.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Per-ticker factor loadings.
    pub fn params(&self) -> &[TickerParams] {
        &self.params
    }

    /// `prices[ticker][day]` closing prices.
    pub fn prices(&self) -> &[Vec<f64>] {
        &self.prices
    }

    /// Number of simulated days.
    pub fn n_days(&self) -> usize {
        self.prices.first().map_or(0, Vec::len)
    }

    /// Delta (fractional-change) series per ticker; length `n_days - 1`.
    ///
    /// Uses the checked transform: the simulator floors every daily return
    /// at −50% precisely so prices stay positive, and this is where that
    /// invariant is enforced rather than silently producing `inf`/`NaN`
    /// deltas if it ever broke.
    pub fn deltas(&self) -> Vec<Vec<f64>> {
        hypermine_data::try_delta_matrix(&self.prices)
            .expect("simulated prices are positive by construction")
    }

    /// Pearson correlation of the delta series of tickers `i` and `j`
    /// (diagnostic used by tests to validate the factor structure).
    pub fn delta_correlation(&self, i: usize, j: usize) -> f64 {
        let a = hypermine_data::delta_series(&self.prices[i]);
        let b = hypermine_data::delta_series(&self.prices[j]);
        correlation(&a, &b)
    }
}

/// Pearson correlation of two equal-length samples.
pub fn correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "series must be equally long");
    let n = a.len() as f64;
    if a.is_empty() {
        return 0.0;
    }
    let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sector::Sector;

    fn small_market() -> Market {
        let cfg = SimConfig {
            n_days: 600,
            seed: 42,
            ..SimConfig::default()
        };
        Market::simulate(Universe::sp500(60), &cfg)
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = SimConfig {
            n_days: 50,
            seed: 9,
            ..SimConfig::default()
        };
        let m1 = Market::simulate(Universe::sp500(20), &cfg);
        let m2 = Market::simulate(Universe::sp500(20), &cfg);
        assert_eq!(m1.prices(), m2.prices());
        let m3 = Market::simulate(
            Universe::sp500(20),
            &SimConfig {
                seed: 10,
                ..cfg.clone()
            },
        );
        assert_ne!(m1.prices(), m3.prices());
    }

    #[test]
    fn prices_stay_positive() {
        let m = small_market();
        assert!(m
            .prices()
            .iter()
            .all(|series| series.iter().all(|&p| p > 0.0)));
        assert_eq!(m.n_days(), 600);
    }

    #[test]
    fn same_subsector_correlation_dominates_cross_sector() {
        let m = small_market();
        let u = m.universe();
        // Average same-subsector vs cross-sector correlation.
        let (mut same, mut same_n) = (0.0, 0);
        let (mut cross, mut cross_n) = (0.0, 0);
        for i in 0..u.len() {
            for j in (i + 1)..u.len() {
                let c = m.delta_correlation(i, j);
                if u.ticker(i).subsector == u.ticker(j).subsector {
                    same += c;
                    same_n += 1;
                } else if u.ticker(i).sector != u.ticker(j).sector {
                    cross += c;
                    cross_n += 1;
                }
            }
        }
        let same = same / same_n.max(1) as f64;
        let cross = cross / cross_n.max(1) as f64;
        assert!(
            same > 0.35 && same > cross + 0.15,
            "same-subsector corr {same:.3} should exceed cross-sector {cross:.3}"
        );
    }

    #[test]
    fn producer_sectors_have_lower_idio_noise() {
        let m = small_market();
        let u = m.universe();
        let avg = |pred: &dyn Fn(Sector) -> bool| {
            let (mut s, mut n) = (0.0, 0);
            for (i, t) in u.tickers().iter().enumerate() {
                if pred(t.sector) {
                    s += m.params()[i].idio_sd;
                    n += 1;
                }
            }
            s / n.max(1) as f64
        };
        let producers = avg(&|s: Sector| s == Sector::BasicMaterials || s == Sector::Energy);
        let neutral = avg(&|s: Sector| s == Sector::Financial || s == Sector::Utilities);
        assert!(producers < neutral * 0.7);
    }

    #[test]
    fn correlation_helper_basics() {
        let a = [1.0, 2.0, 3.0];
        assert!((correlation(&a, &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((correlation(&a, &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&a, &[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(correlation(&[], &[]), 0.0);
    }

    /// Sample excess kurtosis of a series (0 for a Gaussian).
    fn excess_kurtosis(xs: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
        m4 / (var * var) - 3.0
    }

    #[test]
    fn new_generator_fields_default_off_and_leave_stream_unchanged() {
        let base = SimConfig {
            n_days: 120,
            seed: 17,
            ..SimConfig::default()
        };
        assert_eq!(base.tail_df, 0);
        assert_eq!(base.regimes, None);
        // Spelling the defaults out explicitly must reproduce the same
        // market bit-for-bit (the features draw nothing when disabled).
        let explicit = SimConfig {
            tail_df: 0,
            regimes: None,
            ..base.clone()
        };
        let m1 = Market::simulate(Universe::sp500(24), &base);
        let m2 = Market::simulate(Universe::sp500(24), &explicit);
        assert_eq!(m1.prices(), m2.prices());
        assert!(m1.crisis_days().is_empty());
    }

    #[test]
    fn heavy_tails_fatten_delta_kurtosis() {
        let universe = Universe::sp500(40);
        let mk = |tail_df| {
            let cfg = SimConfig {
                n_days: 1200,
                seed: 23,
                tail_df,
                // Crank idio noise so the tail shape of ε dominates the
                // (always-Gaussian) factor mixture.
                idio_sd: (3.0, 4.0),
                ..SimConfig::default()
            };
            Market::simulate(universe.clone(), &cfg)
        };
        let avg_kurt = |m: &Market| {
            let deltas = m.deltas();
            deltas.iter().map(|d| excess_kurtosis(d)).sum::<f64>() / deltas.len() as f64
        };
        let gauss = avg_kurt(&mk(0));
        let heavy = avg_kurt(&mk(3));
        assert!(
            heavy > gauss + 1.0,
            "t(3) idio noise should fatten tails: gaussian kurt {gauss:.3}, heavy {heavy:.3}"
        );
    }

    #[test]
    fn regime_shifts_raise_crisis_comovement() {
        let cfg = SimConfig {
            n_days: 1500,
            seed: 31,
            regimes: Some(RegimeConfig::default()),
            ..SimConfig::default()
        };
        let m = Market::simulate(Universe::sp500(40), &cfg);
        let flags = m.crisis_days();
        assert_eq!(flags.len(), cfg.n_days - 1);
        let n_crisis = flags.iter().filter(|&&c| c).count();
        assert!(
            n_crisis > 50 && n_crisis < flags.len() - 50,
            "expected a mix of regimes, got {n_crisis}/{} crisis days",
            flags.len()
        );
        // In a crisis the common factor swells, so the dispersion of the
        // cross-sectional mean return jumps relative to calm days.
        let deltas = m.deltas();
        let n = deltas.len() as f64;
        let day_mean = |d: usize| deltas.iter().map(|s| s[d]).sum::<f64>() / n;
        let rms = |days: &[usize]| {
            (days.iter().map(|&d| day_mean(d).powi(2)).sum::<f64>() / days.len().max(1) as f64)
                .sqrt()
        };
        let crisis: Vec<usize> = (0..flags.len()).filter(|&d| flags[d]).collect();
        let calm: Vec<usize> = (0..flags.len()).filter(|&d| !flags[d]).collect();
        let (rc, rq) = (rms(&crisis), rms(&calm));
        assert!(
            rc > rq * 1.5,
            "crisis-day market moves should dwarf calm days: crisis rms {rc:.5}, calm {rq:.5}"
        );
    }

    #[test]
    #[should_panic(expected = "at least two days")]
    fn one_day_market_rejected() {
        Market::simulate(
            Universe::sp500(12),
            &SimConfig {
                n_days: 1,
                ..SimConfig::default()
            },
        );
    }
}
