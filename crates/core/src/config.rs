//! Model-construction configuration.

use crate::counting::KernelPath;
use crate::simd::SimdPolicy;

/// A construction counting strategy — **inert**: every build runs the
/// observation-major sweep (see `crate::counting`), whatever this says.
///
/// The type and [`ModelConfig::strategy`] remain for compatibility only:
/// checkpoints encode the field as one byte, and the repository
/// benchmark (`perfbench/`) labels its reports with
/// [`CountStrategy::resolve`]. A follow-up deletes the type, the field
/// and the checkpoint byte together, with a checkpoint version bump so
/// that old checkpoints fail recovery cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountStrategy {
    /// The default. Builds run [`CountStrategy::ObsMajor`].
    #[default]
    Auto,
    /// The per-head bitset path, which builds do not run: they run
    /// [`CountStrategy::ObsMajor`].
    Bitset,
    /// The observation-major multi-head sweep: stream each tail row's
    /// observations once and count every head's values at once — the
    /// only construction path.
    ObsMajor,
}

impl CountStrategy {
    /// The strategy a build runs for a pass over tails of
    /// `rows_per_tail` value rows on a database of `num_attrs`
    /// attributes × `num_obs` observations over `1..=k`: always
    /// [`CountStrategy::ObsMajor`], for every input and every variant.
    pub fn resolve(
        self,
        _rows_per_tail: usize,
        _k: usize,
        _num_obs: usize,
        _num_attrs: usize,
    ) -> CountStrategy {
        CountStrategy::ObsMajor
    }
}

/// Attribute count at which [`GammaPreset::for_num_attrs`] switches from
/// [`GammaPreset::Exact`] to [`GammaPreset::WideDefault`].
///
/// The pair pass proposes `O(n²)` candidate tails, so at fixed gammas the
/// kept-edge count — and with it model memory, snapshot publishing, and
/// query fan-out — grows roughly quadratically in the attribute count. On
/// the market fixtures (`m = 504`, `k ∈ {3, 5, 8}`) the paper's C1/C2
/// gammas keep the per-node edge density roughly flat up to `n ≈ 240`
/// but cross into millions of kept edges between `n = 240` and
/// `n = 500`; 300 is the midpoint at which the stricter wide gammas
/// start paying for themselves on every fixture we gate.
pub const WIDE_PRESET_ATTRS: usize = 300;

/// Named γ-threshold presets for [`ModelConfig`].
///
/// The γ thresholds (Definition 3.7) decide which candidate edges the
/// model keeps, and thereby how model size scales with the attribute
/// count. `Exact` reproduces the paper's C1 setting verbatim;
/// `WideDefault` is a stricter pair tuned for wide universes
/// (`n ≳ `[`WIDE_PRESET_ATTRS`]) where C1-density models stop fitting the
/// RSS budget the CI perf gate enforces. Presets only choose gammas —
/// counting, kernels, and bit-identity guarantees are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GammaPreset {
    /// The paper's C1 gammas (γ₁ = 1.15, γ₂ = 1.05) — exact
    /// reproduction of the reference experiments; edge count grows
    /// roughly quadratically with the attribute count.
    Exact,
    /// Stricter gammas (γ₁ = 1.30, γ₂ = 1.20) for wide attribute sets:
    /// keeps only associations whose ACV clears its baseline by ≥ 30 %
    /// (≥ 20 % over the best constituent for hyperedges), holding
    /// per-node edge density roughly flat as `n` grows past
    /// [`WIDE_PRESET_ATTRS`].
    WideDefault,
}

impl GammaPreset {
    /// `(gamma_edge, gamma_hyper)` for this preset.
    pub fn gammas(self) -> (f64, f64) {
        match self {
            GammaPreset::Exact => (1.15, 1.05),
            GammaPreset::WideDefault => (1.30, 1.20),
        }
    }

    /// The preset recommended for a database of `num_attrs` attributes:
    /// [`GammaPreset::Exact`] below [`WIDE_PRESET_ATTRS`],
    /// [`GammaPreset::WideDefault`] at or above it.
    pub fn for_num_attrs(num_attrs: usize) -> Self {
        if num_attrs >= WIDE_PRESET_ATTRS {
            GammaPreset::WideDefault
        } else {
            GammaPreset::Exact
        }
    }
}

/// Parameters controlling association-hypergraph construction
/// (Definition 3.7 and Section 5.1.2).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// γ for directed edges (`γ₁→₁`): a directed edge `({a}, {h})` is kept
    /// iff `ACV({a},{h}) ≥ γ · ACV(∅,{h})`.
    pub gamma_edge: f64,
    /// γ for 2-to-1 hyperedges (`γ₂→₁`): `({a,b},{h})` is kept iff its ACV
    /// is at least `γ · max(ACV({a},{h}), ACV({b},{h}))`, using the *raw*
    /// constituent ACVs.
    pub gamma_hyper: f64,
    /// Whether to mine 2-to-1 directed hyperedges at all (the paper's model
    /// restricts `|T| ≤ 2`; setting this false restricts to plain directed
    /// edges, which is also the ablation baseline "directed graphs capture
    /// fewer relationships").
    pub with_hyperedges: bool,
    /// Worker threads for both counting sweeps; 0 means use
    /// [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Inert: no build reads it, and every value builds the same model
    /// through the one observation-major counting path. Kept only because
    /// checkpoints store it and the benchmark labels its reports with it
    /// (see [`CountStrategy`]).
    pub strategy: CountStrategy,
    /// Upper bound on the observation-major counting kernel tier (see
    /// `crate::counting`): the engine engages the best tier the database
    /// fits that does not exceed this cap, so the default
    /// [`KernelPath::FlatU16`] means "no restriction". Lowering the cap
    /// (to [`KernelPath::FlatU32`] or [`KernelPath::Segmented`]) forces
    /// wider-universe code paths on small fixtures; every tier is
    /// bit-identical, so this is a testing/diagnostics knob, not a
    /// tuning knob.
    pub kernel_cap: KernelPath,
    /// Whether the flat counting kernels may engage the runtime-detected
    /// SIMD tier (see `crate::simd`): the default [`SimdPolicy::Auto`]
    /// resolves to AVX2 / NEON where the host supports one,
    /// [`SimdPolicy::ForceScalar`] pins the portable scalar kernels.
    /// Every level is bit-identical — like `kernel_cap`, a
    /// testing/diagnostics knob, not a tuning knob.
    pub simd: SimdPolicy,
    /// Memory budget for the incremental engine's triple-count tensor in
    /// bytes; `None` uses the built-in 32 MB default. The tensor makes a
    /// slide's pass-2 update a handful of cell pokes per `(pair, head)`;
    /// beyond the budget (for wide attribute sets the tensor grows as
    /// `n³·k³/2` bytes — `n ≈ 128` at `k = 3` already exceeds 32 MB) the
    /// engine falls back to re-counting the two affected pair rows per
    /// slide, which produces bit-identical models at a higher per-slide
    /// cost that is cheapest exactly at large `k`. Lower it to cap
    /// streaming memory, raise it to keep the tensor at larger `n·k`.
    /// `Some(0)` forces the row-recount fallback.
    pub triple_tensor_max_bytes: Option<usize>,
}

impl Default for ModelConfig {
    /// The paper's configuration **C1** gammas (γ₁ = 1.15, γ₂ = 1.05).
    fn default() -> Self {
        ModelConfig {
            gamma_edge: 1.15,
            gamma_hyper: 1.05,
            with_hyperedges: true,
            threads: 0,
            strategy: CountStrategy::Auto,
            kernel_cap: KernelPath::FlatU16,
            simd: SimdPolicy::default(),
            triple_tensor_max_bytes: None,
        }
    }
}

impl ModelConfig {
    /// The paper's configuration **C1** (used with `k = 3`).
    pub fn c1() -> Self {
        Self::default()
    }

    /// A configuration with this [`GammaPreset`]'s gammas and every other
    /// field at its default.
    pub fn with_preset(preset: GammaPreset) -> Self {
        let (gamma_edge, gamma_hyper) = preset.gammas();
        ModelConfig {
            gamma_edge,
            gamma_hyper,
            ..Self::default()
        }
    }

    /// The paper's configuration **C2** (used with `k = 5`):
    /// γ₁ = 1.20, γ₂ = 1.12.
    pub fn c2() -> Self {
        ModelConfig {
            gamma_edge: 1.20,
            gamma_hyper: 1.12,
            ..Self::default()
        }
    }

    /// Resolved number of worker threads (≥ 1).
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations() {
        let c1 = ModelConfig::c1();
        assert_eq!(c1.gamma_edge, 1.15);
        assert_eq!(c1.gamma_hyper, 1.05);
        let c2 = ModelConfig::c2();
        assert_eq!(c2.gamma_edge, 1.20);
        assert_eq!(c2.gamma_hyper, 1.12);
        assert!(c1.with_hyperedges && c2.with_hyperedges);
    }

    #[test]
    fn gamma_presets() {
        assert_eq!(GammaPreset::Exact.gammas(), (1.15, 1.05));
        assert_eq!(GammaPreset::WideDefault.gammas(), (1.30, 1.20));
        assert_eq!(GammaPreset::for_num_attrs(40), GammaPreset::Exact);
        assert_eq!(
            GammaPreset::for_num_attrs(WIDE_PRESET_ATTRS - 1),
            GammaPreset::Exact
        );
        assert_eq!(
            GammaPreset::for_num_attrs(WIDE_PRESET_ATTRS),
            GammaPreset::WideDefault
        );
        assert_eq!(GammaPreset::for_num_attrs(500), GammaPreset::WideDefault);

        // Exact is exactly C1; WideDefault is strictly stricter on both
        // thresholds, so it keeps a subset of C1's edges on any database.
        assert_eq!(ModelConfig::with_preset(GammaPreset::Exact), ModelConfig::c1());
        let wide = ModelConfig::with_preset(GammaPreset::WideDefault);
        assert!(wide.gamma_edge > ModelConfig::c1().gamma_edge);
        assert!(wide.gamma_hyper > ModelConfig::c1().gamma_hyper);
        assert_eq!(wide.kernel_cap, KernelPath::FlatU16);
    }

    #[test]
    fn effective_threads_positive() {
        assert!(ModelConfig::default().effective_threads() >= 1);
        let cfg = ModelConfig {
            threads: 3,
            ..ModelConfig::default()
        };
        assert_eq!(cfg.effective_threads(), 3);
    }
}
