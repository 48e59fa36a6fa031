//! Runtime-detected SIMD variants of the dense counting kernels.
//!
//! Dense-row counting in [`crate::counting`] is the hot loop of pass-2
//! ACV construction. This module holds its explicitly vectorized forms
//! behind **runtime feature detection** — AVX2 on `x86_64` (via
//! `is_x86_feature_detected!`), NEON on `aarch64` (baseline for the
//! architecture) — so one portable binary engages the widest kernel the
//! host actually has, with the scalar blocked kernels in `counting.rs`
//! kept verbatim as the fallback for every other CPU. Two kernels:
//!
//! - **The vertical dense-row kernel** ([`dense_row_vertical`]): the
//!   main win. Instead of scattering `counts[slot] += 1` per
//!   `(observation, head)` and max-folding the counter histogram
//!   afterwards, it counts a block of 32 heads (16 on NEON) *in
//!   registers*, straight off the row-major byte code matrix: per
//!   observation one 32-byte row load plus `k` compare/accumulate pairs
//!   (`cmpeq` yields `0xff` on match; subtracting it increments the u8
//!   counter lane), then `k − 1` byte-max ops and one widening add into
//!   the totals. The histogram store traffic, the fold scan, and the
//!   per-row memset all disappear. The kernel bounds itself to rows of
//!   at most 255 observations (u8 counter lanes cannot overflow), `k`
//!   in `2..=8` (counters for every value stay in registers), and
//!   universes at least one block wide; outside those bounds it
//!   declines and the caller runs the scalar blocked bump + fold —
//!   which is also why a *gather-style* vectorization of the flat bump
//!   is deliberately absent: vector stripe loads feeding scalar
//!   conflict-safe increments were measured at 0.79× the plain scalar
//!   bump on the wide240 fixture (the store/reload round-trip loses
//!   more than the wide loads save), and were dropped for this kernel.
//! - **The max-reduce folds** ([`fold_max_u16`] / [`fold_max_u32`]):
//!   `_mm256_max_epu16` / `vmaxq_u16` over each head's padded
//!   8-byte-aligned counter chunk with a horizontal reduce — the fold
//!   tier for dense rows the vertical kernel declines (rows past 255
//!   observations, `k > 8`, narrow universes), where the blocked flat
//!   kernel still runs, at its u16 or u32 counter-lane width.
//!
//! Three invariants keep the vector forms trivially bit-identical to
//! the scalar ones (property-tested in `tests/strategies.rs`):
//!
//! - **Exact integer counts.** The vertical kernel accumulates the same
//!   per-head value counts the scalar bump does, in u8 lanes that its
//!   row bound proves cannot saturate; max-of-counts is associative, so
//!   blocking by head changes nothing.
//! - **Padded, aligned strides.** Counter lanes are laid out at
//!   [`counter_stride`] (`k` rounded up to a multiple of
//!   four lanes), so every head's chunk starts 8-byte aligned and the
//!   padding lanes hold zero — a `max` over the full padded chunk
//!   equals the scalar max over the `k` live lanes.
//! - **Overlapped tail blocks stay inside the row.** A width that is
//!   not a multiple of the block is finished with one block ending
//!   exactly at the last head (fold: at the chunk's last lane);
//!   re-maxing the overlap is idempotent, and the vertical kernel
//!   simply skips the already-accumulated lanes when adding to the
//!   totals.
//!
//! [`SimdPolicy`] on [`crate::ModelConfig`] selects the tier: `Auto`
//! resolves to the detected [`SimdLevel`], `ForceScalar` pins the
//! portable kernels (how the bit-identity tests compare paths). The
//! `HYPERMINE_FORCE_SCALAR` environment variable forces `Auto` to
//! resolve to scalar process-wide — the CI matrix leg uses it to keep
//! the portable fallback green on SIMD-capable runners. The resolved
//! level is surfaced wherever [`crate::KernelPath`] already is:
//! `AssociationModel::simd_level`, `IncrementalStats::simd`, the
//! `report` log lines, and every `perf_summary` JSON entry.
//!
//! [`counter_stride`]: hypermine_data::counter_stride

use std::sync::OnceLock;

/// Whether a model build may engage the runtime-detected SIMD kernels —
/// the `simd` knob of [`crate::ModelConfig`].
///
/// Counts are bit-identical under both policies; `ForceScalar` exists
/// for the cross-path property tests and for measuring the scalar tier
/// in isolation (`perf_summary` uses it for the recorded SIMD speedup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdPolicy {
    /// Engage the widest vector tier the host CPU supports.
    #[default]
    Auto,
    /// Pin the portable scalar kernels regardless of the host CPU.
    ForceScalar,
}

impl SimdPolicy {
    /// The [`SimdLevel`] this policy resolves to on the current host.
    pub fn resolve(self) -> SimdLevel {
        match self {
            SimdPolicy::Auto => detect(),
            SimdPolicy::ForceScalar => SimdLevel::Scalar,
        }
    }
}

/// The vector tier the counting kernels engage, in degradation order.
/// All tiers produce bit-identical counts; they differ only in how many
/// counter lanes one instruction touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// 32-head vertical blocks and 256-bit folds (`x86_64`, runtime
    /// detected).
    Avx2,
    /// 16-head vertical blocks and 128-bit folds (`aarch64` baseline).
    Neon,
    /// The portable scalar blocked kernels.
    Scalar,
}

impl SimdLevel {
    /// Stable lower-case name for JSON output and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
            SimdLevel::Scalar => "scalar",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The widest vector tier the current host supports, detected once per
/// process. Honors `HYPERMINE_FORCE_SCALAR` (any value but `0`): the CI
/// portable-fallback leg sets it to run the whole suite on the scalar
/// kernels even on SIMD-capable hardware.
pub fn detect() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if std::env::var("HYPERMINE_FORCE_SCALAR").is_ok_and(|v| v != "0") {
            return SimdLevel::Scalar;
        }
        detect_arch()
    })
}

#[cfg(target_arch = "x86_64")]
fn detect_arch() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(target_arch = "aarch64")]
fn detect_arch() -> SimdLevel {
    // NEON is baseline on aarch64: every AArch64 CPU has it.
    SimdLevel::Neon
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn detect_arch() -> SimdLevel {
    SimdLevel::Scalar
}

/// Fused vertical dense-row kernel: folds one dense tail row — the
/// observations `ids` of the row-major code matrix `codes` (row width
/// `n`, values `1..=k`) — straight into `totals`, replacing the scalar
/// bump + histogram fold + memset for that row. Returns `false` (and
/// touches nothing) when `level` has no vector kernel on this
/// architecture or the row is outside the kernel's bounds — more than
/// 255 observations (u8 counter lanes), `k` outside `2..=8` (per-value
/// counters must stay in registers), or `n` under one head block — in
/// which case the caller runs the scalar blocked kernels.
pub(crate) fn dense_row_vertical(
    level: SimdLevel,
    codes: &[u8],
    n: usize,
    ids: &[u32],
    k: usize,
    totals: &mut [u64],
) -> bool {
    if ids.len() > u8::MAX as usize || !(2..=8).contains(&k) {
        return false;
    }
    debug_assert_eq!(totals.len(), n);
    debug_assert!(ids.iter().all(|&o| (o as usize + 1) * n <= codes.len()));
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only ever resolved after a successful runtime
        // `is_x86_feature_detected!("avx2")` probe; bounds checked above.
        SimdLevel::Avx2 if n >= 32 => unsafe {
            x86::dense_row_vertical_avx2(codes, n, ids, k, totals);
            true
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on every aarch64 CPU; bounds checked
        // above.
        SimdLevel::Neon if n >= 16 => unsafe {
            neon::dense_row_vertical_neon(codes, n, ids, k, totals);
            true
        },
        _ => false,
    }
}

/// Vectorized u16 fold: for each padded `stride`-lane chunk of `flat`,
/// adds the chunk's max into the matching total. Returns `false` when
/// `level` has no vector kernel on this architecture — the caller then
/// runs the scalar fold. `stride` must be a multiple of 4 (guaranteed by
/// `hypermine_data::counter_stride`) and `flat.len()` a multiple of
/// `stride`.
pub(crate) fn fold_max_u16(
    level: SimdLevel,
    flat: &[u16],
    stride: usize,
    totals: &mut [u64],
) -> bool {
    debug_assert_eq!(stride % 4, 0);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only ever resolved after a successful runtime
        // `is_x86_feature_detected!("avx2")` probe.
        SimdLevel::Avx2 => unsafe {
            x86::fold_max_u16_avx2(flat, stride, totals);
            true
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on every aarch64 CPU.
        SimdLevel::Neon => unsafe {
            neon::fold_max_u16_neon(flat, stride, totals);
            true
        },
        _ => false,
    }
}

/// Vectorized u32 fold: [`fold_max_u16`] over u32 counter lanes at the
/// same padded stride.
pub(crate) fn fold_max_u32(
    level: SimdLevel,
    flat: &[u32],
    stride: usize,
    totals: &mut [u64],
) -> bool {
    debug_assert_eq!(stride % 4, 0);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only ever resolved after a successful runtime
        // `is_x86_feature_detected!("avx2")` probe.
        SimdLevel::Avx2 => unsafe {
            x86::fold_max_u32_avx2(flat, stride, totals);
            true
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on every aarch64 CPU.
        SimdLevel::Neon => unsafe {
            neon::fold_max_u32_neon(flat, stride, totals);
            true
        },
        _ => false,
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// AVX2 vertical dense-row kernel: dispatches to the
    /// `k`-monomorphized block walk (the per-value counter array must
    /// have a compile-time length to live in registers).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; `n ≥ 32`, `2 ≤ k ≤ 8`,
    /// `ids.len() ≤ 255`, every id's row within `codes`, and
    /// `totals.len() == n` (checked by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dense_row_vertical_avx2(
        codes: &[u8],
        n: usize,
        ids: &[u32],
        k: usize,
        totals: &mut [u64],
    ) {
        match k {
            2 => dense_row_blocks::<2>(codes, n, ids, totals),
            3 => dense_row_blocks::<3>(codes, n, ids, totals),
            4 => dense_row_blocks::<4>(codes, n, ids, totals),
            5 => dense_row_blocks::<5>(codes, n, ids, totals),
            6 => dense_row_blocks::<6>(codes, n, ids, totals),
            7 => dense_row_blocks::<7>(codes, n, ids, totals),
            8 => dense_row_blocks::<8>(codes, n, ids, totals),
            _ => unreachable!("dense_row_vertical bounds k to 2..=8"),
        }
    }

    /// Walks the universe in 32-head blocks; a width that is not a
    /// multiple of 32 is finished with one block ending exactly at the
    /// last head, skipping the lanes the previous block already
    /// accumulated.
    #[target_feature(enable = "avx2")]
    unsafe fn dense_row_blocks<const K: usize>(
        codes: &[u8],
        n: usize,
        ids: &[u32],
        totals: &mut [u64],
    ) {
        let mut h0 = 0usize;
        while h0 + 32 <= n {
            dense_row_block::<K>(codes, n, ids, h0, 0, totals);
            h0 += 32;
        }
        if h0 < n {
            dense_row_block::<K>(codes, n, ids, n - 32, 32 - (n - h0), totals);
        }
    }

    /// Counts one 32-head block of a dense row in registers: per
    /// observation, one 32-byte row load and `K` compare/accumulate
    /// pairs (`cmpeq` yields `0xff` on a value match; subtracting it
    /// bumps the u8 counter lane), then a `K`-way byte max and one
    /// widening add of lanes `skip..32` into the totals.
    #[target_feature(enable = "avx2")]
    unsafe fn dense_row_block<const K: usize>(
        codes: &[u8],
        n: usize,
        ids: &[u32],
        base: usize,
        skip: usize,
        totals: &mut [u64],
    ) {
        let ptr = codes.as_ptr().add(base);
        let mut cnt = [_mm256_setzero_si256(); K];
        for &o in ids {
            let bytes = _mm256_loadu_si256(ptr.add(o as usize * n).cast());
            for (v, lane) in cnt.iter_mut().enumerate() {
                *lane = _mm256_sub_epi8(
                    *lane,
                    _mm256_cmpeq_epi8(bytes, _mm256_set1_epi8((v + 1) as i8)),
                );
            }
        }
        let mut best = cnt[0];
        for lane in &cnt[1..] {
            best = _mm256_max_epu8(best, *lane);
        }
        let mut buf = [0u8; 32];
        _mm256_storeu_si256(buf.as_mut_ptr().cast(), best);
        for (i, &b) in buf.iter().enumerate().skip(skip) {
            totals[base + i] += b as u64;
        }
    }

    /// Horizontal max of 16 u16 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hmax_epu16_256(v: __m256i) -> u16 {
        hmax_epu16_128(_mm_max_epu16(
            _mm256_castsi256_si128(v),
            _mm256_extracti128_si256::<1>(v),
        ))
    }

    /// Horizontal max of 8 u16 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hmax_epu16_128(mut v: __m128i) -> u16 {
        v = _mm_max_epu16(v, _mm_srli_si128::<8>(v));
        v = _mm_max_epu16(v, _mm_srli_si128::<4>(v));
        v = _mm_max_epu16(v, _mm_srli_si128::<2>(v));
        (_mm_cvtsi128_si32(v) & 0xffff) as u16
    }

    /// Horizontal max of 8 u32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hmax_epu32_256(v: __m256i) -> u32 {
        hmax_epu32_128(_mm_max_epu32(
            _mm256_castsi256_si128(v),
            _mm256_extracti128_si256::<1>(v),
        ))
    }

    /// Horizontal max of 4 u32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hmax_epu32_128(mut v: __m128i) -> u32 {
        v = _mm_max_epu32(v, _mm_srli_si128::<8>(v));
        v = _mm_max_epu32(v, _mm_srli_si128::<4>(v));
        _mm_cvtsi128_si32(v) as u32
    }

    /// AVX2 u16 fold: 16-lane max accumulation per chunk for strides
    /// ≥ 16, 8-lane for strides in `{8, 12}`, one 4-lane (64-bit) load
    /// at the minimum stride 4 — each finished by one unaligned load
    /// ending at the chunk's last lane, which stays inside the head and
    /// is idempotent under max.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fold_max_u16_avx2(flat: &[u16], stride: usize, totals: &mut [u64]) {
        let chunks = flat.chunks_exact(stride).zip(totals.iter_mut());
        if stride >= 16 {
            for (chunk, t) in chunks {
                let p = chunk.as_ptr();
                let mut acc = _mm256_loadu_si256(p.cast());
                let mut off = 16;
                while off + 16 <= stride {
                    acc = _mm256_max_epu16(acc, _mm256_loadu_si256(p.add(off).cast()));
                    off += 16;
                }
                if off < stride {
                    acc = _mm256_max_epu16(acc, _mm256_loadu_si256(p.add(stride - 16).cast()));
                }
                *t += hmax_epu16_256(acc) as u64;
            }
        } else if stride >= 8 {
            for (chunk, t) in chunks {
                let p = chunk.as_ptr();
                let mut acc = _mm_loadu_si128(p.cast());
                if stride > 8 {
                    acc = _mm_max_epu16(acc, _mm_loadu_si128(p.add(stride - 8).cast()));
                }
                *t += hmax_epu16_128(acc) as u64;
            }
        } else {
            // stride == 4: the four live lanes fill the low half; the
            // high lanes load as zero and never win the max.
            for (chunk, t) in chunks {
                let v = _mm_loadl_epi64(chunk.as_ptr().cast());
                *t += hmax_epu16_128(v) as u64;
            }
        }
    }

    /// AVX2 u32 fold: 8-lane max accumulation per chunk for strides
    /// ≥ 8, one exact 4-lane load at the minimum stride 4.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fold_max_u32_avx2(flat: &[u32], stride: usize, totals: &mut [u64]) {
        let chunks = flat.chunks_exact(stride).zip(totals.iter_mut());
        if stride >= 8 {
            for (chunk, t) in chunks {
                let p = chunk.as_ptr();
                let mut acc = _mm256_loadu_si256(p.cast());
                let mut off = 8;
                while off + 8 <= stride {
                    acc = _mm256_max_epu32(acc, _mm256_loadu_si256(p.add(off).cast()));
                    off += 8;
                }
                if off < stride {
                    acc = _mm256_max_epu32(acc, _mm256_loadu_si256(p.add(stride - 8).cast()));
                }
                *t += hmax_epu32_256(acc) as u64;
            }
        } else {
            // stride == 4: exactly one 128-bit vector per head.
            for (chunk, t) in chunks {
                let v = _mm_loadu_si128(chunk.as_ptr().cast());
                *t += hmax_epu32_128(v) as u64;
            }
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    /// NEON vertical dense-row kernel: the 16-head-block twin of the
    /// AVX2 walk.
    ///
    /// # Safety
    ///
    /// NEON must be available (baseline on every aarch64 CPU);
    /// `n ≥ 16`, `2 ≤ k ≤ 8`, `ids.len() ≤ 255`, every id's row within
    /// `codes`, and `totals.len() == n` (checked by the dispatcher).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dense_row_vertical_neon(
        codes: &[u8],
        n: usize,
        ids: &[u32],
        k: usize,
        totals: &mut [u64],
    ) {
        match k {
            2 => dense_row_blocks::<2>(codes, n, ids, totals),
            3 => dense_row_blocks::<3>(codes, n, ids, totals),
            4 => dense_row_blocks::<4>(codes, n, ids, totals),
            5 => dense_row_blocks::<5>(codes, n, ids, totals),
            6 => dense_row_blocks::<6>(codes, n, ids, totals),
            7 => dense_row_blocks::<7>(codes, n, ids, totals),
            8 => dense_row_blocks::<8>(codes, n, ids, totals),
            _ => unreachable!("dense_row_vertical bounds k to 2..=8"),
        }
    }

    /// Walks the universe in 16-head blocks; a width that is not a
    /// multiple of 16 is finished with one block ending exactly at the
    /// last head, skipping the lanes the previous block already
    /// accumulated.
    #[target_feature(enable = "neon")]
    unsafe fn dense_row_blocks<const K: usize>(
        codes: &[u8],
        n: usize,
        ids: &[u32],
        totals: &mut [u64],
    ) {
        let mut h0 = 0usize;
        while h0 + 16 <= n {
            dense_row_block::<K>(codes, n, ids, h0, 0, totals);
            h0 += 16;
        }
        if h0 < n {
            dense_row_block::<K>(codes, n, ids, n - 16, 16 - (n - h0), totals);
        }
    }

    /// Counts one 16-head block of a dense row in registers: per
    /// observation, one 16-byte row load and `K` compare/accumulate
    /// pairs, then a `K`-way byte max and one widening add of lanes
    /// `skip..16` into the totals.
    #[target_feature(enable = "neon")]
    unsafe fn dense_row_block<const K: usize>(
        codes: &[u8],
        n: usize,
        ids: &[u32],
        base: usize,
        skip: usize,
        totals: &mut [u64],
    ) {
        let ptr = codes.as_ptr().add(base);
        let mut cnt = [vdupq_n_u8(0); K];
        for &o in ids {
            let bytes = vld1q_u8(ptr.add(o as usize * n));
            for (v, lane) in cnt.iter_mut().enumerate() {
                *lane = vsubq_u8(*lane, vceqq_u8(bytes, vdupq_n_u8((v + 1) as u8)));
            }
        }
        let mut best = cnt[0];
        for lane in &cnt[1..] {
            best = vmaxq_u8(best, *lane);
        }
        let mut buf = [0u8; 16];
        vst1q_u8(buf.as_mut_ptr(), best);
        for (i, &b) in buf.iter().enumerate().skip(skip) {
            totals[base + i] += b as u64;
        }
    }

    /// NEON u16 fold: 8-lane max accumulation per chunk for strides
    /// ≥ 8 (overlapped tail load inside the head), one exact 4-lane
    /// load at the minimum stride 4.
    ///
    /// # Safety
    ///
    /// NEON must be available (baseline on every aarch64 CPU).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn fold_max_u16_neon(flat: &[u16], stride: usize, totals: &mut [u64]) {
        let chunks = flat.chunks_exact(stride).zip(totals.iter_mut());
        if stride >= 8 {
            for (chunk, t) in chunks {
                let p = chunk.as_ptr();
                let mut acc = vld1q_u16(p);
                let mut off = 8;
                while off + 8 <= stride {
                    acc = vmaxq_u16(acc, vld1q_u16(p.add(off)));
                    off += 8;
                }
                if off < stride {
                    acc = vmaxq_u16(acc, vld1q_u16(p.add(stride - 8)));
                }
                *t += vmaxvq_u16(acc) as u64;
            }
        } else {
            // stride == 4: exactly one 64-bit vector per head.
            for (chunk, t) in chunks {
                *t += vmaxv_u16(vld1_u16(chunk.as_ptr())) as u64;
            }
        }
    }

    /// NEON u32 fold: 4-lane max accumulation per chunk — the stride is
    /// always a multiple of four lanes, so the steps tile exactly.
    ///
    /// # Safety
    ///
    /// NEON must be available (baseline on every aarch64 CPU).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn fold_max_u32_neon(flat: &[u32], stride: usize, totals: &mut [u64]) {
        for (chunk, t) in flat.chunks_exact(stride).zip(totals.iter_mut()) {
            let p = chunk.as_ptr();
            let mut acc = vld1q_u32(p);
            let mut off = 4;
            while off < stride {
                acc = vmaxq_u32(acc, vld1q_u32(p.add(off)));
                off += 4;
            }
            *t += vmaxvq_u32(acc) as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_resolution() {
        assert_eq!(SimdPolicy::ForceScalar.resolve(), SimdLevel::Scalar);
        // Auto resolves to whatever the host detects — just pin that it
        // is stable across calls (the OnceLock).
        assert_eq!(SimdPolicy::Auto.resolve(), SimdPolicy::Auto.resolve());
        assert_eq!(SimdPolicy::default(), SimdPolicy::Auto);
    }

    #[test]
    fn level_names_are_stable() {
        assert_eq!(SimdLevel::Avx2.as_str(), "avx2");
        assert_eq!(SimdLevel::Neon.as_str(), "neon");
        assert_eq!(SimdLevel::Scalar.as_str(), "scalar");
        assert_eq!(SimdLevel::Neon.to_string(), "neon");
    }

    /// xorshift64* stream for deterministic pseudo-random test data (no
    /// RNG dependency in the core crate).
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn vector_folds_match_scalar_at_every_stride() {
        let level = detect();
        if level == SimdLevel::Scalar {
            return; // nothing to cross-check on this host
        }
        let mut next = rng(0x9e3779b97f4a7c15);
        for stride in [4usize, 8, 12, 16, 20, 32] {
            for heads in [1usize, 2, 7, 33] {
                let flat16: Vec<u16> = (0..heads * stride)
                    .map(|_| (next() & 0x7fff) as u16)
                    .collect();
                let flat32: Vec<u32> = (0..heads * stride)
                    .map(|_| (next() & 0x000f_ffff) as u32)
                    .collect();
                let mut want = vec![7u64; heads];
                for (chunk, t) in flat16.chunks_exact(stride).zip(want.iter_mut()) {
                    *t += chunk.iter().copied().max().unwrap_or(0) as u64;
                }
                let mut got = vec![7u64; heads];
                assert!(fold_max_u16(level, &flat16, stride, &mut got));
                assert_eq!(got, want, "u16 stride {stride} heads {heads}");
                let mut want32 = vec![3u64; heads];
                for (chunk, t) in flat32.chunks_exact(stride).zip(want32.iter_mut()) {
                    *t += chunk.iter().copied().max().unwrap_or(0) as u64;
                }
                let mut got32 = vec![3u64; heads];
                assert!(fold_max_u32(level, &flat32, stride, &mut got32));
                assert_eq!(got32, want32, "u32 stride {stride} heads {heads}");
            }
        }
    }

    /// Scalar reference of the vertical kernel: per head, the max
    /// multiplicity of any value among the row's observations.
    fn vertical_ref(codes: &[u8], n: usize, ids: &[u32], k: usize, totals: &mut [u64]) {
        for h in 0..n {
            let mut cnt = vec![0u64; k];
            for &o in ids {
                cnt[codes[o as usize * n + h] as usize - 1] += 1;
            }
            totals[h] += cnt.iter().copied().max().unwrap_or(0);
        }
    }

    #[test]
    fn vertical_kernel_matches_scalar_reference() {
        let level = detect();
        if level == SimdLevel::Scalar {
            return;
        }
        let mut next = rng(0x1234_5678_9abc_def1);
        // Widths straddling the 16- and 32-lane block sizes, including
        // non-multiples that exercise the overlapped final block.
        for n in [16usize, 24, 32, 40, 57, 96, 240] {
            for k in [2usize, 3, 5, 8] {
                for c in [5usize, 16, 63, 255] {
                    let num_obs = c + 3;
                    let codes: Vec<u8> = (0..num_obs * n)
                        .map(|_| (next() as usize % k) as u8 + 1)
                        .collect();
                    let ids: Vec<u32> = (0..c as u32)
                        .map(|i| (i * 7 + 2) % num_obs as u32)
                        .collect();
                    let mut want = vec![11u64; n];
                    vertical_ref(&codes, n, &ids, k, &mut want);
                    let mut got = vec![11u64; n];
                    let engaged = dense_row_vertical(level, &codes, n, &ids, k, &mut got);
                    let block = if level == SimdLevel::Avx2 { 32 } else { 16 };
                    if n >= block {
                        assert!(engaged, "kernel should engage at n={n} k={k} c={c}");
                        assert_eq!(got, want, "n={n} k={k} c={c}");
                    } else {
                        assert!(!engaged, "kernel should decline at n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn vertical_kernel_declines_out_of_bounds_rows() {
        let level = detect();
        let codes = vec![1u8; 256 * 64];
        let mut totals = vec![0u64; 64];
        // 256 observations overflow the u8 counter lanes.
        let big: Vec<u32> = (0..256).collect();
        assert!(!dense_row_vertical(level, &codes, 64, &big, 4, &mut totals));
        // k outside 2..=8 (counters no longer fit in registers).
        let ids: Vec<u32> = (0..8).collect();
        assert!(!dense_row_vertical(level, &codes, 64, &ids, 1, &mut totals));
        assert!(!dense_row_vertical(level, &codes, 64, &ids, 9, &mut totals));
        // Scalar level never engages.
        assert!(!dense_row_vertical(
            SimdLevel::Scalar,
            &codes,
            64,
            &ids,
            4,
            &mut totals
        ));
        assert!(
            totals.iter().all(|&t| t == 0),
            "declines must not touch totals"
        );
    }
}
