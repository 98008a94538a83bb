//! Branch-free establishment-key kernel with a runtime-dispatched SIMD
//! path.
//!
//! Before its scatter, each tabulation evaluator (see [`crate::engine`]
//! and [`crate::flows`]) encodes the workplace part of the cell key for
//! every establishment in a contiguous range: a multiply-add recurrence
//! over the spec's ≤ 6 workplace `u32` code columns against `u64` schema
//! strides. `establishment_keys` fills a caller-provided block with
//! those keys. The worker part of a key needs no kernel: the index stores
//! each worker's packed cell code, and the scatter maps it to a sub-key
//! through one table lookup.
//!
//! Because the kernel computes *exactly* the same integers as the scalar
//! recurrence (no floating point, no wrapping in range), the SIMD and
//! scalar paths are **bit-identical by construction** — the dispatch
//! choice can never change a released cell.
//!
//! The AVX2 path is compiled on `x86_64` and selected at runtime via
//! `is_x86_feature_detected!`; every other configuration (non-x86, no
//! AVX2 at runtime) takes the scalar fallback. [`Kernel::Scalar`] forces
//! the fallback even when AVX2 is available — the property tests and the
//! benchmark use it to compare the two paths on the same machine.

/// Which key-kernel implementation a tabulation should use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Kernel {
    /// Use the widest instruction set available at runtime (AVX2 when the
    /// target is `x86_64` and the CPU supports it; the scalar path
    /// otherwise).
    #[default]
    Auto,
    /// Force the scalar path. Results are bit-identical to [`Kernel::Auto`]
    /// by construction; this exists for A/B benchmarking and for the
    /// SIMD-vs-scalar property tests.
    Scalar,
}

impl Kernel {
    /// Does this choice resolve to the AVX2 path on this machine?
    #[inline]
    pub fn resolves_to_simd(self) -> bool {
        matches!(self, Kernel::Auto) && simd_available()
    }
}

/// True when the AVX2 kernel is compiled in (an `x86_64` target) *and*
/// the running CPU supports it.
#[inline]
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Fill `out[j] = Σ_c cols[c][start + j] · strides[c]` for the
/// establishment range `start .. start + out.len()`.
///
/// Keys stay inside the schema domain (`CellSchema` checked the full
/// cross product fits `u64` at construction), so the arithmetic is exact.
#[inline]
pub(crate) fn establishment_keys(
    cols: &[&[u32]],
    strides: &[u64],
    start: usize,
    out: &mut [u64],
    kernel: Kernel,
) {
    #[cfg(target_arch = "x86_64")]
    if kernel.resolves_to_simd() {
        // SAFETY: `resolves_to_simd` verified AVX2 support at runtime.
        unsafe { establishment_keys_avx2(cols, strides, start, out) };
        return;
    }
    let _ = kernel;
    establishment_keys_scalar(cols, strides, start, out);
}

fn establishment_keys_scalar(cols: &[&[u32]], strides: &[u64], start: usize, out: &mut [u64]) {
    for (j, o) in out.iter_mut().enumerate() {
        let i = start + j;
        let mut key: u64 = 0;
        for (col, &stride) in cols.iter().zip(strides) {
            key += col[i] as u64 * stride;
        }
        *o = key;
    }
}

/// AVX2 establishment-key kernel: 4 establishments per iteration. A `u32`
/// code times a `u64` stride is split into
/// `code·lo32(stride) + (code·hi32(stride)) << 32`, both exact under
/// `vpmuludq` because every partial product is bounded by the full key,
/// which the schema proved fits `u64`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn establishment_keys_avx2(cols: &[&[u32]], strides: &[u64], start: usize, out: &mut [u64]) {
    use core::arch::x86_64::*;
    let n = out.len();
    let mut j = 0;
    while j + 4 <= n {
        let mut acc = _mm256_setzero_si256();
        for (col, &stride) in cols.iter().zip(strides) {
            debug_assert!(start + j + 4 <= col.len());
            let p = col.as_ptr().add(start + j);
            let codes = _mm256_cvtepu32_epi64(_mm_loadu_si128(p as *const __m128i));
            let lo = _mm256_mul_epu32(codes, _mm256_set1_epi64x((stride & 0xFFFF_FFFF) as i64));
            let hi = _mm256_mul_epu32(codes, _mm256_set1_epi64x((stride >> 32) as i64));
            acc = _mm256_add_epi64(acc, _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(hi)));
        }
        _mm256_storeu_si256(out.as_mut_ptr().add(j) as *mut __m256i, acc);
        j += 4;
    }
    establishment_keys_scalar(cols, strides, start + j, &mut out[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (tests must not depend on
    /// external RNG crates here).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn establishment_kernel_matches_scalar_including_wide_strides() {
        let mut state = 0xdead_beef_cafe_f00du64;
        let cols_data: Vec<Vec<u32>> = (0..6)
            .map(|_| {
                (0..100)
                    .map(|_| (xorshift(&mut state) % 40_000) as u32)
                    .collect()
            })
            .collect();
        // Include strides above 2^32 to exercise the hi/lo split.
        let strides: Vec<u64> = vec![1 << 36, 3 << 33, 1 << 20, 77_777, 640, 1];
        for ncols in 0..=6 {
            let cols: Vec<&[u32]> = cols_data[..ncols].iter().map(|c| c.as_slice()).collect();
            for start in [0usize, 3] {
                for len in [0usize, 1, 3, 4, 5, 8, 17, 64, 97] {
                    let mut scalar = vec![0u64; len];
                    let mut auto = vec![u64::MAX; len];
                    establishment_keys(
                        &cols,
                        &strides[..ncols],
                        start,
                        &mut scalar,
                        Kernel::Scalar,
                    );
                    establishment_keys(&cols, &strides[..ncols], start, &mut auto, Kernel::Auto);
                    assert_eq!(scalar, auto, "ncols={ncols} start={start} len={len}");
                }
            }
        }
    }

    #[test]
    fn kernel_choice_reports_dispatch() {
        assert!(!Kernel::Scalar.resolves_to_simd());
        // On an AVX2 machine Auto must take the SIMD path; elsewhere both
        // choices collapse to scalar.
        assert_eq!(Kernel::Auto.resolves_to_simd(), simd_available());
    }
}
