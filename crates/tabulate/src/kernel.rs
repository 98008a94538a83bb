//! Branch-free key kernels with runtime-dispatched SIMD paths.
//!
//! The tabulation inner loops (see [`crate::engine`] and [`crate::flows`])
//! spend most of their time on two multiply-add recurrences:
//!
//! * **worker sub-keys** — for every worker in a contiguous CSR span, the
//!   mixed-radix sub-key over the spec's ≤ 5 worker-attribute `u8` code
//!   columns (`Σ code · stride`). Worker sub-domains are tiny (≤ 768
//!   codes, the full cross product of the enum attributes), so sub-keys
//!   and strides both fit `u16` exactly;
//! * **establishment keys** — for every establishment in a contiguous
//!   range, the workplace part of the cell key over ≤ 6 `u32` code
//!   columns against `u64` schema strides.
//!
//! Both kernels fill a caller-provided output block; the evaluators then
//! run their unchanged scalar scatter/emit loops over the precomputed
//! keys. Because a kernel computes *exactly* the same integers as the
//! scalar recurrence (no floating point, no wrapping in range), the SIMD
//! and scalar paths are **bit-identical by construction** — the dispatch
//! choice can never change a released cell.
//!
//! The AVX2 paths are compiled on `x86_64` and selected at runtime via
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

/// True when the AVX2 kernels are compiled in (an `x86_64` target) *and*
/// the running CPU supports them.
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

/// Fill `out[j] = Σ_c cols[c][start + j] · strides[c]` for the worker span
/// `start .. start + out.len()`.
///
/// Sub-keys never exceed the worker sub-domain (≤ 768), so the `u16`
/// arithmetic is exact; the caller asserts strides fit when building its
/// plan.
#[inline]
pub(crate) fn worker_subkeys(
    cols: &[&[u8]],
    strides: &[u16],
    start: usize,
    out: &mut [u16],
    kernel: Kernel,
) {
    #[cfg(target_arch = "x86_64")]
    if kernel.resolves_to_simd() {
        // SAFETY: `resolves_to_simd` verified AVX2 support at runtime.
        unsafe { worker_subkeys_avx2(cols, strides, start, out) };
        return;
    }
    let _ = kernel;
    worker_subkeys_scalar(cols, strides, start, out);
}

fn worker_subkeys_scalar(cols: &[&[u8]], strides: &[u16], start: usize, out: &mut [u16]) {
    for (j, o) in out.iter_mut().enumerate() {
        let i = start + j;
        let mut key: u16 = 0;
        for (col, &stride) in cols.iter().zip(strides) {
            key += col[i] as u16 * stride;
        }
        *o = key;
    }
}

/// AVX2 worker sub-key kernel: 32 workers per iteration. Each `u8` column
/// chunk is widened to two `u16x16` lanes (`vpmovzxbw`), multiplied by the
/// splatted stride (`vpmullw`), and accumulated — the exact `u16`
/// arithmetic of the scalar recurrence, 16 lanes at a time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn worker_subkeys_avx2(cols: &[&[u8]], strides: &[u16], start: usize, out: &mut [u16]) {
    use core::arch::x86_64::*;
    let n = out.len();
    let mut j = 0;
    while j + 32 <= n {
        let mut acc_lo = _mm256_setzero_si256();
        let mut acc_hi = _mm256_setzero_si256();
        for (col, &stride) in cols.iter().zip(strides) {
            debug_assert!(start + j + 32 <= col.len());
            let p = col.as_ptr().add(start + j);
            let bytes_lo = _mm_loadu_si128(p as *const __m128i);
            let bytes_hi = _mm_loadu_si128(p.add(16) as *const __m128i);
            let s = _mm256_set1_epi16(stride as i16);
            acc_lo = _mm256_add_epi16(
                acc_lo,
                _mm256_mullo_epi16(_mm256_cvtepu8_epi16(bytes_lo), s),
            );
            acc_hi = _mm256_add_epi16(
                acc_hi,
                _mm256_mullo_epi16(_mm256_cvtepu8_epi16(bytes_hi), s),
            );
        }
        _mm256_storeu_si256(out.as_mut_ptr().add(j) as *mut __m256i, acc_lo);
        _mm256_storeu_si256(out.as_mut_ptr().add(j + 16) as *mut __m256i, acc_hi);
        j += 32;
    }
    worker_subkeys_scalar(cols, strides, start + j, &mut out[j..]);
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

    /// Deterministic pseudo-random byte stream (tests must not depend on
    /// external RNG crates here).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn worker_kernel_matches_scalar_on_all_lengths() {
        let mut state = 0x1234_5678_9abc_def0u64;
        // Columns long enough for every start offset and chunk remainder.
        let cols_data: Vec<Vec<u8>> = (0..5)
            .map(|_| (0..300).map(|_| (xorshift(&mut state) % 8) as u8).collect())
            .collect();
        let strides: Vec<u16> = vec![384, 48, 8, 4, 1];
        for ncols in 0..=5 {
            let cols: Vec<&[u8]> = cols_data[..ncols].iter().map(|c| c.as_slice()).collect();
            for start in [0usize, 1, 7] {
                for len in [0usize, 1, 5, 31, 32, 33, 64, 100, 257] {
                    let mut scalar = vec![0u16; len];
                    let mut auto = vec![0xAAAAu16; len];
                    worker_subkeys(&cols, &strides[..ncols], start, &mut scalar, Kernel::Scalar);
                    worker_subkeys(&cols, &strides[..ncols], start, &mut auto, Kernel::Auto);
                    assert_eq!(scalar, auto, "ncols={ncols} start={start} len={len}");
                }
            }
        }
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
