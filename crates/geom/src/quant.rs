//! Runtime-dispatched kernels over **quantized** interleaved-block columnar
//! lanes (the compressed filter tier).
//!
//! The quantized tier stores each 64-lane block of
//! `planar_core::table::ColumnMajorRows` as `i16` fixed-point codes plus a
//! per-`(block, dim)` affine decode `x ≈ offset + scale · code`. A code is a
//! quarter of an `f64`, which multiplies the cache-residency win the
//! columnar layout already buys, and the narrower lanes let one AVX2
//! register cover 8 lanes of `f32` arithmetic.
//!
//! Kernels here compute, per lane `l`,
//!
//! ```text
//! D[l] = Σ_j w[j] · code[j·stride + l]      (f32 accumulation)
//! ```
//!
//! where the caller has folded the per-dimension scales into the query as
//! `w[j] = f32(a[j] · scale[j])`. The decode offsets and the threshold `b`
//! are folded into the *classification thresholds* `t_lo`/`t_hi` (computed
//! in `f64` by the caller, with conservative outward rounding), so the
//! fused [`classify_block_i16`] kernel answers, per lane, one of three
//! verdicts without ever touching the `f64` rows:
//!
//! * `below`: `D[l] ≤ t_lo` — provably satisfies / fails the predicate
//!   (which one depends on the comparison direction; the caller assigns
//!   meaning);
//! * `above`: `D[l] ≥ t_hi` — provably the other side;
//! * neither — the lane is inside the uncertainty band and must be
//!   re-verified against the full-precision rows.
//!
//! A `NaN` product (impossible for in-contract inputs, but the contract is
//! enforced by the caller) lands in *neither* mask — ordered-quiet
//! compares — so corruption degrades to exact re-verification, never to a
//! wrong answer.
//!
//! ## Dispatch and bit-stability
//!
//! Dispatch reuses [`crate::kernel`] (AVX2 vs portable, honoring
//! `PLANAR_FORCE_PORTABLE`). Both implementations accumulate in `f32` with
//! the **same operation order** — four accumulators striped over chunks of
//! four dimensions, combined `(acc0 + acc1) + (acc2 + acc3)`, sequential
//! tail, separate multiply and add (no FMA) — so `D[l]` is bit-identical
//! between the AVX2 and portable paths. That keeps classification verdicts
//! (and therefore every counter and every answer) independent of the host's
//! SIMD level, exactly like the `f64` kernels in [`crate::kernels`].
//!
//! The *answers* of the index never depend on `D` at all: the caller only
//! acts on verdicts that are sound under its error bound, and re-verifies
//! the band with the exact `f64` kernels.

use crate::kernels::{kernel, BLOCK_ROWS};

/// Largest code magnitude (`[-32767, 32767]`; −32768 is unused so the
/// range is symmetric and negation stays in range).
pub const QMAX_I16: i32 = 32767;

/// Name of the active quantized-kernel implementation for provenance
/// stamping: `"avx2-i16"` or `"portable-i16"`.
pub fn quant_kernel_name() -> &'static str {
    match kernel() {
        crate::KernelKind::Avx2 => "avx2-i16",
        _ => "portable-i16",
    }
}

#[inline]
fn check_qblock(dim: usize, codes_len: usize, stride: usize, lanes: usize) {
    assert!(
        lanes <= stride,
        "lanes {lanes} exceed block stride {stride}"
    );
    assert!(lanes <= 64, "classification mask holds at most 64 lanes");
    // Like the f64 kernels, `codes` may be a lane-shifted view into a
    // larger block, so the requirement is reachability of the last element
    // read, not an exact size.
    let needed = if dim == 0 {
        0
    } else {
        (dim - 1) * stride + lanes
    };
    assert!(
        codes_len >= needed,
        "quantized block shape mismatch: need {needed} elements, have {codes_len}"
    );
}

/// `f32` scalar products of `w` against `dots.len()` lanes of an `i16`
/// code block: `dots[l] = Σ_j w[j] · codes[j·stride + l]`.
///
/// # Panics
///
/// Panics if `dots.len() > stride` or the code block cannot cover
/// `w.len()` dimensions at the given stride.
#[inline]
pub fn dot_block_cols_i16(w: &[f32], codes: &[i16], stride: usize, dots: &mut [f32]) {
    check_qblock(w.len(), codes.len(), stride, dots.len());
    match kernel() {
        #[cfg(target_arch = "x86_64")]
        crate::KernelKind::Avx2 => simd::dot_block_cols_i16_avx2(w, codes, stride, dots),
        _ => portable::dot_block_cols_i16(w, codes, stride, dots),
    }
}

/// Fused quantized classification over `lanes` lanes of an `i16` code
/// block. Returns `(below, above)` bitmasks: bit `l` of `below` is set iff
/// `D[l] ≤ t_lo`, bit `l` of `above` iff `D[l] ≥ t_hi`. With
/// `t_lo < t_hi` the masks are disjoint; lanes in neither mask are in the
/// caller's uncertainty band.
///
/// # Panics
///
/// Panics if `lanes > 64`, `lanes > stride`, or the code block cannot
/// cover `w.len()` dimensions at the given stride.
#[inline]
pub fn classify_block_i16(
    w: &[f32],
    codes: &[i16],
    stride: usize,
    lanes: usize,
    t_lo: f32,
    t_hi: f32,
) -> (u64, u64) {
    check_qblock(w.len(), codes.len(), stride, lanes);
    match kernel() {
        #[cfg(target_arch = "x86_64")]
        crate::KernelKind::Avx2 => {
            simd::classify_block_i16_avx2(w, codes, stride, lanes, t_lo, t_hi)
        }
        _ => portable::classify_block_i16(w, codes, stride, lanes, t_lo, t_hi),
    }
}

/// Portable scalar twins. Accumulation order matches the AVX2 path exactly
/// (chunks of four striped `f32` accumulators, `(s0 + s1) + (s2 + s3)`,
/// sequential tail, no contraction), so `D[l]` — and every verdict — is
/// bit-identical across dispatch.
pub(crate) mod portable {
    use super::BLOCK_ROWS;

    pub(crate) fn dot_block_cols_i16(w: &[f32], codes: &[i16], stride: usize, dots: &mut [f32]) {
        let dim = w.len();
        let lanes = dots.len();
        let chunks = dim / 4;
        let mut acc = [[0.0f32; BLOCK_ROWS]; 4];
        for i in 0..chunks {
            let j = i * 4;
            for (s, acc_s) in acc.iter_mut().enumerate() {
                let wj = w[j + s];
                let col = &codes[(j + s) * stride..(j + s) * stride + lanes];
                for (l, &c) in col.iter().enumerate() {
                    acc_s[l] += wj * c as f32;
                }
            }
        }
        for (l, dot) in dots.iter_mut().enumerate() {
            *dot = (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]);
        }
        for j in chunks * 4..dim {
            let wj = w[j];
            let col = &codes[j * stride..j * stride + lanes];
            for (l, &c) in col.iter().enumerate() {
                dots[l] += wj * c as f32;
            }
        }
    }

    pub(crate) fn classify_block_i16(
        w: &[f32],
        codes: &[i16],
        stride: usize,
        lanes: usize,
        t_lo: f32,
        t_hi: f32,
    ) -> (u64, u64) {
        let mut dots = [0.0f32; BLOCK_ROWS];
        dot_block_cols_i16(w, codes, stride, &mut dots[..lanes]);
        let (mut below, mut above) = (0u64, 0u64);
        for (l, &d) in dots[..lanes].iter().enumerate() {
            // Ordered compares: NaN joins neither mask.
            below |= ((d <= t_lo) as u64) << l;
            above |= ((d >= t_hi) as u64) << l;
        }
        (below, above)
    }
}

/// Explicit AVX2 implementations: the crate's second (and only other)
/// `#[allow(unsafe_code)]` island, same rules as `kernels::simd` — all
/// unsafety is `std::arch` intrinsics plus raw-pointer loads whose bounds
/// the safe dispatchers assert first.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod simd {
    use std::arch::x86_64::*;

    pub(crate) fn dot_block_cols_i16_avx2(
        w: &[f32],
        codes: &[i16],
        stride: usize,
        dots: &mut [f32],
    ) {
        // SAFETY: AVX2 availability is established by runtime detection in
        // `crate::kernel()` before this path is selected; slice bounds are
        // asserted by `super::check_qblock`.
        unsafe { dot_impl(w, codes, stride, dots) }
    }

    pub(crate) fn classify_block_i16_avx2(
        w: &[f32],
        codes: &[i16],
        stride: usize,
        lanes: usize,
        t_lo: f32,
        t_hi: f32,
    ) -> (u64, u64) {
        // SAFETY: as above.
        unsafe { classify_impl(w, codes, stride, lanes, t_lo, t_hi) }
    }

    /// Widen 8 `i16` codes at `p` to an 8-lane `f32` vector.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load8(p: *const i16) -> __m256 {
        _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm_loadu_si128(p as *const __m128i)))
    }

    /// Vertical `f32` accumulators striped over chunks of four dimensions,
    /// combined `(a0 + a1) + (a2 + a3)`, sequential tail — `vmulps` +
    /// `vaddps`, never `vfmadd` — so each lane reproduces the portable twin
    /// bit-for-bit.
    #[target_feature(enable = "avx2")]
    unsafe fn dots8(w: &[f32], codes: &[i16], stride: usize, lane: usize) -> __m256 {
        let dim = w.len();
        let chunks = dim / 4;
        let cp = codes.as_ptr();
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        for i in 0..chunks {
            let j = i * 4;
            let c0 = _mm256_set1_ps(*w.get_unchecked(j));
            let c1 = _mm256_set1_ps(*w.get_unchecked(j + 1));
            let c2 = _mm256_set1_ps(*w.get_unchecked(j + 2));
            let c3 = _mm256_set1_ps(*w.get_unchecked(j + 3));
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(c0, load8(cp.add(j * stride + lane))));
            a1 = _mm256_add_ps(
                a1,
                _mm256_mul_ps(c1, load8(cp.add((j + 1) * stride + lane))),
            );
            a2 = _mm256_add_ps(
                a2,
                _mm256_mul_ps(c2, load8(cp.add((j + 2) * stride + lane))),
            );
            a3 = _mm256_add_ps(
                a3,
                _mm256_mul_ps(c3, load8(cp.add((j + 3) * stride + lane))),
            );
        }
        let mut acc = _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3));
        for j in chunks * 4..dim {
            let c = _mm256_set1_ps(*w.get_unchecked(j));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(c, load8(cp.add(j * stride + lane))));
        }
        acc
    }

    #[target_feature(enable = "avx2")]
    unsafe fn dot_impl(w: &[f32], codes: &[i16], stride: usize, dots: &mut [f32]) {
        let lanes = dots.len();
        let mut lane = 0;
        while lane + 8 <= lanes {
            let d = dots8(w, codes, stride, lane);
            _mm256_storeu_ps(dots.as_mut_ptr().add(lane), d);
            lane += 8;
        }
        if lane < lanes {
            // Scalar tail in the portable twin's (identical) order.
            let mut tail = [0.0f32; 8];
            let dim = w.len();
            let chunks = dim / 4;
            for (off, t) in tail[..lanes - lane].iter_mut().enumerate() {
                let l = lane + off;
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0, 0.0, 0.0);
                for i in 0..chunks {
                    let j = i * 4;
                    s0 += w[j] * codes[j * stride + l] as f32;
                    s1 += w[j + 1] * codes[(j + 1) * stride + l] as f32;
                    s2 += w[j + 2] * codes[(j + 2) * stride + l] as f32;
                    s3 += w[j + 3] * codes[(j + 3) * stride + l] as f32;
                }
                let mut s = (s0 + s1) + (s2 + s3);
                for j in chunks * 4..dim {
                    s += w[j] * codes[j * stride + l] as f32;
                }
                *t = s;
            }
            dots[lane..].copy_from_slice(&tail[..lanes - lane]);
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn classify_impl(
        w: &[f32],
        codes: &[i16],
        stride: usize,
        lanes: usize,
        t_lo: f32,
        t_hi: f32,
    ) -> (u64, u64) {
        let tl = _mm256_set1_ps(t_lo);
        let th = _mm256_set1_ps(t_hi);
        let (mut below, mut above) = (0u64, 0u64);
        let mut lane = 0;
        while lane + 8 <= lanes {
            let d = dots8(w, codes, stride, lane);
            let mb = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(d, tl)) as u32;
            let ma = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(d, th)) as u32;
            below |= (mb as u64) << lane;
            above |= (ma as u64) << lane;
            lane += 8;
        }
        if lane < lanes {
            let mut dots = [0.0f32; 8];
            dot_impl(w, &codes[lane..], stride, &mut dots[..lanes - lane]);
            for (off, &d) in dots[..lanes - lane].iter().enumerate() {
                below |= ((d <= t_lo) as u64) << (lane + off);
                above |= ((d >= t_hi) as u64) << (lane + off);
            }
        }
        (below, above)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes_i16(n: usize, seed: u64) -> Vec<i16> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as i64 % 32768) as i16
            })
            .collect()
    }

    fn weights(dim: usize, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        (0..dim)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as i32 as f32) * 1e-5
            })
            .collect()
    }

    #[test]
    fn portable_i16_matches_reference_order() {
        for dim in [1, 3, 4, 5, 8, 13, 64] {
            let w = weights(dim, dim as u64);
            let codes = codes_i16(dim * BLOCK_ROWS, 7);
            let mut dots = vec![0.0f32; BLOCK_ROWS];
            portable::dot_block_cols_i16(&w, &codes, BLOCK_ROWS, &mut dots);
            for (l, &got) in dots.iter().enumerate() {
                // Reference: same striped order, scalar.
                let chunks = dim / 4;
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0, 0.0, 0.0);
                for i in 0..chunks {
                    let j = i * 4;
                    s0 += w[j] * codes[j * BLOCK_ROWS + l] as f32;
                    s1 += w[j + 1] * codes[(j + 1) * BLOCK_ROWS + l] as f32;
                    s2 += w[j + 2] * codes[(j + 2) * BLOCK_ROWS + l] as f32;
                    s3 += w[j + 3] * codes[(j + 3) * BLOCK_ROWS + l] as f32;
                }
                let mut want = (s0 + s1) + (s2 + s3);
                for j in chunks * 4..dim {
                    want += w[j] * codes[j * BLOCK_ROWS + l] as f32;
                }
                assert_eq!(got.to_bits(), want.to_bits(), "dim {dim} lane {l}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_matches_portable_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for dim in [1, 2, 4, 7, 8, 16, 33, 64] {
            for lanes in [1, 7, 8, 9, 31, 63, 64] {
                let w = weights(dim, dim as u64 ^ 0xABCD);
                let c16 = codes_i16(dim * BLOCK_ROWS, lanes as u64 ^ 5);
                let mut p = vec![0.0f32; lanes];
                let mut v = vec![0.0f32; lanes];
                portable::dot_block_cols_i16(&w, &c16, BLOCK_ROWS, &mut p);
                simd::dot_block_cols_i16_avx2(&w, &c16, BLOCK_ROWS, &mut v);
                for l in 0..lanes {
                    assert_eq!(
                        p[l].to_bits(),
                        v[l].to_bits(),
                        "i16 d{dim} lanes{lanes} l{l}"
                    );
                }
                // Classification verdicts agree for thresholds straddling
                // the observed dot range.
                let lo = p.iter().cloned().fold(f32::INFINITY, f32::min);
                let hi = p.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let mid = (lo + hi) / 2.0;
                for (tl, th) in [(mid, mid), (lo, hi), (hi, lo.max(hi))] {
                    let a = portable::classify_block_i16(&w, &c16, BLOCK_ROWS, lanes, tl, th);
                    let b = simd::classify_block_i16_avx2(&w, &c16, BLOCK_ROWS, lanes, tl, th);
                    assert_eq!(a, b, "classify i16 d{dim} lanes{lanes}");
                }
            }
        }
    }

    #[test]
    fn classify_masks_are_consistent_with_dots() {
        let dim = 6;
        let lanes = 64;
        let w = weights(dim, 99);
        let codes = codes_i16(dim * BLOCK_ROWS, 3);
        let mut dots = vec![0.0f32; lanes];
        dot_block_cols_i16(&w, &codes, BLOCK_ROWS, &mut dots);
        let sorted = {
            let mut d = dots.clone();
            d.sort_by(f32::total_cmp);
            d
        };
        let (t_lo, t_hi) = (sorted[15], sorted[47]);
        let (below, above) = classify_block_i16(&w, &codes, BLOCK_ROWS, lanes, t_lo, t_hi);
        for (l, &d) in dots.iter().enumerate() {
            assert_eq!(below >> l & 1 == 1, d <= t_lo, "below lane {l}");
            assert_eq!(above >> l & 1 == 1, d >= t_hi, "above lane {l}");
        }
    }

    #[test]
    fn lane_shifted_views_work() {
        // A mid-block segment: codes offset by 16 lanes, 32 lanes long.
        let dim = 5;
        let w = weights(dim, 4);
        let codes = codes_i16(dim * BLOCK_ROWS, 11);
        let mut full = vec![0.0f32; BLOCK_ROWS];
        dot_block_cols_i16(&w, &codes, BLOCK_ROWS, &mut full);
        let mut part = vec![0.0f32; 32];
        dot_block_cols_i16(&w, &codes[16..], BLOCK_ROWS, &mut part);
        for l in 0..32 {
            assert_eq!(part[l].to_bits(), full[16 + l].to_bits(), "lane {l}");
        }
    }

    #[test]
    fn quant_kernel_names_are_stable() {
        assert!(quant_kernel_name().ends_with("-i16"));
    }
}
