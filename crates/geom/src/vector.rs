//! Dense `f64` vectors with the small set of operations the Planar index
//! needs: scalar products, norms, scaling and component-wise arithmetic.

use crate::{GeomError, Result};

/// Scalar product of two slices.
///
/// This is the single hottest operation in the workspace (every query
/// verification is one `dot`), so it is kept as a free function over slices
/// that the optimizer can unroll/vectorize, and [`Vector`] delegates to it.
///
/// # Panics
///
/// Panics (in every build profile) if the slices have different lengths.
/// Release builds used to silently truncate to the shorter length, which
/// turned dimension bugs into wrong answers; all callers now go through
/// this checked entry point and the fallible [`dot`] remains available
/// where a recoverable error is wanted.
#[inline]
pub fn dot_slices(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product dimension mismatch");
    dot_unchecked(a, b)
}

/// Accumulation core shared by [`dot_slices`] and [`dot_block`]: 4-way
/// striped accumulators combined as `(acc0 + acc1) + (acc2 + acc3)`, then
/// a sequential tail. Sharing it is what makes per-row and blocked
/// verification bit-identical.
#[inline]
pub(crate) fn dot_unchecked(a: &[f64], b: &[f64]) -> f64 {
    // Manual 4-way unroll: rustc reliably vectorizes this shape, and the
    // index's verification loop spends essentially all its time here.
    let n = a.len().min(b.len());
    let chunks = n / 4;
    let mut acc0 = 0.0;
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    let mut acc3 = 0.0;
    for i in 0..chunks {
        let j = i * 4;
        acc0 += a[j] * b[j];
        acc1 += a[j + 1] * b[j + 1];
        acc2 += a[j + 2] * b[j + 2];
        acc3 += a[j + 3] * b[j + 3];
    }
    let mut acc = (acc0 + acc1) + (acc2 + acc3);
    for j in chunks * 4..n {
        acc += a[j] * b[j];
    }
    acc
}

/// Blocked verification kernel: scalar products of `a` against a contiguous
/// run of row-major rows.
///
/// `rows` holds `dots.len()` consecutive rows of `a.len()` coordinates each
/// (a slice of a flat `FeatureTable`-style buffer); `dots[i]` receives
/// `⟨a, rows[i]⟩`. One forward pass over `rows` gives the verification loop
/// sequential memory access instead of one random row lookup per candidate.
///
/// Each row uses the exact accumulation order of [`dot_slices`], so a
/// blocked verification pass is bit-identical to per-row `dot_slices` calls
/// — the property the parallel query engine's determinism guarantee rests
/// on.
///
/// # Panics
///
/// Panics (in every build profile) if `rows.len() != a.len() * dots.len()`.
/// The shape check happens once per block, so per-row cost is identical to
/// the previous unchecked version.
#[inline]
pub fn dot_block(a: &[f64], rows: &[f64], dots: &mut [f64]) {
    assert_eq!(rows.len(), a.len() * dots.len(), "dot_block shape mismatch");
    let dim = a.len();
    if dim == 0 {
        dots.fill(0.0);
        return;
    }
    for (dot, row) in dots.iter_mut().zip(rows.chunks_exact(dim)) {
        *dot = dot_unchecked(a, row);
    }
}

/// Checked scalar product: errors on dimension mismatch instead of panicking.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(GeomError::DimensionMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(dot_slices(a, b))
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot_slices(a, a).sqrt()
}

/// A dense vector in `R^d` backed by a `Vec<f64>`.
///
/// `Vector` is deliberately minimal: the Planar index stores features in flat
/// row-major tables and only materializes `Vector`s at API boundaries
/// (queries, normals, examples).
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    coords: Vec<f64>,
}

impl Vector {
    /// Create a vector from raw coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::Empty`] for zero-dimensional input and
    /// [`GeomError::NotFinite`] if any coordinate is NaN or infinite.
    pub fn new(coords: Vec<f64>) -> Result<Self> {
        if coords.is_empty() {
            return Err(GeomError::Empty);
        }
        if coords.iter().any(|c| !c.is_finite()) {
            return Err(GeomError::NotFinite);
        }
        Ok(Self { coords })
    }

    /// Create a vector of `dim` zeros.
    pub fn zeros(dim: usize) -> Self {
        Self {
            coords: vec![0.0; dim],
        }
    }

    /// Create a vector of `dim` ones.
    pub fn ones(dim: usize) -> Self {
        Self {
            coords: vec![1.0; dim],
        }
    }

    /// Dimensionality of the vector.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Coordinates as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.coords
    }

    /// Consume the vector and return its coordinates.
    pub fn into_vec(self) -> Vec<f64> {
        self.coords
    }

    /// Scalar product with another vector.
    ///
    /// # Errors
    ///
    /// [`GeomError::DimensionMismatch`] if dimensions differ.
    #[inline]
    pub fn dot(&self, other: &Vector) -> Result<f64> {
        dot(&self.coords, &other.coords)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        norm(&self.coords)
    }

    /// Return a unit-norm copy of this vector.
    ///
    /// # Errors
    ///
    /// [`GeomError::ZeroCoordinate`] if the vector has zero norm.
    pub fn normalized(&self) -> Result<Vector> {
        let n = self.norm();
        if n == 0.0 {
            return Err(GeomError::ZeroCoordinate { axis: 0 });
        }
        Ok(Vector {
            coords: self.coords.iter().map(|c| c / n).collect(),
        })
    }

    /// Component-wise sum.
    ///
    /// # Errors
    ///
    /// [`GeomError::DimensionMismatch`] if dimensions differ.
    pub fn add(&self, other: &Vector) -> Result<Vector> {
        self.zip_with(other, |x, y| x + y)
    }

    /// Component-wise difference `self − other`.
    ///
    /// # Errors
    ///
    /// [`GeomError::DimensionMismatch`] if dimensions differ.
    pub fn sub(&self, other: &Vector) -> Result<Vector> {
        self.zip_with(other, |x, y| x - y)
    }

    /// Multiply every coordinate by `s`.
    pub fn scale(&self, s: f64) -> Vector {
        Vector {
            coords: self.coords.iter().map(|c| c * s).collect(),
        }
    }

    /// The cosine of the angle between this vector and `other`.
    ///
    /// # Errors
    ///
    /// [`GeomError::DimensionMismatch`] if dimensions differ, or
    /// [`GeomError::ZeroCoordinate`] if either vector has zero norm.
    pub fn cosine(&self, other: &Vector) -> Result<f64> {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            return Err(GeomError::ZeroCoordinate { axis: 0 });
        }
        Ok(self.dot(other)? / denom)
    }

    /// True when `other` is (anti-)parallel to this vector within tolerance
    /// `eps` on the absolute cosine.
    ///
    /// Used by the multi-index builder to drop *redundant* indices (§5.2 of
    /// the paper: an index is redundant if another index has a parallel
    /// normal).
    pub fn is_parallel_to(&self, other: &Vector, eps: f64) -> bool {
        match self.cosine(other) {
            Ok(c) => (c.abs() - 1.0).abs() <= eps,
            Err(_) => false,
        }
    }

    fn zip_with(&self, other: &Vector, f: impl Fn(f64, f64) -> f64) -> Result<Vector> {
        if self.dim() != other.dim() {
            return Err(GeomError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            });
        }
        Ok(Vector {
            coords: self
                .coords
                .iter()
                .zip(&other.coords)
                .map(|(&x, &y)| f(x, y))
                .collect(),
        })
    }
}

impl core::ops::Index<usize> for Vector {
    type Output = f64;

    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

impl TryFrom<Vec<f64>> for Vector {
    type Error = GeomError;

    fn try_from(coords: Vec<f64>) -> Result<Self> {
        Vector::new(coords)
    }
}

impl AsRef<[f64]> for Vector {
    fn as_ref(&self) -> &[f64] {
        &self.coords
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn dot_basic() {
        assert_eq!(dot_slices(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot_slices(&[], &[]), 0.0);
    }

    #[test]
    fn dot_unrolled_matches_naive() {
        // Exercise lengths around the 4-way unroll boundary.
        for len in 0..=17 {
            let a: Vec<f64> = (0..len).map(|i| i as f64 * 0.5 + 1.0).collect();
            let b: Vec<f64> = (0..len).map(|i| (len - i) as f64 * 0.25).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(approx_eq(dot_slices(&a, &b), naive), "len {len}");
        }
    }

    /// Mismatched lengths used to silently truncate in release builds
    /// (`Iterator::zip` semantics), turning dimension bugs into wrong
    /// answers. The contract is now a panic in every build profile.
    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_mismatched_lengths_panic() {
        dot_slices(&[1.0; 9], &[1.0; 5]);
    }

    #[test]
    #[should_panic(expected = "dot_block shape mismatch")]
    fn dot_block_shape_mismatch_panics() {
        let mut dots = [0.0; 3];
        dot_block(&[1.0, 2.0], &[1.0; 5], &mut dots);
    }

    #[test]
    fn dot_block_matches_per_row_dots_bitwise() {
        for dim in 1..=7usize {
            for nrows in 0..=5usize {
                let a: Vec<f64> = (0..dim).map(|i| 0.3 * i as f64 - 1.0).collect();
                let rows: Vec<f64> = (0..dim * nrows).map(|i| (i as f64).sin() * 10.0).collect();
                let mut dots = vec![f64::NAN; nrows];
                dot_block(&a, &rows, &mut dots);
                for (r, d) in rows.chunks_exact(dim).zip(&dots) {
                    assert_eq!(d.to_bits(), dot_slices(&a, r).to_bits());
                }
            }
        }
    }

    #[test]
    fn dot_checked_rejects_mismatch() {
        assert_eq!(
            dot(&[1.0], &[1.0, 2.0]),
            Err(GeomError::DimensionMismatch { left: 1, right: 2 })
        );
    }

    #[test]
    fn vector_construction_validates() {
        assert_eq!(Vector::new(vec![]), Err(GeomError::Empty));
        assert_eq!(Vector::new(vec![f64::NAN]), Err(GeomError::NotFinite));
        assert_eq!(Vector::new(vec![f64::INFINITY]), Err(GeomError::NotFinite));
        assert!(Vector::new(vec![1.0, -2.0]).is_ok());
    }

    #[test]
    fn norm_and_normalized() {
        let v = Vector::new(vec![3.0, 4.0]).unwrap();
        assert!(approx_eq(v.norm(), 5.0));
        let u = v.normalized().unwrap();
        assert!(approx_eq(u.norm(), 1.0));
        assert!(approx_eq(u[0], 0.6));
        assert!(Vector::zeros(3).normalized().is_err());
    }

    #[test]
    fn add_sub_scale() {
        let a = Vector::new(vec![1.0, 2.0]).unwrap();
        let b = Vector::new(vec![10.0, 20.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[11.0, 22.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[9.0, 18.0]);
        assert_eq!(a.scale(-2.0).as_slice(), &[-2.0, -4.0]);
        assert!(a.add(&Vector::ones(3)).is_err());
    }

    #[test]
    fn cosine_and_parallel() {
        let a = Vector::new(vec![1.0, 0.0]).unwrap();
        let b = Vector::new(vec![0.0, 1.0]).unwrap();
        assert!(approx_eq(a.cosine(&b).unwrap(), 0.0));
        assert!(approx_eq(a.cosine(&a).unwrap(), 1.0));

        let c = Vector::new(vec![2.0, 4.0]).unwrap();
        let d = Vector::new(vec![1.0, 2.0]).unwrap();
        let e = Vector::new(vec![-1.0, -2.0]).unwrap();
        assert!(c.is_parallel_to(&d, 1e-12));
        assert!(c.is_parallel_to(&e, 1e-12)); // anti-parallel counts
        assert!(!a.is_parallel_to(&b, 1e-12));
        assert!(!c.is_parallel_to(&Vector::zeros(2), 1e-12));
    }
}
