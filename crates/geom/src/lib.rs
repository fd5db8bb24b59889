//! # planar-geom
//!
//! Dense vector and hyperplane geometry substrate for the Planar index
//! ("Towards Indexing Functions: Answering Scalar Product Queries",
//! SIGMOD 2014).
//!
//! Everything the index needs from coordinate geometry lives here:
//!
//! * [`Vector`] — a thin, dimension-checked wrapper over `Vec<f64>` with the
//!   scalar-product, norm and angle operations used throughout the paper.
//! * [`Hyperplane`] — `⟨normal, y⟩ = offset` with axis intercepts
//!   (`I(q, i) = b / aᵢ` in the paper's notation), point distance and the
//!   angle between two hyperplanes (§5.1.2, angle-minimization heuristic).
//! * [`Octant`] / [`SignVector`] — hyper-octant bookkeeping for queries whose
//!   coefficients are not all positive (§4.5).
//! * [`Translation`] — the translation operation of Claim 1 (Eq. 9–12) that
//!   moves data into the query's hyper-octant, plus the sign *reflection*
//!   that maps that octant onto the first one so the core index can always
//!   work with non-negative coordinates.
//!
//! The crate is `no_std`-agnostic in spirit (no allocation beyond `Vec`) and
//! has no dependencies; it is shared by every other crate in the workspace.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod approx;
mod hyperplane;
pub mod kernels;
mod octant;
pub mod quant;
mod translation;
mod vector;

pub use approx::{approx_eq, approx_eq_eps, DEFAULT_EPS};
pub use hyperplane::Hyperplane;
pub use kernels::{
    axpy, dot_block_cols, dot_cmp_block, host_has_fma, kernel, kernel_name, KernelKind, BLOCK_ROWS,
};
pub use octant::{Octant, Sign, SignVector};
pub use quant::{classify_block_i16, dot_block_cols_i16, quant_kernel_name, QMAX_I16};
pub use translation::{NormalizedQuery, Normalizer, Translation};
pub use vector::{dot, dot_block, dot_slices, norm, Vector};

/// Errors produced by geometric constructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeomError {
    /// Two operands had different dimensionality.
    DimensionMismatch {
        /// Dimensionality of the left operand.
        left: usize,
        /// Dimensionality of the right operand.
        right: usize,
    },
    /// A coordinate that must be non-zero was zero.
    ZeroCoordinate {
        /// Index of the offending axis.
        axis: usize,
    },
    /// A value that must be finite was NaN or infinite.
    NotFinite,
    /// An empty vector was supplied where dimension ≥ 1 is required.
    Empty,
}

impl core::fmt::Display for GeomError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GeomError::DimensionMismatch { left, right } => {
                write!(f, "dimension mismatch: {left} vs {right}")
            }
            GeomError::ZeroCoordinate { axis } => {
                write!(f, "coordinate on axis {axis} must be non-zero")
            }
            GeomError::NotFinite => write!(f, "value must be finite"),
            GeomError::Empty => write!(f, "vector must have dimension >= 1"),
        }
    }
}

impl std::error::Error for GeomError {}

/// Convenience alias for geometry results.
pub type Result<T> = core::result::Result<T, GeomError>;
