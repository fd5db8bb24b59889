//! Runtime kernel dispatch for the block-verification kernels.
//!
//! The Planar index's hot path is intermediate-interval verification:
//! computing `⟨a, φ(x)⟩` for a run of candidate rows and comparing against
//! the threshold `b`. The table keeps its `f64` rows row-major in blocks of
//! [`BLOCK_ROWS`] rows, and the exact products come from
//! [`crate::dot_block`] and [`crate::dot_slices`], which need no
//! dispatch. The `i16` filter kernels of [`crate::quant`] read a
//! dimension-major code plane per block and come in an AVX2 and a
//! portable twin; this module picks between them.
//!
//! ## Dispatch
//!
//! The implementation is selected **once**, at first use, via
//! [`std::arch`] feature detection: AVX2 on `x86_64` when the CPU has it, a
//! portable chunked-scalar fallback otherwise (or when the
//! `PLANAR_FORCE_PORTABLE` environment variable is set — useful for A/B
//! testing and for exercising the fallback on AVX2 hosts). [`kernel_name`]
//! reports the active choice so benchmarks and stats snapshots can record
//! which code path produced their numbers. The twins classify
//! bit-identically (see [`crate::quant`]), so the choice never changes an
//! answer.

use std::sync::OnceLock;

/// Number of rows (lanes) per block. 64 rows' predicate mask fits one
/// `u64`, and a block of `d' = 8` `f64` rows is 4 KiB.
pub const BLOCK_ROWS: usize = 64;

/// Which kernel implementation was selected at startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// `std::arch` AVX2 intrinsics.
    Avx2,
    /// Portable chunked-scalar fallback (auto-vectorizable, same FP order).
    Portable,
}

impl KernelKind {
    /// Stable lowercase name for logs / bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Avx2 => "avx2",
            KernelKind::Portable => "portable",
        }
    }
}

fn detect() -> KernelKind {
    if std::env::var_os("PLANAR_FORCE_PORTABLE").is_some() {
        return KernelKind::Portable;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelKind::Avx2;
        }
    }
    KernelKind::Portable
}

/// The kernel implementation in use, selected once at first call.
pub fn kernel() -> KernelKind {
    static KERNEL: OnceLock<KernelKind> = OnceLock::new();
    *KERNEL.get_or_init(detect)
}

/// Name of the active kernel implementation (`"avx2"` or `"portable"`).
pub fn kernel_name() -> &'static str {
    kernel().name()
}

/// Whether the host additionally reports FMA (recorded for provenance; the
/// kernels do not use it).
pub fn host_has_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_name_is_stable() {
        assert!(matches!(kernel_name(), "avx2" | "portable"));
        assert_eq!(kernel(), kernel());
    }
}
