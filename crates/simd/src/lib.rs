//! # ncq-simd — branch-free lane-parallel kernels for the meet engine
//!
//! The hot loops of the nearest-concept stack — posting-run
//! intersection (`ncq-fulltext`) and the subtree containment probe
//! (`ncq-store`) — reduce to two primitive kernels over sorted `u32`
//! runs:
//!
//! * [`lower_bound_u32`] — partition search;
//! * [`intersect_u32_into`] — compare-exchange intersection.
//!
//! This crate provides each kernel twice: a scalar reference
//! ([`scalar`]) and an SSE2/AVX2 implementation ([`x86`], x86-64
//! only). The public functions dispatch per process according to
//! [`mode`], which combines **runtime CPU-feature detection**
//! (`is_x86_feature_detected!`) with the **`NCQ_SIMD` environment
//! override**:
//!
//! | `NCQ_SIMD`            | effect                                     |
//! |-----------------------|--------------------------------------------|
//! | unset / `on` / `auto` | best detected ISA (AVX2, else SSE2)        |
//! | `off` / `scalar` / `0`| scalar kernels everywhere                  |
//! | `sse2`                | cap at SSE2 even when AVX2 is available    |
//! | `avx2`                | AVX2 (falls back to best detected if absent) |
//!
//! The contract is **bit-identical output**: for every input, every
//! dispatch target returns exactly the bytes of the scalar reference.
//! `tests/properties.rs` proves it per kernel (random runs × lane
//! remainders × misaligned heads × degenerate shapes), and the golden
//! suites re-prove it end to end under both `NCQ_SIMD` settings in the
//! `simd-compat` CI job.
//!
//! Every call is tallied in a per-kernel **dispatch counter**
//! ([`dispatch_stats`]) split scalar/vector — the server's `STATS` and
//! `METRICS` verbs expose them, and CI diffs the two matrix legs to
//! prove both paths actually executed (a silently-scalar "SIMD" build
//! would pass every equivalence test).

pub mod scalar;
pub mod x86;

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::OnceLock;

/// The kernel implementation a call dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// Scalar reference kernels (any host, `NCQ_SIMD=off`).
    Scalar,
    /// 128-bit kernels (x86-64 baseline).
    Sse2,
    /// 256-bit kernels (runtime-detected).
    Avx2,
}

impl Mode {
    /// Lower-case name, as printed by `STATS` and the probe example.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Scalar => "scalar",
            Mode::Sse2 => "sse2",
            Mode::Avx2 => "avx2",
        }
    }
}

/// Best ISA the host supports (ignoring the env override).
fn best_available() -> Mode {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") {
            Mode::Avx2
        } else {
            Mode::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Mode::Scalar
    }
}

/// Startup decision: `NCQ_SIMD` env capped by what the CPU supports.
fn detect() -> Mode {
    let best = best_available();
    match std::env::var("NCQ_SIMD") {
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "off" | "scalar" | "0" | "false" => Mode::Scalar,
            "sse2" => best.min(Mode::Sse2),
            // `avx2` (or anything else, incl. `on`): best available —
            // an override can cap capability, never invent it.
            _ => best,
        },
        Err(_) => best,
    }
}

/// Process-wide override slot for tests and benches: `0` = none,
/// otherwise `Mode as u8 + 1`.
static MODE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The dispatch mode in effect: the test/bench override if set, else
/// the cached startup decision (env + CPU detection).
pub fn mode() -> Mode {
    match MODE_OVERRIDE.load(Relaxed) {
        1 => Mode::Scalar,
        2 => Mode::Sse2,
        3 => Mode::Avx2,
        _ => {
            static DETECTED: OnceLock<Mode> = OnceLock::new();
            *DETECTED.get_or_init(detect)
        }
    }
}

/// Force a dispatch mode for the current process (benches compare
/// vector vs scalar in one run; the property suite exercises every
/// target regardless of host env). `None` restores env/CPU dispatch.
/// Returns the mode actually in effect — requesting an ISA the CPU
/// lacks caps at the best available, so the caller can skip a leg
/// instead of crashing on an illegal instruction.
pub fn set_mode_override(mode: Option<Mode>) -> Mode {
    let capped = mode.map(|m| m.min(best_available()));
    MODE_OVERRIDE.store(
        match capped {
            None => 0,
            Some(Mode::Scalar) => 1,
            Some(Mode::Sse2) => 2,
            Some(Mode::Avx2) => 3,
        },
        Relaxed,
    );
    capped.unwrap_or_else(self::mode)
}

// ---------------------------------------------------------------------
// Dispatch counters
// ---------------------------------------------------------------------

macro_rules! counters {
    ($($field:ident: $scalar:ident / $vector:ident),+ $(,)?) => {
        $(static $scalar: AtomicU64 = AtomicU64::new(0);
          static $vector: AtomicU64 = AtomicU64::new(0);)+

        /// Per-kernel dispatch tallies, split scalar/vector. "Vector"
        /// means a lane-parallel kernel actually ran, so the counters
        /// never overstate coverage.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct DispatchStats {
            $(pub $field: (u64, u64),)+
        }

        /// Snapshot of the per-kernel dispatch counters as
        /// `(scalar, vector)` pairs.
        pub fn dispatch_stats() -> DispatchStats {
            DispatchStats {
                $($field: ($scalar.load(Relaxed), $vector.load(Relaxed)),)+
            }
        }
    };
}

counters! {
    lower_bound: LB_S / LB_V,
    intersect: IX_S / IX_V,
}

impl DispatchStats {
    /// Total scalar-kernel dispatches.
    pub fn total_scalar(&self) -> u64 {
        self.lines().iter().map(|&(_, s, _)| s).sum()
    }

    /// Total vector-kernel dispatches.
    pub fn total_vector(&self) -> u64 {
        self.lines().iter().map(|&(_, _, v)| v).sum()
    }

    /// `name=(scalar,vector)` pairs for wire surfaces and the probe.
    pub fn lines(&self) -> Vec<(&'static str, u64, u64)> {
        let DispatchStats {
            lower_bound,
            intersect,
        } = *self;
        vec![
            ("lower_bound", lower_bound.0, lower_bound.1),
            ("intersect", intersect.0, intersect.1),
        ]
    }
}

// ---------------------------------------------------------------------
// Public kernels
// ---------------------------------------------------------------------

/// Smallest `i` with `hay[i] >= target` (`hay` sorted ascending);
/// `hay.len()` if every element is below `target`.
#[inline]
pub fn lower_bound_u32(hay: &[u32], target: u32) -> usize {
    match mode() {
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 => {
            LB_V.fetch_add(1, Relaxed);
            unsafe { x86::lower_bound_u32_avx2(hay, target) }
        }
        #[cfg(target_arch = "x86_64")]
        Mode::Sse2 => {
            LB_V.fetch_add(1, Relaxed);
            unsafe { x86::lower_bound_u32_sse2(hay, target) }
        }
        _ => {
            LB_S.fetch_add(1, Relaxed);
            scalar::lower_bound_u32(hay, target)
        }
    }
}

/// Intersection of two sorted, strictly increasing runs, appended to
/// `out` in ascending order.
#[inline]
pub fn intersect_u32_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    match mode() {
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 | Mode::Sse2 => {
            IX_V.fetch_add(1, Relaxed);
            unsafe { x86::intersect_u32_sse2(a, b, out) }
        }
        _ => {
            IX_S.fetch_add(1, Relaxed);
            scalar::intersect_u32_into(a, b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_override_round_trips() {
        let natural = mode();
        assert_eq!(set_mode_override(Some(Mode::Scalar)), Mode::Scalar);
        assert_eq!(mode(), Mode::Scalar);
        set_mode_override(None);
        assert_eq!(mode(), natural);
    }

    #[test]
    fn override_caps_at_the_host_isa() {
        let got = set_mode_override(Some(Mode::Avx2));
        assert!(got <= Mode::Avx2);
        assert_eq!(mode(), got);
        set_mode_override(None);
    }

    #[test]
    fn dispatch_counters_tally_calls() {
        // Not reset-based: other tests in this binary run concurrently
        // and the counters are process-global, so assert deltas only.
        let before = dispatch_stats();
        let hay: Vec<u32> = (0..100).map(|i| i * 3).collect();
        lower_bound_u32(&hay, 50);
        let mut out = Vec::new();
        intersect_u32_into(&hay, &hay, &mut out);
        let after = dispatch_stats();
        let sum = |s: &DispatchStats| s.total_scalar() + s.total_vector();
        assert!(sum(&after) >= sum(&before) + 2);
        assert_eq!(out, hay);
    }
}
