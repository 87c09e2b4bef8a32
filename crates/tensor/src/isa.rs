//! Runtime instruction-set selection for the integer kernels.
//!
//! The workspace builds for the baseline of its target (SSE2 on x86-64),
//! so a binary runs on any host of that target. The hot integer loops —
//! the packed GEMM row block, the conv `(image, group)` unit, the sparse
//! row block and the batched matmul, each with its row epilogue — are
//! written **once**, each as a crate-private `Kernel` whose `run` is
//! `#[inline(always)]`, and `dispatch` instantiates each body twice:
//! inside a `#[target_feature(enable = "avx2")]` trampoline, where the
//! compiler vectorizes it 8 lanes wide, and as a plain call. Which one
//! runs is decided per kernel call:
//!
//! 1. [`isa`] is the host's best ISA, detected once with
//!    `is_x86_feature_detected!` on `x86_64` ([`Isa::Scalar`] on every
//!    other target);
//! 2. [`with_isa`] narrows it on the current thread — it can never widen
//!    it: asking for [`Isa::Avx2`] on a host without AVX2 runs
//!    [`Isa::Scalar`].
//!
//! A thread-local override does not reach the workers a kernel spawns, so
//! every kernel resolves [`isa`] once on the calling thread, before it
//! fans out, and hands the result to its workers.
//!
//! Integer arithmetic does not depend on the instruction set: both
//! instantiations run the same accumulation order and saturation chain,
//! so every bit-identity contract of the kernels holds under either ISA.
//!
//! # Unsafe policy
//!
//! Calling a `#[target_feature]` function is `unsafe`: its only
//! requirement is that the CPU supports the feature. The one `unsafe`
//! block of this crate is in `dispatch`, which enters the AVX2
//! trampoline only when the requested ISA, capped at the detected one,
//! is AVX2 — whatever [`Isa`] value the caller passes in.

use std::cell::Cell;
use std::fmt;
use std::sync::OnceLock;

/// An instruction set the integer kernels can be compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// The build target's baseline (SSE2 on x86-64).
    Scalar,
    /// x86-64 with AVX2 (Haswell and later).
    Avx2,
}

/// The lower-case name reports use: `scalar` or `avx2`.
impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        })
    }
}

thread_local! {
    /// Per-thread narrowing override; `None` means "no override".
    static TLS_ISA: Cell<Option<Isa>> = const { Cell::new(None) };
}

#[cfg(test)]
thread_local! {
    /// The ISA the last [`dispatch`] on this thread ran, so tests can see
    /// which instantiation a kernel's worker threads took.
    static DISPATCHED: Cell<Option<Isa>> = const { Cell::new(None) };
}

/// The ISA the last [`dispatch`] on the current thread ran.
#[cfg(test)]
pub(crate) fn last_dispatched() -> Option<Isa> {
    DISPATCHED.with(Cell::get)
}

/// The host's best ISA, detected on first use and cached.
fn detected() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Scalar
    })
}

/// The ISA the integer kernels use on this thread: the host's detected
/// ISA, narrowed by a [`with_isa`] override if one is installed.
pub fn isa() -> Isa {
    resolve(TLS_ISA.with(Cell::get).unwrap_or(Isa::Avx2))
}

/// Runs `f` with the kernels on the current thread limited to `isa`.
///
/// The override only narrows: on a host without AVX2, `with_isa(Isa::Avx2,
/// ..)` runs [`Isa::Scalar`]. This is how tests run both instantiations
/// of every kernel; results are bit-identical either way. The previous
/// override is restored when `f` returns or panics.
pub fn with_isa<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Isa>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TLS_ISA.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(TLS_ISA.with(|c| c.replace(Some(isa))));
    f()
}

/// `isa` narrowed to what the host supports — the check [`dispatch`]
/// relies on before it enters an AVX2 trampoline.
#[inline]
pub(crate) fn resolve(isa: Isa) -> Isa {
    isa.min(detected())
}

/// A hot kernel body that [`dispatch`] compiles once per ISA: a struct of
/// the body's operands whose [`Kernel::run`] is the loop nest.
///
/// Implementations must mark `run` `#[inline(always)]`. Then it is inlined
/// into the AVX2 trampoline and into the plain call alike, and so
/// compiled once per ISA. (A closure would not do: the compiler may keep a
/// large closure out of line, compiled for the baseline only.)
pub(crate) trait Kernel {
    /// What the body returns.
    type Out;
    /// Runs the body.
    fn run(self) -> Self::Out;
}

/// Runs `kernel` compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<K: Kernel>(kernel: K) -> K::Out {
    kernel.run()
}

/// Runs `kernel` under the ISA `isa` (resolved by [`isa`] on the calling
/// thread before the kernel fans out): inside the AVX2 trampoline when
/// `isa` resolves to [`Isa::Avx2`] on this host, as a plain call
/// otherwise. The one `unsafe` call of the crate.
#[allow(unsafe_code)]
#[inline(always)]
pub(crate) fn dispatch<K: Kernel>(isa: Isa, kernel: K) -> K::Out {
    let isa = resolve(isa);
    #[cfg(test)]
    DISPATCHED.with(|c| c.set(Some(isa)));
    match isa {
        // SAFETY: `avx2` requires only that the CPU supports AVX2, and
        // `resolve` returns `Avx2` only when `is_x86_feature_detected!`
        // found AVX2 on this host.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { avx2(kernel) },
        _ => kernel.run(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_isa_narrows_and_restores() {
        let host = isa();
        with_isa(Isa::Scalar, || assert_eq!(isa(), Isa::Scalar));
        // Asking for AVX2 never widens past the host.
        with_isa(Isa::Avx2, || assert_eq!(isa(), host));
        assert_eq!(isa(), host);
        assert_eq!(resolve(Isa::Avx2), host);
    }

    struct Sum(i32, i32);

    impl Kernel for Sum {
        type Out = i32;
        #[inline(always)]
        fn run(self) -> i32 {
            (self.0..=self.1).sum()
        }
    }

    #[test]
    fn dispatch_returns_the_body_value_under_either_isa() {
        for which in [Isa::Scalar, Isa::Avx2] {
            assert_eq!(dispatch(which, Sum(1, 10)), 55, "{which}");
        }
    }
}
