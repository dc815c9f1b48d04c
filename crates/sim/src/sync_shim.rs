//! Backend selection for the parallel engine's synchronization layer.
//!
//! [`crate::par_sync`] (and through it [`crate::par_engine`]) is
//! written against this facade instead of `std` directly. A normal
//! build re-exports the `std` primitives at zero cost; compiling with
//! `RUSTFLAGS="--cfg loom"` swaps in the vendored `loom` model checker
//! (see `vendor/loom`), whose primitives behave like `std` outside a
//! `loom::model` run and are exhaustively schedule-explored inside one.
//!
//! The facade exposes the *loom* shapes, which are the stricter of the
//! two: `UnsafeCell` hands out raw pointers through `with`/`with_mut`
//! closures (so every access is a visible, checkable event), and spin
//! loops must call [`hint::spin_loop`] / [`thread::yield_now`] from
//! here so the model's yield-deprioritization keeps exploration finite.

#[cfg(not(loom))]
mod imp {
    pub(crate) use std::hint;
    pub(crate) use std::sync::atomic::{AtomicUsize, Ordering};
    pub(crate) use std::thread;

    /// `std`-backed stand-in for `loom::cell::UnsafeCell`: the same
    /// closure-based access API, compiled down to plain pointer hand-out.
    /// `repr(transparent)`, so a slice of `T` is a slice of cells
    /// (`par_sync`'s `into_cells` relies on it).
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub(crate) struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    impl<T> UnsafeCell<T> {
        /// Wraps `v`.
        pub(crate) fn new(v: T) -> UnsafeCell<T> {
            UnsafeCell(std::cell::UnsafeCell::new(v))
        }

        /// Calls `f` with a shared raw pointer to the contents.
        ///
        /// Dereferencing the pointer is the caller's `unsafe`
        /// obligation, exactly as with `std::cell::UnsafeCell::get`.
        #[inline]
        pub(crate) fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        /// Calls `f` with an exclusive raw pointer to the contents.
        #[inline]
        pub(crate) fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }
    }
}

#[cfg(loom)]
mod imp {
    pub(crate) use loom::cell::UnsafeCell;
    pub(crate) use loom::hint;
    pub(crate) use loom::sync::atomic::{AtomicUsize, Ordering};
    pub(crate) use loom::thread;
}

pub(crate) use imp::{hint, thread, AtomicUsize, Ordering, UnsafeCell};
