//! Synchronization facade for the concurrent backends.
//!
//! Every primitive the threaded/rayon/session executors use — atomics,
//! mutexes, channels, thread spawning — is imported through this module
//! rather than from `std`/`crossbeam`/`parking_lot` directly. Normally
//! it re-exports the real primitives at zero cost; with the
//! `model-check` feature it re-exports the `minloom` shim types
//! instead, so the same protocol code can run under the
//! exhaustive-interleaving model checker (see
//! `crates/core/tests/model_check.rs` and `vendor/minloom`).
//!
//! Build/test matrix:
//! * default: production primitives, all tests.
//! * `--features model-check --test model_check`: shim primitives, the
//!   protocol models only. (Other test targets are not built in this
//!   configuration — shim primitives panic outside a checker run.)

#[cfg(not(feature = "model-check"))]
mod imp {
    pub use crossbeam::channel;
    pub use parking_lot::{Mutex, MutexGuard};
    pub use std::sync::atomic::{
        AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };

    /// Thread spawning, narrowed to the surface the backends use.
    pub mod thread {
        pub use std::thread::{spawn, yield_now, JoinHandle};
    }

    /// `std::sync::Condvar` behind the same no-poisoning surface as
    /// [`Mutex`] (and the same signature as the model checker's).
    #[derive(Debug, Default)]
    pub struct Condvar(std::sync::Condvar);

    impl Condvar {
        pub fn new() -> Self {
            Self::default()
        }

        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            self.0
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }
}

#[cfg(feature = "model-check")]
mod imp {
    pub use minloom::channel;
    pub use minloom::sync::{
        AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Condvar, Mutex, MutexGuard,
        Ordering,
    };
    pub use minloom::thread;
}

pub use imp::*;

pub use std::sync::Arc;
