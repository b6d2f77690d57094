//! Synchronization facade for the concurrent backends.
//!
//! Every primitive the pool, its delay router and the sessions use — atomics,
//! mutexes, channels, thread spawning — is imported through this module
//! rather than from `std` directly. Normally it is `std` at zero cost:
//! channels are `std::sync::mpsc`, and [`Mutex`]/[`Condvar`] are thin
//! wrappers that ignore poisoning. With the `model-check` feature it
//! re-exports the `minloom` shim types instead, so the same protocol code
//! can run under the exhaustive-interleaving model checker (see
//! `crates/core/tests/model_check.rs` and `vendor/minloom`).
//!
//! Build/test matrix:
//! * default: production primitives, all tests.
//! * `--features model-check --test model_check`: shim primitives, the
//!   protocol models only. (Other test targets are not built in this
//!   configuration — shim primitives panic outside a checker run.)

#[cfg(not(feature = "model-check"))]
mod imp {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    pub use std::sync::MutexGuard;

    /// Unbounded FIFO channels. Every receiver is moved into its one
    /// consuming thread, so std's single-consumer channel is all it takes.
    pub mod channel {
        pub use std::sync::mpsc::{channel as unbounded, Receiver, RecvTimeoutError, Sender};
    }

    /// Thread spawning, narrowed to the surface the backends use.
    pub mod thread {
        pub use std::thread::{spawn, JoinHandle};
    }

    /// `std::sync::Mutex` whose `lock` hands back the guard even after a
    /// holder panicked (the model checker's signature): the panic itself
    /// surfaces where the fabric joins that thread, so lockers need no
    /// poison path.
    #[derive(Debug, Default)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        pub fn new(value: T) -> Self {
            Self(std::sync::Mutex::new(value))
        }

        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }
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
        AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering,
    };
    pub use minloom::thread;
}

pub use imp::*;

pub use std::sync::Arc;

#[cfg(test)]
#[cfg(not(feature = "model-check"))]
mod tests {
    use super::{Arc, Mutex};

    #[test]
    fn lock_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(1));
        let held = Arc::clone(&m);
        let joined = std::thread::spawn(move || {
            let mut guard = held.lock();
            *guard = 2;
            panic!("holder panics with the lock held");
        })
        .join();
        assert!(joined.is_err(), "the holder panicked");
        assert_eq!(*m.lock(), 2, "the next lock sees the holder's write");
    }
}
