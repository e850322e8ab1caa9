//! In-tree stand-in for the `loom` model checker.
//!
//! The published crate executes each `loom::model` closure once per possible
//! thread interleaving, using its own `thread`/`sync` shims to enumerate
//! schedules. This stub degrades that to a *smoke run*: every shim is
//! the corresponding `std` item and `model` runs its closure exactly
//! once under whatever schedule the OS picks. That keeps the loom test
//! suite compiling and asserting without a registry; the exhaustive
//! exploration happens in CI's loom job, which strips the root
//! `[patch.crates-io]` table so the published crate resolves.

/// Run the model body once (the real crate runs it per interleaving).
pub fn model<F>(f: F)
where
    F: FnOnce(),
{
    f();
}

/// `loom::thread` — plain `std::thread` here.
pub mod thread {
    pub use std::thread::{spawn, yield_now, JoinHandle};
}

/// `loom::sync` — plain `std::sync` here.
pub mod sync {
    pub use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};

    /// `loom::sync::atomic` — plain `std::sync::atomic` here.
    pub mod atomic {
        pub use std::sync::atomic::{
            AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering,
        };
    }
}
