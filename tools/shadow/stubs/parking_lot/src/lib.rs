//! The `parking_lot` API surface this workspace uses, implemented in-tree:
//! `Mutex` with a non-poisoning, `Result`-free `lock()`. Backed by
//! `std::sync::Mutex` with poison errors swallowed, which matches
//! parking_lot's observable behavior for these call sites.

use std::sync::Mutex as StdMutex;
use std::sync::MutexGuard as StdMutexGuard;

/// A mutex whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

/// RAII guard; the lock is released on drop.
pub struct MutexGuard<'a, T: ?Sized>(StdMutexGuard<'a, T>);

impl<T> Mutex<T> {
    /// Wrap a value in a new mutex.
    pub fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking the current thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_guards_mutation() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }
}
