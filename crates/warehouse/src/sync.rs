//! `std::sync` locks whose `lock()` / `read()` / `write()` hand back the
//! guard directly — the call shape every `SharedDatabase` user is written
//! against. A poisoned lock is recovered, not propagated (as
//! `xdmod-telemetry` does): what these locks guard is valid at every
//! step, so a thread that panicked under a guard left nothing half-written.

use std::sync::{MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard, TryLockError};

/// A mutual-exclusion lock; see the module docs for the poison policy.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The guard if the lock is free right now, `None` if it is held.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

/// A reader-writer lock; see the module docs for the poison policy.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap `value`.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Block until shared access is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until exclusive access is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}
