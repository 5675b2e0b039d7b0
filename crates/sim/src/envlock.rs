//! Serialized environment mutation for tests.
//!
//! `std::env::set_var` mutates process-global state while the test
//! harness runs tests concurrently, so two tests touching *any*
//! environment variables can race — one reads while the other writes, or
//! a variable leaks from one test into another. Every env-mutating test
//! of this crate goes through [`EnvGuard`]: it holds a process-global
//! lock for the guard's lifetime (serializing all env-mutating tests
//! through this one chokepoint) and restores each touched variable to its
//! pre-guard value on drop, even when the test panics.
//!
//! Tests that only *read* a variable another test mutates should also
//! take the guard (a read under the lock cannot interleave with a
//! mutation elsewhere).

use std::sync::{Mutex, MutexGuard, OnceLock};

fn global_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Holds the process-global env lock and records the original value of
/// every variable mutated through it; restores them on drop.
#[must_use = "the guard serializes and restores env mutations for its lifetime"]
pub struct EnvGuard {
    _lock: MutexGuard<'static, ()>,
    saved: Vec<(String, Option<String>)>,
}

impl EnvGuard {
    /// Acquires the global env lock (blocking until other guards drop).
    /// A guard held by a panicked test still restored its variables in
    /// its drop, so a poisoned lock is safe to take over.
    pub fn new() -> Self {
        let lock = global_lock().lock().unwrap_or_else(|poison| poison.into_inner());
        EnvGuard { _lock: lock, saved: Vec::new() }
    }

    fn remember(&mut self, name: &str) {
        if !self.saved.iter().any(|(n, _)| n == name) {
            self.saved.push((name.to_string(), std::env::var(name).ok()));
        }
    }

    /// Sets `name=value`, remembering the pre-guard value for restore.
    pub fn set(&mut self, name: &str, value: &str) {
        self.remember(name);
        std::env::set_var(name, value);
    }

    /// Removes `name`, remembering the pre-guard value for restore.
    pub fn remove(&mut self, name: &str) {
        self.remember(name);
        std::env::remove_var(name);
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        for (name, old) in self.saved.drain(..).rev() {
            match old {
                Some(v) => std::env::set_var(&name, v),
                None => std::env::remove_var(&name),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_serializes_and_releases_on_drop() {
        const VAR: &str = "FTR_ENVLOCK_USAGE";
        {
            let mut g = EnvGuard::new();
            g.set(VAR, "3");
            assert_eq!(std::env::var(VAR).as_deref(), Ok("3"));
            // drop restores the variable and releases the lock
        }
        assert!(std::env::var(VAR).is_err());
        // the lock was released: a second guard is granted at once
        let _again = EnvGuard::new();
    }

    #[test]
    fn guard_restores_set_and_removed_vars() {
        const VAR: &str = "FTR_ENVLOCK_SELFTEST";
        {
            let mut g = EnvGuard::new();
            g.set(VAR, "first");
            g.set(VAR, "second");
            assert_eq!(std::env::var(VAR).as_deref(), Ok("second"));
            g.remove(VAR);
            assert!(std::env::var(VAR).is_err());
        }
        // the variable did not exist before the guard — restored to unset
        assert!(std::env::var(VAR).is_err());
        {
            std::env::set_var(VAR, "outer");
            let mut g = EnvGuard::new();
            g.remove(VAR);
            drop(g);
            assert_eq!(std::env::var(VAR).as_deref(), Ok("outer"), "restored to pre-guard value");
            std::env::remove_var(VAR);
        }
    }
}
