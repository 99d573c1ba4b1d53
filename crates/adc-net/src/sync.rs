//! The lock node state is shared under.

use std::sync::{self, MutexGuard, PoisonError};

/// A [`std::sync::Mutex`] whose [`lock`](Mutex::lock) hands back the
/// guard itself, recovering the data when a thread panicked while it
/// held the lock. Every critical section in this crate leaves its data
/// consistent, and one connection thread's panic must not take the rest
/// of its node down with it.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new, unlocked mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Blocks until the lock is free and holds it until the guard drops.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panic_under_the_lock_leaves_the_data_usable() {
        let m = Arc::new(Mutex::new(1));
        let shared = Arc::clone(&m);
        let died = std::thread::spawn(move || {
            let mut guard = shared.lock();
            *guard += 1;
            panic!("holder dies");
        })
        .join();
        assert!(died.is_err());
        *m.lock() += 1;
        assert_eq!(*m.lock(), 3);
    }
}
