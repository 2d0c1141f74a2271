//! Seeded blocking-while-locked: a `recv` and a channel `send` with a guard
//! live, and a call that transitively reaches a `join` with a guard live.
use std::sync::Mutex;

pub struct Drainer {
    inner: Mutex<u32>,
}

impl Drainer {
    pub fn drain(&self) {
        let state = lock_ignore_poison(&self.inner);
        let item = self.rx.recv();
        consume(*state, item);
    }

    pub fn stop(&self) {
        let state = lock_ignore_poison(&self.inner);
        self.reap(*state);
    }

    fn reap(&self, _state: u32) {
        let _ = self.handle.join();
    }

    pub fn answer(&self, outcome: u32) {
        let state = lock_ignore_poison(&self.inner);
        let _ = self.tx.send(outcome + *state);
    }
}
