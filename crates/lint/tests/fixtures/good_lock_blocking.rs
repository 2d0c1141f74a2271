//! The blocking ops done right: the guard is released (scope exit or
//! `drop`) before blocking (a `recv`, a `join`, a channel `send`), and a
//! condvar wait is exempt for the guard it consumes — parking on the
//! guarded condition is the designed idiom.
use std::sync::{Condvar, Mutex};

pub struct Drainer {
    inner: Mutex<u32>,
    sleep: Mutex<()>,
    wake: Condvar,
}

impl Drainer {
    pub fn drain(&self) {
        {
            let state = lock_ignore_poison(&self.inner);
            touch(*state);
        }
        let item = self.rx.recv();
        consume(item);
    }

    pub fn stop(&self) {
        let state = lock_ignore_poison(&self.inner);
        touch(*state);
        drop(state);
        let _ = self.handle.join();
    }

    pub fn park_for_work(&self) {
        let guard = lock_ignore_poison(&self.sleep);
        let guard = self.wake.wait(guard);
        touch_guard(guard);
    }

    pub fn answer(&self, outcome: u32) {
        let bonus = {
            let state = lock_ignore_poison(&self.inner);
            *state
        };
        let _ = self.tx.send(outcome + bonus);
    }
}
