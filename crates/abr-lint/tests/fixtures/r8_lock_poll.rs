//! R8 fixture: a lock guard held across the reactor's readiness wait.
//! `held_across_wait` must be flagged; `released_before_wait` must not.

use std::sync::Mutex;
use sys_poll::PollFd;

pub fn held_across_wait(m: &Mutex<u64>, fds: &mut [PollFd]) {
    let mut guard = m.lock().unwrap_or_else(|e| e.into_inner());
    *guard += 1;
    let _ = sys_poll::wait(fds, 20);
}

pub fn released_before_wait(m: &Mutex<u64>, fds: &mut [PollFd]) {
    let mut guard = m.lock().unwrap_or_else(|e| e.into_inner());
    *guard += 1;
    drop(guard);
    let _ = sys_poll::wait(fds, 20);
}
