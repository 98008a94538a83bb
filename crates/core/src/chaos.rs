//! Fault injection for the durability protocol (compiled only with the
//! default-off `chaos` cargo feature).
//!
//! Every durable filesystem mutation in the store/agency/truth/cache
//! layers, and every write-lease lock, funnels through thin wrappers that
//! call [`hit`] immediately before the real syscall. With no plan armed,
//! [`hit`] is a no-op (and without the feature, the wrappers compile down
//! to the bare syscalls). A chaos sweep then works in two passes:
//!
//! 1. **Count** ([`arm_count`]): run the scenario once, fault-free, and
//!    learn how many syscall boundaries it crosses — the denominator that
//!    makes coverage a *counted* property instead of a hand-picked list.
//! 2. **Fault** ([`arm`]): re-run the scenario once per boundary `k`,
//!    injecting at exactly the `k`-th boundary either an I/O error
//!    ([`FaultMode::Error`] — the syscall fails, destructors still run)
//!    or a kill ([`FaultMode::Kill`] — the "process" dies on the spot:
//!    an unwind carrying [`ChaosKill`]).
//!
//! A kill's unwind closes every handle the scenario held, and with it
//! every write lease: a lease is a kernel lock on an open directory
//! handle, which the kernel drops on `kill -9` too. So a store killed by
//! the sweep reopens *in the same test process* exactly as it would in
//! the next real process, with nothing to reclaim.
//!
//! All state is thread-local: the sweep driver is single-threaded, and
//! the engine's tabulation worker threads never touch the filesystem.

use std::cell::RefCell;
use std::io;
use std::path::Path;

/// The panic payload of an injected kill. Carried by the unwind that
/// [`FaultMode::Kill`] starts; the sweep driver catches it with
/// `std::panic::catch_unwind` and treats it as the simulated `SIGKILL`.
#[derive(Debug)]
pub struct ChaosKill;

/// What an armed fault does when its boundary is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The wrapped syscall fails with an injected `io::Error`. The caller
    /// sees an ordinary I/O failure and its destructors run — the
    /// "full disk / flaky device" shape of fault.
    Error,
    /// The process "dies" at the boundary: an unwinding panic carrying
    /// [`ChaosKill`] — the `kill -9` shape of fault.
    Kill,
}

#[derive(Debug, Default)]
struct State {
    armed: bool,
    /// Boundary number to trip, 1-based; 0 means count-only.
    target: u64,
    mode: Option<FaultMode>,
    counter: u64,
    tripped: bool,
    sites: Vec<String>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::default());
}

/// What one armed window observed: how many boundaries were crossed,
/// whether the armed fault actually fired, and a site label per boundary.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Syscall boundaries crossed while armed.
    pub boundaries: u64,
    /// Whether the armed fault fired (always `false` after
    /// [`arm_count`]).
    pub tripped: bool,
    /// One `"op:file"` label per boundary, in order.
    pub sites: Vec<String>,
}

/// Arm counting mode: every boundary is recorded, none faults. Use this
/// first pass to learn the sweep's denominator.
pub fn arm_count() {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.armed = true;
        s.target = 0;
        s.mode = None;
        s.counter = 0;
        s.tripped = false;
        s.sites.clear();
    });
}

/// Arm a fault at the `target`-th boundary (1-based) in the given mode.
pub fn arm(target: u64, mode: FaultMode) {
    assert!(target > 0, "boundary numbers are 1-based");
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.armed = true;
        s.target = target;
        s.mode = Some(mode);
        s.counter = 0;
        s.tripped = false;
        s.sites.clear();
    });
}

/// Disarm and return what the armed window observed.
pub fn disarm() -> ChaosReport {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.armed = false;
        ChaosReport {
            boundaries: s.counter,
            tripped: s.tripped,
            sites: std::mem::take(&mut s.sites),
        }
    })
}

/// One syscall boundary: called by the `cfs` wrappers immediately before
/// the real filesystem mutation. Counts the boundary and, if it is the
/// armed target, injects the armed fault.
pub(crate) fn hit(op: &str, path: &Path) -> io::Result<()> {
    let kill = STATE.with(|s| {
        let mut s = s.borrow_mut();
        if !s.armed {
            return Ok(false);
        }
        s.counter += 1;
        // Label with the last two path components: file names alone do
        // not distinguish e.g. a truth file from a cache entry (both are
        // `<digest>.json`), their parent directories do.
        let mut tail: Vec<String> = path
            .components()
            .rev()
            .take(2)
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect();
        tail.reverse();
        let file = tail.join("/");
        s.sites.push(format!("{op}:{file}"));
        if s.target != 0 && s.counter == s.target {
            s.tripped = true;
            match s.mode.expect("armed target always carries a mode") {
                FaultMode::Error => {
                    return Err(io::Error::other(format!(
                        "chaos: injected fault at boundary {} ({op} on {file})",
                        s.counter
                    )));
                }
                FaultMode::Kill => {
                    // Stop injecting while destructors unwind.
                    s.armed = false;
                    return Ok(true);
                }
            }
        }
        Ok(false)
    })?;
    if kill {
        std::panic::panic_any(ChaosKill);
    }
    Ok(())
}

/// Install a panic hook that silences [`ChaosKill`] unwinds (the sweep
/// kills on purpose at every boundary; the default hook would print a
/// backtrace per kill) while delegating every real panic to the previous
/// hook. Call once at the start of a sweep.
pub fn silence_kill_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().is::<ChaosKill>() {
            return;
        }
        previous(info);
    }));
}
