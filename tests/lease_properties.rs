//! Concurrency edge cases of the [`DirLease`] write lease.
//!
//! The durability protocol assumes one writer per store directory. The
//! lease is a kernel lock on an open handle to the directory, so it is
//! held exactly as long as its holder lives: racers for one directory see
//! exactly one winner and every loser a typed [`StoreError::Locked`]
//! naming the directory; a holder in another process is never stolen
//! from, however often we try; and once that process is killed the
//! directory is free at once, with nothing left to reclaim. A lease file
//! an older build left behind (`agency.lock`, `season.lock`) is an
//! ignored file, even one recording this very process's PID.

use eree_core::store::{DirLease, SeasonStore, StoreError};
use eree_core::{AgencyStore, PrivacyParams};
use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Mutex, MutexGuard};
use std::thread;

/// The variable through which `live_foreign_lease_is_never_stolen` hands
/// its helper process the directory to hold.
const HOLD_DIR_VAR: &str = "EREE_LEASE_TEST_HOLD_DIR";
/// What the helper prints once it holds the lease.
const HOLDING: &str = "lease holder: holding";

/// Runs this file's tests one at a time: a process spawned by one test
/// holds a copy of every descriptor of this process until it execs, and
/// with it the lock of any lease another test is releasing.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eree-lease-props-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The directory's entries, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Every acquisition of `dir` in a 4-thread burst.
fn burst(dir: &Path) -> Vec<Result<DirLease, StoreError>> {
    thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| DirLease::acquire(dir)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn concurrent_stale_reclaim_has_exactly_one_winner_and_no_torn_lease() {
    let _serial = serial();
    const TRIALS: usize = 25;
    for trial in 0..TRIALS {
        let dir = tmp_dir(&format!("race-{trial}"));
        // What an older build's killed writer left behind: a lease file
        // naming a dead PID. Nothing reads it any more.
        fs::write(dir.join("store.lock"), "{\"pid\": 0}").unwrap();
        let before = listing(&dir);

        let results = burst(&dir);
        let winners = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(
            winners, 1,
            "trial {trial}: expected exactly one winner, got {winners}"
        );
        for r in &results {
            if let Err(e) = r {
                // Every loser sees a typed Locked error naming the
                // directory.
                assert!(
                    matches!(e, StoreError::Locked { path } if *path == dir),
                    "trial {trial}: loser saw {e:?}"
                );
            }
        }
        // The lease is a lock, not a file: the race wrote nothing, so
        // nothing can be torn.
        assert_eq!(listing(&dir), before, "trial {trial}: the race wrote");
        // Dropping the winner releases the lease for the next acquirer.
        drop(results);
        let reacquired = DirLease::acquire(&dir)
            .unwrap_or_else(|e| panic!("trial {trial}: lease not released: {e}"));
        drop(reacquired);
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn live_foreign_lease_is_never_stolen() {
    let _serial = serial();
    let dir = tmp_dir("live-foreign");
    // Another process holds the lease: this test binary, re-run on its
    // ignored helper below.
    let mut holder = Command::new(std::env::current_exe().unwrap())
        .args(["lease_holder", "--exact", "--ignored", "--nocapture"])
        .env(HOLD_DIR_VAR, &dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdout = BufReader::new(holder.stdout.take().unwrap());
    let holding = stdout
        .lines()
        .map_while(Result::ok)
        .any(|line| line.contains(HOLDING));
    if !holding {
        let _ = holder.kill();
        panic!("the helper exited without taking the lease");
    }
    let before = listing(&dir);

    // Repeated single-threaded attempts and a concurrent burst: every one
    // must refuse with Locked naming the directory, and leave it as it was.
    for _ in 0..10 {
        match DirLease::acquire(&dir) {
            Err(StoreError::Locked { path }) => assert_eq!(path, dir),
            other => panic!("a live foreign lease must refuse with Locked, got {other:?}"),
        }
    }
    for outcome in burst(&dir) {
        assert!(
            matches!(&outcome, Err(StoreError::Locked { path }) if *path == dir),
            "a concurrent attempt stole a live lease: {outcome:?}"
        );
    }
    assert_eq!(
        listing(&dir),
        before,
        "a refused acquire must leave the directory untouched"
    );

    // SIGKILL: the kernel drops the holder's lock with its last
    // descriptor, so the lease is free at once.
    holder.kill().unwrap();
    holder.wait().unwrap();
    drop(DirLease::acquire(&dir).expect("a killed holder's lease is free at once"));
    fs::remove_dir_all(&dir).unwrap();
}

/// The helper process of `live_foreign_lease_is_never_stolen`: takes the
/// lease on the directory its parent names and holds it until killed, or
/// until its stdin closes, so it never outlives the parent. Run on its
/// own, it has no directory and returns at once.
#[test]
#[ignore = "helper process of live_foreign_lease_is_never_stolen"]
fn lease_holder() {
    let Some(dir) = std::env::var_os(HOLD_DIR_VAR) else {
        return;
    };
    let _lease = DirLease::acquire(&dir).expect("the helper takes the lease");
    println!("{HOLDING}");
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
}

/// A killed holder under an older build left `agency.lock` and
/// `season.lock` recording its PID; a restart that gets the same PID (PID
/// 1 in a container) reads its own PID there. With no handle open, both
/// stores open, and the directory lease still refuses a second handle.
#[test]
fn leftover_lease_files_recording_our_own_pid_do_not_refuse_open() {
    let _serial = serial();
    let dir = tmp_dir("leftover");
    let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 4.0)).unwrap();
    drop(
        agency
            .create_season("s", PrivacyParams::pure(0.1, 1.0))
            .unwrap(),
    );
    drop(agency);
    let season = dir.join("seasons").join("s");
    let own_pid = format!("{{\"pid\": {}}}", std::process::id());
    fs::write(dir.join("agency.lock"), &own_pid).unwrap();
    fs::write(season.join("season.lock"), &own_pid).unwrap();

    drop(SeasonStore::open(&season).expect("a leftover season.lock is an ignored file"));
    let agency = AgencyStore::open(&dir).expect("a leftover agency.lock is an ignored file");
    assert!(matches!(
        AgencyStore::open(&dir),
        Err(StoreError::Locked { path }) if path == dir
    ));
    drop(agency);
    fs::remove_dir_all(&dir).unwrap();
}
