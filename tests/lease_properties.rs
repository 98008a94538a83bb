//! Concurrency edge cases of the [`DirLease`] write lease.
//!
//! The durability protocol assumes one writer per store directory, with
//! stale leases (dead holder PIDs) reclaimed automatically. The dangerous
//! corner is the reclaim race: two openers observing the same dead
//! holder's lease and both trying to take over. Exactly one may win, the
//! loser must see a typed [`StoreError::Locked`] naming the winner, and
//! the lease file must never end up torn or removed out from under a live
//! holder. The complementary guarantee: a lease held by a *live* process
//! that is not us is never stolen, no matter how many times we try.

use eree_core::store::{DirLease, StoreError};
use std::fs;
use std::path::PathBuf;
use std::thread;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eree-lease-props-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// PID 0 is the kernel idle process: never in `/proc`, so a lease
/// recording it is provably stale — the same idiom the store unit tests
/// use to simulate a crashed holder.
const DEAD_PID: u32 = 0;

/// PID 1 (init) is always alive on Linux, and conservatively presumed
/// alive elsewhere — a live holder that is not this process.
const LIVE_FOREIGN_PID: u32 = 1;

fn plant_lease(path: &std::path::Path, pid: u32) {
    fs::write(path, format!("{{\"pid\": {pid}}}")).unwrap();
}

#[test]
fn concurrent_stale_reclaim_has_exactly_one_winner_and_no_torn_lease() {
    const RACERS: usize = 4;
    const TRIALS: usize = 25;
    for trial in 0..TRIALS {
        let dir = tmp_dir(&format!("race-{trial}"));
        let lease_path = dir.join("store.lock");
        plant_lease(&lease_path, DEAD_PID);

        let results: Vec<Result<DirLease, StoreError>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..RACERS)
                .map(|_| scope.spawn(|| DirLease::acquire(&lease_path)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let winners: Vec<&DirLease> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
        assert_eq!(
            winners.len(),
            1,
            "trial {trial}: expected exactly one winner, got {}",
            winners.len()
        );
        for r in &results {
            if let Err(e) = r {
                // Every loser sees a typed Locked error naming the live
                // winner (all racers share this test process's PID).
                assert!(
                    matches!(e, StoreError::Locked { holder_pid, .. }
                        if *holder_pid == std::process::id()),
                    "trial {trial}: loser saw {e:?}"
                );
            }
        }
        // The surviving lease file is whole — it parses and records the
        // winner — and the reclaim marker never outlives the race.
        let on_disk = fs::read_to_string(&lease_path).unwrap();
        assert!(
            on_disk.contains(&format!("{}", std::process::id())),
            "trial {trial}: lease file does not record the winner: {on_disk}"
        );
        assert!(
            !dir.join("store.lock.reclaim").exists(),
            "trial {trial}: reclaim marker left behind"
        );
        // Dropping the winner releases the lease for the next acquirer.
        drop(results);
        assert!(!lease_path.exists(), "trial {trial}: lease not released");
        let reacquired = DirLease::acquire(&lease_path).unwrap();
        drop(reacquired);
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn live_foreign_lease_is_never_stolen() {
    let dir = tmp_dir("live-foreign");
    let lease_path = dir.join("store.lock");
    plant_lease(&lease_path, LIVE_FOREIGN_PID);
    let before = fs::read_to_string(&lease_path).unwrap();

    // Repeated single-threaded attempts and a concurrent burst: every one
    // must refuse with Locked naming the live holder, and the holder's
    // lease file must be byte-identical afterwards.
    for _ in 0..10 {
        match DirLease::acquire(&lease_path) {
            Err(StoreError::Locked { holder_pid, .. }) => {
                assert_eq!(holder_pid, LIVE_FOREIGN_PID)
            }
            other => panic!("live foreign lease must refuse with Locked, got {other:?}"),
        }
    }
    let outcomes: Vec<Result<DirLease, StoreError>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| DirLease::acquire(&lease_path)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for outcome in outcomes {
        assert!(
            matches!(&outcome, Err(StoreError::Locked { holder_pid, .. })
                if *holder_pid == LIVE_FOREIGN_PID),
            "concurrent attempt stole or disturbed a live lease: {outcome:?}"
        );
    }
    assert_eq!(
        fs::read_to_string(&lease_path).unwrap(),
        before,
        "a refused acquire must leave the live lease untouched"
    );
    fs::remove_dir_all(&dir).unwrap();
}
