//! Loopback test of the audited season close: `POST /seasons/{name}/close`
//! drains the season's worker, seals the season, and refunds the unspent
//! remainder to the agency cap through the meta-ledger's two-phase record.
//! The refund is visible in `GET /audit`, survives a service restart, and
//! a closed season refuses all further work with a typed 409.

use eree_core::definitions::PrivacyParams;
use eree_core::engine::RequestKind;
use eree_core::mechanisms::MechanismKind;
use eree_service::{
    Client, ClientError, ReleaseService, ReleaseSubmission, RetryPolicy, ServiceConfig,
};
use lodes::{Dataset, Generator, GeneratorConfig};
use std::fs;
use std::path::PathBuf;
use std::time::Duration;
use tabulate::{MarginalSpec, WorkplaceAttr};

const ALPHA: f64 = 0.1;
const WAIT: Duration = Duration::from_secs(60);

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("eree-service-close-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> Dataset {
    Generator::new(GeneratorConfig::test_small(91)).generate()
}

fn county() -> MarginalSpec {
    MarginalSpec::new(vec![WorkplaceAttr::County], vec![])
}

fn submission(epsilon: f64, seed: u64) -> ReleaseSubmission {
    ReleaseSubmission {
        kind: RequestKind::Marginal,
        spec: county(),
        mechanism: MechanismKind::LogLaplace,
        budget: PrivacyParams::pure(ALPHA, epsilon),
        budget_is_per_cell: false,
        filter: None,
        integerize: false,
        seed,
        description: None,
    }
}

fn status_of(result: &Result<impl std::fmt::Debug, ClientError>) -> u16 {
    match result {
        Err(ClientError::Api { status, .. }) => *status,
        other => panic!("expected an API refusal, got {other:?}"),
    }
}

#[test]
fn close_refunds_the_unspent_remainder_durably() {
    let dir = tmp_dir("refund");
    let cap = PrivacyParams::pure(ALPHA, 4.0);
    let service =
        ReleaseService::start(&dir, dataset(), ServiceConfig::new(cap)).expect("service starts");
    // The retrying client rides out transient contention (e.g. a lease
    // mid-handoff) without changing any permanent answer below.
    let client = Client::new(service.addr()).with_retry(RetryPolicy::default());

    client
        .create_season("s", PrivacyParams::pure(ALPHA, 2.0))
        .expect("season fits under the cap");
    let receipt = client.submit("s", &submission(0.5, 7)).expect("submit");
    let done = client.wait_for(receipt.id, WAIT).expect("release runs");
    assert_eq!(done.status, "complete", "error: {:?}", done.error);

    let before = client.audit().expect("audit before close");
    assert_eq!(before.refunded_epsilon, 0.0);
    let spent = before.spent_epsilon;
    assert!(spent > 0.0, "the release charged something");
    let season_before = &before.seasons[0];
    assert!(!season_before.closed);

    // Close: the worker drains, the season seals, the remainder comes
    // back to the cap. refund = reserved − spent.
    let closed = client.close_season("s").expect("close succeeds");
    assert!(!closed.already_closed);
    assert!(
        (closed.refund_epsilon - (2.0 - spent)).abs() < 1e-9,
        "refund {} != reserved 2.0 − spent {spent}",
        closed.refund_epsilon
    );
    assert!(
        (closed.remaining_epsilon - (cap.epsilon - spent)).abs() < 1e-9,
        "after the refund only the spend stays charged against the cap"
    );

    // The audit shows the refund and the sealed season.
    let after = client.audit().expect("audit after close");
    assert!((after.refunded_epsilon - closed.refund_epsilon).abs() < 1e-9);
    assert!((after.remaining_epsilon - closed.remaining_epsilon).abs() < 1e-9);
    assert_eq!(after.spent_epsilon, spent, "the spend itself never refunds");
    assert!(after.seasons[0].closed, "audit reports the season sealed");

    // A closed season refuses everything with a typed 409: submissions,
    // and re-creating a season under the retired name.
    assert_eq!(status_of(&client.submit("s", &submission(0.1, 8))), 409);
    assert_eq!(
        status_of(&client.create_season("s", PrivacyParams::pure(ALPHA, 0.5))),
        409
    );
    // Closing again is idempotent: the recorded receipt replays.
    let again = client.close_season("s").expect("re-close replays");
    assert!(again.already_closed);
    assert!((again.refund_epsilon - closed.refund_epsilon).abs() < 1e-9);
    // Closing a season that never existed is a refusal, not a crash.
    assert_eq!(status_of(&client.close_season("ghost")), 409);

    // The refunded headroom is real: a new season over what the cap had
    // left before the close, but within it after, is accepted.
    client
        .create_season("t", PrivacyParams::pure(ALPHA, cap.epsilon - spent - 0.5))
        .expect("the refunded budget is reservable again");

    service.shutdown();

    // Restart: the closure and its refund are durable meta-ledger state.
    let service = ReleaseService::start(&dir, dataset(), ServiceConfig::new(cap))
        .expect("service reopens the agency");
    let client = Client::new(service.addr()).with_retry(RetryPolicy::default());
    let replayed = client.audit().expect("audit after restart");
    assert!((replayed.refunded_epsilon - closed.refund_epsilon).abs() < 1e-9);
    let s = replayed
        .seasons
        .iter()
        .find(|s| s.name == "s")
        .expect("closed season still audited");
    assert!(s.closed, "the seal survives a restart");
    assert_eq!(status_of(&client.submit("s", &submission(0.1, 9))), 409);
    let replay = client.close_season("s").expect("close is still idempotent");
    assert!(replay.already_closed);

    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn closing_an_unmaterialized_season_refunds_the_whole_reservation() {
    let dir = tmp_dir("unmaterialized");
    let cap = PrivacyParams::pure(ALPHA, 1.0);
    let service =
        ReleaseService::start(&dir, dataset(), ServiceConfig::new(cap)).expect("service starts");
    let client = Client::new(service.addr());

    // Reserved but never submitted to: no season directory exists, only
    // the meta-ledger reservation. Closing refunds all of it.
    client
        .create_season("idle", PrivacyParams::pure(ALPHA, 0.75))
        .expect("reservation fits");
    let receipt = client.close_season("idle").expect("close of idle season");
    assert!((receipt.refund_epsilon - 0.75).abs() < 1e-9);
    assert!((receipt.remaining_epsilon - cap.epsilon).abs() < 1e-9);
    let audit = client.audit().expect("audit");
    assert!((audit.refunded_epsilon - 0.75).abs() < 1e-9);
    assert!(audit.seasons[0].closed);

    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
