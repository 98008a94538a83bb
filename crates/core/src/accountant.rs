//! Composition and budget accounting (Sec 7.3 of the paper).
//!
//! * **Sequential composition** (Thm 7.3): releasing (α,ε₁)- and
//!   (α,ε₂)-private outputs on the same data yields (α, ε₁+ε₂); δ values
//!   also add.
//! * **Parallel composition over establishments** (Thm 7.4): releases over
//!   record sets belonging to *distinct establishments* compose in
//!   parallel — total loss is the max, not the sum. Both strong and weak
//!   variants enjoy this. A workplace-only marginal partitions
//!   establishments across its cells, so the whole marginal costs ε.
//! * **Parallel composition over workers** (Thm 7.5): record sets that
//!   split workers *of the same establishments* (e.g. males vs females)
//!   compose in parallel under **strong** ER-EE privacy only. Under weak
//!   privacy, releasing a marginal with worker attributes costs
//!   `d·ε` where `d` is the worker-attribute domain size (Sec 8).
//!
//! # The accountant hierarchy
//!
//! Budget enforcement is layered, sharing one arithmetic core:
//!
//! * [`BudgetAccount`] — the compensated-summation budget arithmetic:
//!   a `(α, ε, δ)` cap, Neumaier-compensated spent totals, and the
//!   fail-closed admission rule (relative one-shot tolerance, NaN and
//!   negative charges refused outright).
//! * [`Ledger`] — a season-level account: every release charges it, every
//!   charge is recorded as a [`LedgerEntry`], and a persisted season is
//!   rebuilt by *replaying* its charges through the same arithmetic
//!   ([`Ledger::replay`]).
//! * [`MetaLedger`] — the agency-level account above the seasons: a global
//!   privacy-loss cap (the social choice of Abowd & Schmutte, 2018) from
//!   which every season's *whole budget* is reserved up front. A season's
//!   ledger can never admit more than its budget, and the meta-ledger
//!   never reserves more than the cap, so the agency's lifetime loss is
//!   bounded by the cap however many seasons run, crash, or resume.
//!
//! [`Ledger`] enforces a total budget across a sequence of releases,
//! mirroring how a statistical agency would track cumulative privacy loss
//! across publications; [`MetaLedger`] is what `agency::AgencyStore`
//! persists to govern many seasons over one confidential snapshot.

use crate::definitions::PrivacyParams;
use crate::neighbors::NeighborKind;
use serde::{get_field, DeError, Deserialize, Serialize, Value};
use tabulate::MarginalSpec;

/// The privacy-loss cost of releasing one marginal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReleaseCost {
    /// Total ε charged.
    pub epsilon: f64,
    /// Total δ charged.
    pub delta: f64,
    /// The per-cell ε the mechanism must be instantiated with.
    pub per_cell_epsilon: f64,
    /// The sequential-composition multiplier that was applied
    /// (1 when parallel composition covers the whole marginal).
    pub multiplier: usize,
}

impl ReleaseCost {
    /// Cost of releasing every cell of `spec` with a per-cell
    /// `(α, ε, δ)`-mechanism under the given neighbor regime.
    ///
    /// * Workplace-only marginals: parallel composition over
    ///   establishments (Thm 7.4) → multiplier 1 under either regime.
    /// * Marginals with worker attributes:
    ///   * strong regime: cells with different worker values partition the
    ///     workers of each establishment → Thm 7.5 applies → multiplier 1;
    ///   * weak regime: Thm 7.5 fails; sequential composition over the
    ///     worker-attribute domain → multiplier `d`.
    pub fn for_marginal(
        spec: &MarginalSpec,
        per_cell: &PrivacyParams,
        regime: NeighborKind,
    ) -> Self {
        let multiplier = match (spec.has_worker_attrs(), regime) {
            (false, _) => 1,
            (true, NeighborKind::Strong) => 1,
            (true, NeighborKind::Weak) => spec.worker_domain_size(),
        };
        Self {
            epsilon: per_cell.epsilon * multiplier as f64,
            delta: per_cell.delta * multiplier as f64,
            per_cell_epsilon: per_cell.epsilon,
            multiplier,
        }
    }

    /// The number of sequentially-composed per-cell queries in a flow
    /// release: beginning employment `B`, job creation `JC`, and job
    /// destruction `JD` each get an independent noise draw per cell, while
    /// ending employment `E = B + JC − JD` is derived by post-processing
    /// and is free (Thm 7.3 composition; post-processing invariance).
    pub const FLOW_STATISTICS: usize = 3;

    /// Cost of releasing every cell of a *flow* marginal with a per-cell
    /// `(α, ε, δ)`-mechanism.
    ///
    /// Flow specs are workplace-only (the evaluator rejects worker
    /// attributes), so cells partition establishments and Thm 7.4 gives
    /// parallel composition across cells under either regime — per
    /// statistic. The three noised statistics (`B`, `JC`, `JD`) touch the
    /// same establishments and compose sequentially, so the multiplier is
    /// [`Self::FLOW_STATISTICS`] regardless of regime.
    pub fn for_flows(per_cell: &PrivacyParams) -> Self {
        let multiplier = Self::FLOW_STATISTICS;
        Self {
            epsilon: per_cell.epsilon * multiplier as f64,
            delta: per_cell.delta * multiplier as f64,
            per_cell_epsilon: per_cell.epsilon,
            multiplier,
        }
    }

    /// Invert [`Self::for_flows`]: per-cell-per-statistic parameters such
    /// that the whole flow release costs `total`.
    pub fn per_cell_for_flow_total(total: &PrivacyParams) -> PrivacyParams {
        let mut p = *total;
        p.epsilon = total.epsilon / Self::FLOW_STATISTICS as f64;
        p.delta = total.delta / Self::FLOW_STATISTICS as f64;
        p
    }

    /// Invert the accounting: per-cell parameters such that the *total*
    /// marginal release costs `total`, under the given regime.
    pub fn per_cell_for_total(
        spec: &MarginalSpec,
        total: &PrivacyParams,
        regime: NeighborKind,
    ) -> PrivacyParams {
        let multiplier = match (spec.has_worker_attrs(), regime) {
            (false, _) | (true, NeighborKind::Strong) => 1,
            (true, NeighborKind::Weak) => spec.worker_domain_size(),
        };
        let mut p = *total;
        p.epsilon = total.epsilon / multiplier as f64;
        p.delta = total.delta / multiplier as f64;
        p
    }
}

/// Errors from the budget ledger.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// The charge would exceed the remaining ε budget.
    EpsilonExhausted {
        /// Requested ε.
        requested: f64,
        /// Remaining ε.
        remaining: f64,
    },
    /// The charge would exceed the remaining δ budget.
    DeltaExhausted {
        /// Requested δ.
        requested: f64,
        /// Remaining δ.
        remaining: f64,
    },
    /// Charges must use the ledger's α (the guarantee is per-α).
    AlphaMismatch {
        /// The ledger's α.
        ledger: f64,
        /// The charge's α.
        charge: f64,
    },
    /// A charge whose ε or δ is negative (a budget *refund*) or non-finite
    /// (a NaN admitted into the spent totals would make every comparison
    /// against the budget false and disable enforcement forever).
    InvalidCharge {
        /// The offending ε.
        epsilon: f64,
        /// The offending δ.
        delta: f64,
    },
    /// A [`MetaLedger`] reservation re-using a season name. Every season
    /// holds exactly one reservation; reserving twice under one name would
    /// double-count (or worse, silently alias) a season's budget.
    DuplicateReservation {
        /// The already-reserved season name.
        name: String,
    },
    /// A closure event naming a season that holds no reservation — there
    /// is nothing to refund against.
    UnknownSeason {
        /// The unreserved season name.
        name: String,
    },
    /// A second closure of the same season. A season closes exactly once;
    /// a duplicate close-begin would refund the remainder twice.
    DuplicateClosure {
        /// The already-closing (or closed) season name.
        name: String,
    },
    /// A close-begin refund larger than the season's reservation. The
    /// refund is the *unspent remainder*, so it can never legitimately
    /// exceed what was reserved; a bigger refund would mint budget. The
    /// reported pair is the offending component (ε or δ).
    RefundExceedsReservation {
        /// The season being closed.
        name: String,
        /// The refund requested for the offending component.
        requested: f64,
        /// That component's reserved amount.
        reserved: f64,
    },
    /// A close-seal without a durably recorded close-begin for the season.
    /// Sealing is phase two of the two-phase refund; out of order it would
    /// credit an amount that was never frozen.
    NoPendingClosure {
        /// The season name.
        name: String,
    },
    /// A credit larger than the account's spent total. Crediting past zero
    /// would leave more budget available than the cap. The reported pair
    /// is the offending component (ε or δ).
    CreditExceedsSpent {
        /// The credit requested for the offending component.
        requested: f64,
        /// That component's spent total.
        spent: f64,
    },
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::EpsilonExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "epsilon budget exhausted: requested {requested}, remaining {remaining}"
            ),
            LedgerError::DeltaExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "delta budget exhausted: requested {requested}, remaining {remaining}"
            ),
            LedgerError::AlphaMismatch { ledger, charge } => {
                write!(f, "alpha mismatch: ledger {ledger}, charge {charge}")
            }
            LedgerError::InvalidCharge { epsilon, delta } => {
                write!(
                    f,
                    "invalid charge refused (epsilon {epsilon}, delta {delta}): \
                     privacy loss must be finite and non-negative"
                )
            }
            LedgerError::DuplicateReservation { name } => {
                write!(f, "season `{name}` already holds a budget reservation")
            }
            LedgerError::UnknownSeason { name } => {
                write!(f, "season `{name}` holds no budget reservation")
            }
            LedgerError::DuplicateClosure { name } => {
                write!(f, "season `{name}` is already closing or closed")
            }
            LedgerError::RefundExceedsReservation {
                name,
                requested,
                reserved,
            } => write!(
                f,
                "refund for season `{name}` exceeds its reservation: \
                 requested {requested}, reserved {reserved}"
            ),
            LedgerError::NoPendingClosure { name } => {
                write!(f, "season `{name}` has no pending close-begin to seal")
            }
            LedgerError::CreditExceedsSpent { requested, spent } => write!(
                f,
                "credit exceeds the spent total: requested {requested}, spent {spent}"
            ),
        }
    }
}

impl std::error::Error for LedgerError {}

/// One recorded charge.
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    /// Free-form description of the release.
    pub description: String,
    /// ε charged.
    pub epsilon: f64,
    /// δ charged.
    pub delta: f64,
}

/// A running sum with Neumaier (improved Kahan) compensation.
///
/// A publication season is a long sequence of small charges; naive `+=`
/// accumulates rounding drift that either leaks budget (spend
/// under-counted) or strands it (over-counted). The compensated sum keeps
/// the error of the whole sequence at one ulp of the total, independent of
/// its length.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CompensatedSum {
    sum: f64,
    compensation: f64,
}

impl CompensatedSum {
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.compensation += (self.sum - t) + x;
        } else {
            self.compensation += (x - t) + self.sum;
        }
        self.sum = t;
    }

    fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

/// Relative budget tolerance: the total spend may exceed the budget by at
/// most `LEDGER_REL_TOL × budget` — *cumulatively*, over the whole life of
/// the ledger, not per charge. (An absolute per-charge tolerance would
/// admit ε ≤ tol charges forever once the budget is exhausted: an
/// unbounded leak via repeated tiny releases.)
pub const LEDGER_REL_TOL: f64 = 1e-9;

/// The budget arithmetic core every accountant level shares: a
/// `(α, ε, δ)` cap with Neumaier-compensated spent totals and the
/// fail-closed admission rule.
///
/// [`Ledger`] (per-season release charges) and [`MetaLedger`]
/// (agency-level season reservations) are both thin record-keeping layers
/// over this account, so a charge admitted at either level obeys exactly
/// the same rules: finite, non-negative, and within one relative
/// [`LEDGER_REL_TOL`] of the cap over the account's whole lifetime — with
/// a NaN cap refusing everything rather than admitting everything.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetAccount {
    budget: PrivacyParams,
    spent_epsilon: CompensatedSum,
    spent_delta: CompensatedSum,
}

impl BudgetAccount {
    /// Open an account holding `budget`.
    pub fn new(budget: PrivacyParams) -> Self {
        Self {
            budget,
            spent_epsilon: CompensatedSum::default(),
            spent_delta: CompensatedSum::default(),
        }
    }

    /// The total budget.
    pub fn budget(&self) -> &PrivacyParams {
        &self.budget
    }

    /// Total ε admitted so far (compensated sum).
    pub fn spent_epsilon(&self) -> f64 {
        self.spent_epsilon.value()
    }

    /// Total δ admitted so far (compensated sum).
    pub fn spent_delta(&self) -> f64 {
        self.spent_delta.value()
    }

    /// Remaining ε.
    pub fn remaining_epsilon(&self) -> f64 {
        (self.budget.epsilon - self.spent_epsilon.value()).max(0.0)
    }

    /// Remaining δ.
    pub fn remaining_delta(&self) -> f64 {
        (self.budget.delta - self.spent_delta.value()).max(0.0)
    }

    /// Admit a charge, mutating the spent totals only when the projected
    /// totals stay within one relative tolerance of the budget.
    ///
    /// A NaN charge admitted into the spent totals would make every later
    /// budget comparison false and disable enforcement forever, so
    /// non-finite (and negative) charges are refused outright; and with
    /// finite non-negative charges the only possible NaN below is a NaN
    /// *budget*, which must refuse, not admit — the account fails closed.
    pub fn admit(&mut self, epsilon: f64, delta: f64) -> Result<(), LedgerError> {
        let invalid = |x: f64| !x.is_finite() || x < 0.0;
        if invalid(epsilon) || invalid(delta) {
            return Err(LedgerError::InvalidCharge { epsilon, delta });
        }
        let mut projected_epsilon = self.spent_epsilon;
        projected_epsilon.add(epsilon);
        let cap = self.budget.epsilon * (1.0 + LEDGER_REL_TOL);
        if cap.is_nan() || projected_epsilon.value() > cap {
            return Err(LedgerError::EpsilonExhausted {
                requested: epsilon,
                remaining: self.remaining_epsilon(),
            });
        }
        let mut projected_delta = self.spent_delta;
        projected_delta.add(delta);
        let cap = self.budget.delta * (1.0 + LEDGER_REL_TOL);
        if cap.is_nan() || projected_delta.value() > cap {
            return Err(LedgerError::DeltaExhausted {
                requested: delta,
                remaining: self.remaining_delta(),
            });
        }
        self.spent_epsilon = projected_epsilon;
        self.spent_delta = projected_delta;
        Ok(())
    }

    /// Return previously admitted budget to the account, mutating the
    /// spent totals only when the projected totals stay non-negative
    /// (within one relative tolerance of zero).
    ///
    /// This is the refund arithmetic behind [`MetaLedger`] season
    /// closures: a credit is the mirror of [`admit`](Self::admit), with
    /// the same fail-closed posture — non-finite and negative credits are
    /// refused outright, and a credit that would push the spent totals
    /// below zero (i.e. mint budget past the cap) is refused with
    /// [`LedgerError::CreditExceedsSpent`].
    pub fn credit(&mut self, epsilon: f64, delta: f64) -> Result<(), LedgerError> {
        let invalid = |x: f64| !x.is_finite() || x < 0.0;
        if invalid(epsilon) || invalid(delta) {
            return Err(LedgerError::InvalidCharge { epsilon, delta });
        }
        let mut projected_epsilon = self.spent_epsilon;
        projected_epsilon.add(-epsilon);
        let floor = -self.budget.epsilon.abs() * LEDGER_REL_TOL;
        // A NaN projection (NaN budget) must refuse, not admit.
        let below = |x: f64, floor: f64| x.is_nan() || x < floor;
        if below(projected_epsilon.value(), floor) {
            return Err(LedgerError::CreditExceedsSpent {
                requested: epsilon,
                spent: self.spent_epsilon(),
            });
        }
        let mut projected_delta = self.spent_delta;
        projected_delta.add(-delta);
        let floor = -self.budget.delta.abs() * LEDGER_REL_TOL;
        if below(projected_delta.value(), floor) {
            return Err(LedgerError::CreditExceedsSpent {
                requested: delta,
                spent: self.spent_delta(),
            });
        }
        self.spent_epsilon = projected_epsilon;
        self.spent_delta = projected_delta;
        Ok(())
    }

    /// Charges must carry the account's α: the composition theorems (and
    /// therefore the meaning of a summed ε) are per-α.
    fn check_alpha(&self, alpha: f64) -> Result<(), LedgerError> {
        if (alpha - self.budget.alpha).abs() > 1e-12 {
            return Err(LedgerError::AlphaMismatch {
                ledger: self.budget.alpha,
                charge: alpha,
            });
        }
        Ok(())
    }
}

/// A cumulative privacy-loss ledger with a hard total budget.
///
/// A ledger is never stored as such: a season store persists its budget,
/// its spent totals and one commit record per charge, and rebuilds the
/// ledger by [*replaying*](Self::replay) the records' costs through the
/// same compensated budget arithmetic — refusing records that overdraw
/// the budget and recorded totals that disagree with the replay, so a
/// tampered or corrupted file cannot resume a season with more budget
/// than was actually left (see [`crate::store`]).
///
/// ```
/// use eree_core::{Ledger, PrivacyParams, ReleaseCost};
/// use eree_core::neighbors::NeighborKind;
/// use tabulate::workload1;
///
/// let mut ledger = Ledger::new(PrivacyParams::pure(0.1, 4.0));
/// let per_cell = PrivacyParams::pure(0.1, 2.0);
/// let cost = ReleaseCost::for_marginal(&workload1(), &per_cell, NeighborKind::Strong);
/// // A workplace-only marginal parallel-composes: one epsilon total.
/// assert_eq!(cost.multiplier, 1);
/// ledger.charge("Q1 tabulation", &per_cell, &cost).unwrap();
/// ledger.charge("Q2 tabulation", &per_cell, &cost).unwrap();
/// // The budget is now exhausted; further releases are refused.
/// assert!(ledger.charge("Q3 tabulation", &per_cell, &cost).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct Ledger {
    account: BudgetAccount,
    entries: Vec<LedgerEntry>,
}

impl Ledger {
    /// Open a ledger with a total `(α, ε, δ)` budget.
    pub fn new(budget: PrivacyParams) -> Self {
        Self {
            account: BudgetAccount::new(budget),
            entries: Vec::new(),
        }
    }

    /// The total budget.
    pub fn budget(&self) -> &PrivacyParams {
        self.account.budget()
    }

    /// Total ε spent so far (compensated sum over all entries).
    pub fn spent_epsilon(&self) -> f64 {
        self.account.spent_epsilon()
    }

    /// Total δ spent so far (compensated sum over all entries).
    pub fn spent_delta(&self) -> f64 {
        self.account.spent_delta()
    }

    /// Remaining ε.
    pub fn remaining_epsilon(&self) -> f64 {
        self.account.remaining_epsilon()
    }

    /// Remaining δ.
    pub fn remaining_delta(&self) -> f64 {
        self.account.remaining_delta()
    }

    /// Record a charge with α-consistency and budget checks (sequential
    /// composition: charges add).
    ///
    /// Admission is [`BudgetAccount::admit`] on the *projected total*: the
    /// charge is admitted iff `spent + cost ≤ budget × (1 + LEDGER_REL_TOL)`
    /// for both ε and δ. The tolerance is relative and one-shot — however
    /// many charges are made, the lifetime spend can never exceed the
    /// budget by more than one relative tolerance.
    pub fn charge(
        &mut self,
        description: impl Into<String>,
        params: &PrivacyParams,
        cost: &ReleaseCost,
    ) -> Result<(), LedgerError> {
        self.account.check_alpha(params.alpha)?;
        self.account.admit(cost.epsilon, cost.delta)?;
        self.entries.push(LedgerEntry {
            description: description.into(),
            epsilon: cost.epsilon,
            delta: cost.delta,
        });
        Ok(())
    }

    /// Would [`charge`](Self::charge) admit this cost? Exactly the same
    /// α-consistency and admission arithmetic, run on a copy of the
    /// account — nothing is recorded either way. This is the engine's
    /// admission dry-run: it lets fallible work (e.g. a truth-store load)
    /// run between the decision and the charge without ever stranding a
    /// charge that produced no artifact, and it costs two compensated
    /// sums, not a clone of the entry log.
    pub fn can_charge(
        &self,
        params: &PrivacyParams,
        cost: &ReleaseCost,
    ) -> Result<(), LedgerError> {
        self.account.check_alpha(params.alpha)?;
        self.account.clone().admit(cost.epsilon, cost.delta)
    }

    /// Rebuild a ledger by replaying recorded entries against `budget`,
    /// with exactly the arithmetic [`charge`](Self::charge) uses — the
    /// resume path of a persisted publication season. Fails if any entry
    /// would overdraw the budget (a budget-inconsistent snapshot).
    pub fn replay(budget: PrivacyParams, entries: &[LedgerEntry]) -> Result<Self, LedgerError> {
        let mut ledger = Ledger::new(budget);
        for entry in entries {
            ledger.account.admit(entry.epsilon, entry.delta)?;
            ledger.entries.push(entry.clone());
        }
        Ok(ledger)
    }

    /// All recorded charges.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }
}

/// One season's budget reservation in a [`MetaLedger`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeasonReservation {
    /// The season's unique name (its directory name under an agency).
    pub name: String,
    /// The season-long budget reserved from the agency cap. The season's
    /// [`Ledger`] must carry exactly this budget.
    pub budget: PrivacyParams,
}

/// One recorded event in a [`MetaLedger`]'s append-only log.
///
/// The log is chronological because replay order carries meaning: a
/// reservation made *after* a sealed closure may legitimately spend the
/// refunded budget, so replaying "all reservations, then all closures"
/// would refuse histories the live ledger admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaEvent {
    /// A season reserved its whole budget from the cap.
    Reserve(SeasonReservation),
    /// Phase one of a season closure: the unspent remainder is durably
    /// frozen. The refund is *not yet spendable* — a crash here leaves
    /// the budget conservatively reserved (fail-closed).
    CloseBegin {
        /// The closing season.
        name: String,
        /// The frozen ε refund (reserved ε minus spent ε, clamped ≥ 0).
        refund_epsilon: f64,
        /// The frozen δ refund.
        refund_delta: f64,
    },
    /// Phase two: the frozen refund is credited back to the cap and the
    /// closure becomes final.
    CloseSeal {
        /// The sealed season.
        name: String,
    },
}

impl Serialize for MetaEvent {
    fn to_value(&self) -> Value {
        match self {
            MetaEvent::Reserve(r) => Value::Map(vec![
                ("event".to_string(), Value::Str("reserve".to_string())),
                ("name".to_string(), r.name.to_value()),
                ("budget".to_string(), r.budget.to_value()),
            ]),
            MetaEvent::CloseBegin {
                name,
                refund_epsilon,
                refund_delta,
            } => Value::Map(vec![
                ("event".to_string(), Value::Str("close_begin".to_string())),
                ("name".to_string(), name.to_value()),
                ("refund_epsilon".to_string(), refund_epsilon.to_value()),
                ("refund_delta".to_string(), refund_delta.to_value()),
            ]),
            MetaEvent::CloseSeal { name } => Value::Map(vec![
                ("event".to_string(), Value::Str("close_seal".to_string())),
                ("name".to_string(), name.to_value()),
            ]),
        }
    }
}

impl Deserialize for MetaEvent {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let kind = String::from_value(get_field(v, "event")?)?;
        let name = String::from_value(get_field(v, "name")?)?;
        match kind.as_str() {
            "reserve" => Ok(MetaEvent::Reserve(SeasonReservation {
                name,
                budget: PrivacyParams::from_value(get_field(v, "budget")?)?,
            })),
            "close_begin" => Ok(MetaEvent::CloseBegin {
                name,
                refund_epsilon: f64::from_value(get_field(v, "refund_epsilon")?)?,
                refund_delta: f64::from_value(get_field(v, "refund_delta")?)?,
            }),
            "close_seal" => Ok(MetaEvent::CloseSeal { name }),
            other => Err(DeError::new(format!("unknown meta-ledger event `{other}`"))),
        }
    }
}

/// A season's closure record, materialized from the event log.
#[derive(Debug, Clone, PartialEq)]
pub struct SeasonClosure {
    /// The closing (or closed) season.
    pub name: String,
    /// The frozen ε refund.
    pub refund_epsilon: f64,
    /// The frozen δ refund.
    pub refund_delta: f64,
    /// Whether phase two ran: `false` while only the close-begin is on
    /// record (refund frozen but not yet spendable), `true` once sealed.
    pub sealed: bool,
}

/// The agency-level accountant: a global privacy-loss cap from which every
/// season's whole budget is **reserved up front**.
///
/// Reservation — not per-release pass-through — is what makes the
/// hierarchy crash-safe: once a season's budget is reserved (durably,
/// before its directory exists), the agency's worst case is already
/// accounted for, so a season crashing, resuming, or running concurrently
/// in another process can never push the agency past its cap. The season's
/// own [`Ledger`] then enforces the reserved budget charge-by-charge with
/// the same [`BudgetAccount`] arithmetic.
///
/// A `MetaLedger` deserializes by *replaying* its event log and
/// cross-checking the recorded totals, so a tampered snapshot cannot
/// resume an agency with more cap than was actually left.
///
/// ```
/// use eree_core::{MetaLedger, PrivacyParams};
///
/// let mut meta = MetaLedger::new(PrivacyParams::pure(0.1, 16.0));
/// meta.reserve("annual", PrivacyParams::pure(0.1, 13.0)).unwrap();
/// meta.reserve("quarterly", PrivacyParams::pure(0.1, 3.0)).unwrap();
/// // The cap is exhausted: no further season can be opened.
/// assert!(meta.reserve("extra", PrivacyParams::pure(0.1, 0.5)).is_err());
/// assert!(meta.remaining_epsilon() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct MetaLedger {
    account: BudgetAccount,
    events: Vec<MetaEvent>,
    reservations: Vec<SeasonReservation>,
    closures: Vec<SeasonClosure>,
}

impl MetaLedger {
    /// Open a meta-ledger with a global `(α, ε, δ)` cap.
    pub fn new(cap: PrivacyParams) -> Self {
        Self {
            account: BudgetAccount::new(cap),
            events: Vec::new(),
            reservations: Vec::new(),
            closures: Vec::new(),
        }
    }

    /// The global cap.
    pub fn cap(&self) -> &PrivacyParams {
        self.account.budget()
    }

    /// Total ε reserved by seasons so far.
    pub fn reserved_epsilon(&self) -> f64 {
        self.account.spent_epsilon()
    }

    /// Total δ reserved by seasons so far.
    pub fn reserved_delta(&self) -> f64 {
        self.account.spent_delta()
    }

    /// ε still available for new seasons.
    pub fn remaining_epsilon(&self) -> f64 {
        self.account.remaining_epsilon()
    }

    /// δ still available for new seasons.
    pub fn remaining_delta(&self) -> f64 {
        self.account.remaining_delta()
    }

    /// Total ε refunded by sealed season closures so far. Pending (begun
    /// but unsealed) refunds are *not* counted: until the seal lands, the
    /// budget stays conservatively reserved.
    pub fn refunded_epsilon(&self) -> f64 {
        let mut sum = CompensatedSum::default();
        for c in self.closures.iter().filter(|c| c.sealed) {
            sum.add(c.refund_epsilon);
        }
        sum.value()
    }

    /// Total δ refunded by sealed season closures so far.
    pub fn refunded_delta(&self) -> f64 {
        let mut sum = CompensatedSum::default();
        for c in self.closures.iter().filter(|c| c.sealed) {
            sum.add(c.refund_delta);
        }
        sum.value()
    }

    /// All reservations, in the order they were made.
    pub fn reservations(&self) -> &[SeasonReservation] {
        &self.reservations
    }

    /// The reservation held by season `name`, if any.
    pub fn reservation(&self, name: &str) -> Option<&SeasonReservation> {
        self.reservations.iter().find(|r| r.name == name)
    }

    /// The full chronological event log (reservations and closures).
    pub fn events(&self) -> &[MetaEvent] {
        &self.events
    }

    /// All closure records, in close-begin order.
    pub fn closures(&self) -> &[SeasonClosure] {
        &self.closures
    }

    /// The closure record for season `name`, if any (pending or sealed).
    pub fn closure(&self, name: &str) -> Option<&SeasonClosure> {
        self.closures.iter().find(|c| c.name == name)
    }

    /// Reserve `budget` for a new season named `name`.
    ///
    /// Refused — before anything is recorded — when the name is already
    /// reserved, the budget's α differs from the cap's, the budget is
    /// non-finite or negative, or the projected reserved totals would
    /// exceed the cap (same [`BudgetAccount::admit`] rule as release
    /// charges: relative one-shot tolerance, fail-closed on NaN).
    pub fn reserve(
        &mut self,
        name: impl Into<String>,
        budget: PrivacyParams,
    ) -> Result<(), LedgerError> {
        let name = name.into();
        if self.reservation(&name).is_some() {
            return Err(LedgerError::DuplicateReservation { name });
        }
        self.account.check_alpha(budget.alpha)?;
        self.account.admit(budget.epsilon, budget.delta)?;
        let reservation = SeasonReservation { name, budget };
        self.events.push(MetaEvent::Reserve(reservation.clone()));
        self.reservations.push(reservation);
        Ok(())
    }

    /// Phase one of closing season `name`: durably freeze its refund (the
    /// unspent remainder the caller computed from the season's ledger).
    ///
    /// Nothing is credited yet — a crash after this record leaves the
    /// refund frozen but unspendable, which is the fail-closed direction.
    /// Refused when the season holds no reservation, already has a closure
    /// record, the refund is non-finite or negative, or the refund exceeds
    /// the reservation (which would mint budget).
    pub fn close_begin(
        &mut self,
        name: impl Into<String>,
        refund_epsilon: f64,
        refund_delta: f64,
    ) -> Result<(), LedgerError> {
        let name = name.into();
        let Some(reservation) = self.reservation(&name) else {
            return Err(LedgerError::UnknownSeason { name });
        };
        if self.closure(&name).is_some() {
            return Err(LedgerError::DuplicateClosure { name });
        }
        let invalid = |x: f64| !x.is_finite() || x < 0.0;
        if invalid(refund_epsilon) || invalid(refund_delta) {
            return Err(LedgerError::InvalidCharge {
                epsilon: refund_epsilon,
                delta: refund_delta,
            });
        }
        let budget = reservation.budget;
        if refund_epsilon > budget.epsilon * (1.0 + LEDGER_REL_TOL) {
            return Err(LedgerError::RefundExceedsReservation {
                name,
                requested: refund_epsilon,
                reserved: budget.epsilon,
            });
        }
        if refund_delta > budget.delta * (1.0 + LEDGER_REL_TOL) {
            return Err(LedgerError::RefundExceedsReservation {
                name,
                requested: refund_delta,
                reserved: budget.delta,
            });
        }
        self.events.push(MetaEvent::CloseBegin {
            name: name.clone(),
            refund_epsilon,
            refund_delta,
        });
        self.closures.push(SeasonClosure {
            name,
            refund_epsilon,
            refund_delta,
            sealed: false,
        });
        Ok(())
    }

    /// Phase two of closing season `name`: credit the frozen refund back
    /// to the cap and seal the closure.
    ///
    /// Refused without a pending [`close_begin`](Self::close_begin) — the
    /// credited amount must be exactly the durably frozen one.
    pub fn close_seal(&mut self, name: &str) -> Result<(), LedgerError> {
        let Some(index) = self.closures.iter().position(|c| c.name == name) else {
            return Err(LedgerError::NoPendingClosure {
                name: name.to_string(),
            });
        };
        if self.closures[index].sealed {
            return Err(LedgerError::NoPendingClosure {
                name: name.to_string(),
            });
        }
        let (refund_epsilon, refund_delta) = {
            let c = &self.closures[index];
            (c.refund_epsilon, c.refund_delta)
        };
        self.account.credit(refund_epsilon, refund_delta)?;
        self.events.push(MetaEvent::CloseSeal {
            name: name.to_string(),
        });
        self.closures[index].sealed = true;
        Ok(())
    }

    /// Rebuild a meta-ledger by replaying a full chronological event log
    /// against `cap`, with exactly the arithmetic the live mutators use.
    /// Order matters: a reservation recorded after a sealed closure may
    /// spend the refunded budget, and replay honors that.
    pub fn replay_events(cap: PrivacyParams, events: &[MetaEvent]) -> Result<Self, LedgerError> {
        let mut meta = MetaLedger::new(cap);
        for event in events {
            match event {
                MetaEvent::Reserve(r) => meta.reserve(r.name.clone(), r.budget)?,
                MetaEvent::CloseBegin {
                    name,
                    refund_epsilon,
                    refund_delta,
                } => meta.close_begin(name.clone(), *refund_epsilon, *refund_delta)?,
                MetaEvent::CloseSeal { name } => meta.close_seal(name)?,
            }
        }
        Ok(meta)
    }
}

impl Serialize for MetaLedger {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("cap".to_string(), self.cap().to_value()),
            ("events".to_string(), self.events.to_value()),
            (
                "reserved_epsilon".to_string(),
                self.reserved_epsilon().to_value(),
            ),
            (
                "reserved_delta".to_string(),
                self.reserved_delta().to_value(),
            ),
        ])
    }
}

impl Deserialize for MetaLedger {
    /// Deserialize by replay: reserved totals are recomputed from the
    /// event log (never trusted from the snapshot) and cross-checked
    /// against the recorded totals. A snapshot without an event log is
    /// refused.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let cap = PrivacyParams::from_value(get_field(v, "cap")?)?;
        let events = Vec::<MetaEvent>::from_value(get_field(v, "events")?)?;
        let meta = MetaLedger::replay_events(cap, &events)
            .map_err(|e| DeError::new(format!("cap-inconsistent meta-ledger snapshot: {e}")))?;
        let recorded_epsilon = f64::from_value(get_field(v, "reserved_epsilon")?)?;
        let recorded_delta = f64::from_value(get_field(v, "reserved_delta")?)?;
        if recorded_epsilon != meta.reserved_epsilon() || recorded_delta != meta.reserved_delta() {
            return Err(DeError::new(format!(
                "meta-ledger snapshot totals (eps {recorded_epsilon}, delta {recorded_delta}) \
                 disagree with event replay (eps {}, delta {})",
                meta.reserved_epsilon(),
                meta.reserved_delta()
            )));
        }
        Ok(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabulate::{workload1, workload3};

    #[test]
    fn workplace_only_marginal_costs_one_epsilon() {
        let per_cell = PrivacyParams::pure(0.1, 2.0);
        for regime in [NeighborKind::Strong, NeighborKind::Weak] {
            let cost = ReleaseCost::for_marginal(&workload1(), &per_cell, regime);
            assert_eq!(cost.multiplier, 1);
            assert!((cost.epsilon - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn weak_worker_marginal_multiplies_by_domain() {
        let per_cell = PrivacyParams::approximate(0.1, 0.5, 0.001);
        let cost = ReleaseCost::for_marginal(&workload3(), &per_cell, NeighborKind::Weak);
        assert_eq!(cost.multiplier, 8, "sex x education domain");
        assert!((cost.epsilon - 4.0).abs() < 1e-12);
        assert!((cost.delta - 0.008).abs() < 1e-12);
        // Strong regime gets Thm 7.5 parallel composition.
        let strong = ReleaseCost::for_marginal(&workload3(), &per_cell, NeighborKind::Strong);
        assert_eq!(strong.multiplier, 1);
    }

    #[test]
    fn flow_release_costs_three_statistics() {
        let per_cell = PrivacyParams::approximate(0.1, 0.5, 0.001);
        let cost = ReleaseCost::for_flows(&per_cell);
        assert_eq!(cost.multiplier, 3, "B, JC, JD are noised; E is derived");
        assert!((cost.epsilon - 1.5).abs() < 1e-12);
        assert!((cost.delta - 0.003).abs() < 1e-12);
        let total = PrivacyParams::approximate(0.1, 1.5, 0.003);
        let inverted = ReleaseCost::per_cell_for_flow_total(&total);
        assert!((inverted.epsilon - 0.5).abs() < 1e-12);
        assert!((inverted.delta - 0.001).abs() < 1e-12);
    }

    #[test]
    fn per_cell_for_total_inverts_cost() {
        let total = PrivacyParams::approximate(0.1, 4.0, 0.04);
        let per_cell = ReleaseCost::per_cell_for_total(&workload3(), &total, NeighborKind::Weak);
        assert!((per_cell.epsilon - 0.5).abs() < 1e-12);
        assert!((per_cell.delta - 0.005).abs() < 1e-12);
        let roundtrip = ReleaseCost::for_marginal(&workload3(), &per_cell, NeighborKind::Weak);
        assert!((roundtrip.epsilon - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ledger_sequential_composition() {
        let mut ledger = Ledger::new(PrivacyParams::pure(0.1, 4.0));
        let params = PrivacyParams::pure(0.1, 1.5);
        let cost = ReleaseCost::for_marginal(&workload1(), &params, NeighborKind::Strong);
        ledger.charge("q1 release", &params, &cost).unwrap();
        ledger.charge("q2 release", &params, &cost).unwrap();
        assert!((ledger.remaining_epsilon() - 1.0).abs() < 1e-12);
        // Third charge exceeds the budget.
        let err = ledger.charge("q3 release", &params, &cost).unwrap_err();
        assert!(matches!(err, LedgerError::EpsilonExhausted { .. }));
        assert_eq!(ledger.entries().len(), 2);
    }

    #[test]
    fn ledger_rejects_alpha_mismatch() {
        let mut ledger = Ledger::new(PrivacyParams::pure(0.1, 4.0));
        let params = PrivacyParams::pure(0.2, 1.0);
        let cost = ReleaseCost::for_marginal(&workload1(), &params, NeighborKind::Strong);
        assert!(matches!(
            ledger.charge("bad alpha", &params, &cost),
            Err(LedgerError::AlphaMismatch { .. })
        ));
    }

    /// Regression: the old ledger admitted any charge up to
    /// `remaining + 1e-9` with an *absolute* tolerance, so once the budget
    /// was exhausted, ε ≤ 1e-9 charges succeeded forever — an unbounded
    /// leak via repeated tiny releases. The relative one-shot tolerance
    /// caps the lifetime overdraft at `LEDGER_REL_TOL × budget` total.
    #[test]
    fn exhausted_ledger_rejects_repeated_tiny_charges() {
        let budget = PrivacyParams::pure(0.1, 4.0);
        let mut ledger = Ledger::new(budget);
        let params = PrivacyParams::pure(0.1, 4.0);
        let full = ReleaseCost::for_marginal(&workload1(), &params, NeighborKind::Strong);
        ledger.charge("exhaust", &params, &full).unwrap();

        let tiny = ReleaseCost {
            epsilon: 1e-9,
            delta: 0.0,
            per_cell_epsilon: 1e-9,
            multiplier: 1,
        };
        let tiny_params = PrivacyParams::pure(0.1, 1e-9);
        let mut admitted = 0usize;
        let mut refused = false;
        for i in 0..10_000 {
            match ledger.charge(format!("tiny {i}"), &tiny_params, &tiny) {
                Ok(()) => admitted += 1,
                Err(LedgerError::EpsilonExhausted { .. }) => {
                    refused = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(
            refused,
            "tiny charges were admitted {admitted} times without refusal"
        );
        // Lifetime spend never exceeds the budget by more than one
        // relative tolerance.
        assert!(ledger.spent_epsilon() <= budget.epsilon * (1.0 + LEDGER_REL_TOL));
    }

    #[test]
    fn long_seasons_do_not_drift() {
        // 1e6 charges of ε = budget / 1e6: naive `+=` drifts by far more
        // than an ulp; the compensated sum lands within one ulp of the
        // budget, so the *entire* budget is usable — no stranded remainder
        // and no leak.
        let budget = 4.0;
        let n = 1_000_000u64;
        let step = budget / n as f64;
        let mut ledger = Ledger::new(PrivacyParams::pure(0.1, budget));
        let params = PrivacyParams::pure(0.1, step);
        let cost = ReleaseCost {
            epsilon: step,
            delta: 0.0,
            per_cell_epsilon: step,
            multiplier: 1,
        };
        for i in 0..n {
            ledger
                .charge(format!("slice {i}"), &params, &cost)
                .unwrap_or_else(|e| panic!("slice {i} refused: {e}"));
        }
        let naive: f64 = (0..n).map(|_| step).sum();
        assert!(
            (naive - budget).abs() > 1e-12,
            "naive summation should visibly drift for this to be a regression test"
        );
        assert!((ledger.spent_epsilon() - budget).abs() < 1e-12);
        assert!(ledger.remaining_epsilon() < 1e-12);
    }

    #[test]
    fn negative_and_non_finite_charges_are_refused() {
        let mut ledger = Ledger::new(PrivacyParams::pure(0.1, 4.0));
        let params = PrivacyParams::pure(0.1, 1.0);
        let cost = |epsilon: f64, delta: f64| ReleaseCost {
            epsilon,
            delta,
            per_cell_epsilon: epsilon,
            multiplier: 1,
        };
        // A negative charge would *refund* budget.
        assert!(matches!(
            ledger.charge("refund attempt", &params, &cost(-1.0, 0.0)),
            Err(LedgerError::InvalidCharge { .. })
        ));
        // Regression: a NaN charge used to be admitted (NaN comparisons
        // are all false), poisoning the spent totals so that every later
        // charge of any size was admitted forever.
        for bad in [f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ledger.charge("poison attempt", &params, &cost(bad, 0.0)),
                Err(LedgerError::InvalidCharge { .. })
            ));
            assert!(matches!(
                ledger.charge("poison attempt", &params, &cost(0.5, bad)),
                Err(LedgerError::InvalidCharge { .. })
            ));
        }
        assert!(ledger.entries().is_empty());
        assert_eq!(ledger.spent_epsilon(), 0.0);
        // Enforcement still works after the refused attempts.
        ledger.charge("fine", &params, &cost(4.0, 0.0)).unwrap();
        assert!(ledger.charge("over", &params, &cost(0.5, 0.0)).is_err());
    }

    #[test]
    fn replay_matches_live_charging() {
        let mut live = Ledger::new(PrivacyParams::pure(0.1, 4.0));
        let params = PrivacyParams::pure(0.1, 0.3);
        let cost = ReleaseCost::for_marginal(&workload1(), &params, NeighborKind::Strong);
        for i in 0..13 {
            live.charge(format!("r{i}"), &params, &cost).unwrap();
        }
        let replayed = Ledger::replay(*live.budget(), live.entries()).unwrap();
        assert_eq!(replayed.spent_epsilon(), live.spent_epsilon());
        assert_eq!(replayed.remaining_epsilon(), live.remaining_epsilon());
        assert_eq!(replayed.entries().len(), live.entries().len());
    }

    #[test]
    fn meta_ledger_reserves_and_exhausts() {
        let mut meta = MetaLedger::new(PrivacyParams::approximate(0.1, 10.0, 0.05));
        meta.reserve("annual", PrivacyParams::approximate(0.1, 6.0, 0.03))
            .unwrap();
        meta.reserve("quarterly", PrivacyParams::pure(0.1, 4.0))
            .unwrap();
        assert!(meta.remaining_epsilon() < 1e-9);
        assert!((meta.remaining_delta() - 0.02).abs() < 1e-12);
        // Cap exhausted in epsilon: refused.
        assert!(matches!(
            meta.reserve("extra", PrivacyParams::pure(0.1, 0.1)),
            Err(LedgerError::EpsilonExhausted { .. })
        ));
        // Duplicate names refused before any arithmetic.
        assert!(matches!(
            meta.reserve("annual", PrivacyParams::pure(0.1, 1.0)),
            Err(LedgerError::DuplicateReservation { .. })
        ));
        // Alpha must match the cap's.
        assert!(matches!(
            meta.reserve("wrong-alpha", PrivacyParams::pure(0.2, 1.0)),
            Err(LedgerError::AlphaMismatch { .. })
        ));
        // Non-finite budgets are refused outright (the constructors
        // already reject them; a corrupted snapshot is the only way in).
        let mut poison = PrivacyParams::pure(0.1, 1.0);
        poison.epsilon = f64::NAN;
        assert!(matches!(
            meta.reserve("poison", poison),
            Err(LedgerError::InvalidCharge { .. })
        ));
        assert_eq!(meta.reservations().len(), 2);
        assert_eq!(
            meta.reservation("quarterly").unwrap().budget,
            PrivacyParams::pure(0.1, 4.0)
        );
    }

    #[test]
    fn meta_ledger_json_roundtrip_and_tamper_refusal() {
        let mut meta = MetaLedger::new(PrivacyParams::pure(0.1, 8.0));
        meta.reserve("s1", PrivacyParams::pure(0.1, 5.0)).unwrap();
        meta.reserve("s2", PrivacyParams::pure(0.1, 2.0)).unwrap();
        let json = serde_json::to_string(&meta).unwrap();
        let back: MetaLedger = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cap(), meta.cap());
        assert_eq!(back.reservations(), meta.reservations());
        assert_eq!(back.reserved_epsilon(), meta.reserved_epsilon());
        // Shrinking the cap below the reservations: replay refuses. (The
        // cap serializes first, so the first "epsilon" hit is the cap's.)
        let tampered = json.replacen("\"epsilon\":8.0", "\"epsilon\":4.0", 1);
        assert_ne!(tampered, json);
        assert!(serde_json::from_str::<MetaLedger>(&tampered).is_err());
        // Fudging the recorded totals: cross-check refuses.
        let tampered = json.replace("\"reserved_epsilon\":7.0", "\"reserved_epsilon\":1.0");
        assert_ne!(tampered, json);
        assert!(serde_json::from_str::<MetaLedger>(&tampered).is_err());
    }

    #[test]
    fn meta_ledger_replay_matches_live_reservation() {
        let mut live = MetaLedger::new(PrivacyParams::pure(0.1, 4.0));
        for i in 0..13 {
            live.reserve(format!("s{i}"), PrivacyParams::pure(0.1, 0.3))
                .unwrap();
        }
        let replayed = MetaLedger::replay_events(*live.cap(), live.events()).unwrap();
        assert_eq!(replayed.reserved_epsilon(), live.reserved_epsilon());
        assert_eq!(replayed.remaining_epsilon(), live.remaining_epsilon());
        assert_eq!(replayed.reservations(), live.reservations());
    }

    #[test]
    fn close_season_two_phase_refund() {
        let mut meta = MetaLedger::new(PrivacyParams::pure(0.1, 8.0));
        meta.reserve("s1", PrivacyParams::pure(0.1, 5.0)).unwrap();
        meta.reserve("s2", PrivacyParams::pure(0.1, 3.0)).unwrap();
        assert!(meta.remaining_epsilon() < 1e-9);

        // Phase one freezes the refund without making it spendable.
        meta.close_begin("s1", 4.0, 0.0).unwrap();
        assert!(
            meta.remaining_epsilon() < 1e-9,
            "pending refund fails closed"
        );
        assert!(!meta.closure("s1").unwrap().sealed);
        assert_eq!(meta.refunded_epsilon(), 0.0);

        // Phase two credits exactly the frozen amount.
        meta.close_seal("s1").unwrap();
        assert!((meta.remaining_epsilon() - 4.0).abs() < 1e-12);
        assert!((meta.refunded_epsilon() - 4.0).abs() < 1e-12);
        assert!(meta.closure("s1").unwrap().sealed);

        // The refunded budget is reservable by a later season.
        meta.reserve("s3", PrivacyParams::pure(0.1, 4.0)).unwrap();
        assert!(meta.remaining_epsilon() < 1e-9);

        // A closed name stays reserved: no aliasing re-reservation.
        assert!(matches!(
            meta.reserve("s1", PrivacyParams::pure(0.1, 0.5)),
            Err(LedgerError::DuplicateReservation { .. })
        ));
    }

    #[test]
    fn close_season_refuses_bad_transitions() {
        let mut meta = MetaLedger::new(PrivacyParams::pure(0.1, 8.0));
        meta.reserve("s1", PrivacyParams::pure(0.1, 5.0)).unwrap();
        // Closing an unreserved season.
        assert!(matches!(
            meta.close_begin("ghost", 1.0, 0.0),
            Err(LedgerError::UnknownSeason { .. })
        ));
        // Sealing without a begin.
        assert!(matches!(
            meta.close_seal("s1"),
            Err(LedgerError::NoPendingClosure { .. })
        ));
        // A refund above the reservation would mint budget.
        assert!(matches!(
            meta.close_begin("s1", 5.5, 0.0),
            Err(LedgerError::RefundExceedsReservation { .. })
        ));
        // Non-finite and negative refunds are refused outright.
        assert!(matches!(
            meta.close_begin("s1", f64::NAN, 0.0),
            Err(LedgerError::InvalidCharge { .. })
        ));
        assert!(matches!(
            meta.close_begin("s1", -1.0, 0.0),
            Err(LedgerError::InvalidCharge { .. })
        ));
        meta.close_begin("s1", 2.0, 0.0).unwrap();
        // Double close-begin.
        assert!(matches!(
            meta.close_begin("s1", 2.0, 0.0),
            Err(LedgerError::DuplicateClosure { .. })
        ));
        meta.close_seal("s1").unwrap();
        // Double seal.
        assert!(matches!(
            meta.close_seal("s1"),
            Err(LedgerError::NoPendingClosure { .. })
        ));
    }

    #[test]
    fn meta_event_replay_honors_chronology() {
        // A reservation recorded after a sealed closure spends the
        // refunded budget; replaying reservations before closures would
        // refuse this history.
        let mut live = MetaLedger::new(PrivacyParams::pure(0.1, 4.0));
        live.reserve("a", PrivacyParams::pure(0.1, 4.0)).unwrap();
        live.close_begin("a", 3.0, 0.0).unwrap();
        live.close_seal("a").unwrap();
        live.reserve("b", PrivacyParams::pure(0.1, 3.0)).unwrap();

        let replayed = MetaLedger::replay_events(*live.cap(), live.events()).unwrap();
        assert_eq!(replayed.reserved_epsilon(), live.reserved_epsilon());
        assert_eq!(replayed.refunded_epsilon(), live.refunded_epsilon());
        assert_eq!(replayed.closures(), live.closures());
        assert_eq!(replayed.events(), live.events());
    }

    #[test]
    fn meta_ledger_closure_json_roundtrip_and_compat() {
        let mut meta = MetaLedger::new(PrivacyParams::pure(0.1, 8.0));
        meta.reserve("s1", PrivacyParams::pure(0.1, 5.0)).unwrap();
        meta.close_begin("s1", 4.5, 0.0).unwrap();
        // Roundtrip with a *pending* closure: the crash window between
        // begin and seal must survive persistence.
        let json = serde_json::to_string(&meta).unwrap();
        let back: MetaLedger = serde_json::from_str(&json).unwrap();
        assert!(!back.closure("s1").unwrap().sealed);
        assert_eq!(back.reserved_epsilon(), meta.reserved_epsilon());

        meta.close_seal("s1").unwrap();
        let json = serde_json::to_string(&meta).unwrap();
        let back: MetaLedger = serde_json::from_str(&json).unwrap();
        assert!(back.closure("s1").unwrap().sealed);
        assert_eq!(back.reserved_epsilon(), meta.reserved_epsilon());
        assert_eq!(back.refunded_epsilon(), meta.refunded_epsilon());

        // A pre-event-log snapshot (bare `reservations`, no `events`) is
        // refused: no build writes that layout any more.
        let legacy = r#"{
            "cap": {"alpha": 0.1, "epsilon": 8.0, "delta": 0.0},
            "reservations": [
                {"name": "old", "budget": {"alpha": 0.1, "epsilon": 5.0, "delta": 0.0}}
            ],
            "reserved_epsilon": 5.0,
            "reserved_delta": 0.0
        }"#;
        let refused = serde_json::from_str::<MetaLedger>(legacy).unwrap_err();
        assert!(refused.to_string().contains("`events`"), "{refused}");
    }

    #[test]
    fn budget_account_credit_mirrors_admit() {
        let mut account = BudgetAccount::new(PrivacyParams::pure(0.1, 4.0));
        account.admit(3.0, 0.0).unwrap();
        account.credit(2.0, 0.0).unwrap();
        assert!((account.spent_epsilon() - 1.0).abs() < 1e-12);
        assert!((account.remaining_epsilon() - 3.0).abs() < 1e-12);
        // Crediting past zero would mint budget beyond the cap.
        assert!(matches!(
            account.credit(2.0, 0.0),
            Err(LedgerError::CreditExceedsSpent { .. })
        ));
        // Negative and non-finite credits are refused outright.
        assert!(matches!(
            account.credit(-1.0, 0.0),
            Err(LedgerError::InvalidCharge { .. })
        ));
        assert!(matches!(
            account.credit(f64::NAN, 0.0),
            Err(LedgerError::InvalidCharge { .. })
        ));
        assert!((account.spent_epsilon() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn budget_account_is_shared_arithmetic() {
        // The account alone enforces the same relative one-shot tolerance
        // the ledger does — the hierarchy adds bookkeeping, not rules.
        let mut account = BudgetAccount::new(PrivacyParams::pure(0.1, 1.0));
        account.admit(1.0, 0.0).unwrap();
        assert!(account.admit(1e-6, 0.0).is_err());
        assert!(account.admit(f64::NAN, 0.0).is_err());
        assert!(account.admit(-0.5, 0.0).is_err());
        assert_eq!(account.spent_epsilon(), 1.0);
    }

    #[test]
    fn ledger_tracks_delta() {
        let mut ledger = Ledger::new(PrivacyParams::approximate(0.1, 100.0, 0.01));
        let params = PrivacyParams::approximate(0.1, 0.5, 0.004);
        let cost = ReleaseCost::for_marginal(&workload1(), &params, NeighborKind::Weak);
        ledger.charge("a", &params, &cost).unwrap();
        ledger.charge("b", &params, &cost).unwrap();
        let err = ledger.charge("c", &params, &cost).unwrap_err();
        assert!(matches!(err, LedgerError::DeltaExhausted { .. }));
    }
}
