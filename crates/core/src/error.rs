//! The unified error hierarchy of the release engine.
//!
//! Each layer has its own error type — [`LedgerError`] from budget
//! accounting, [`ShapeError`] from shape releases and [`NeighborError`]
//! from neighbor checking. [`EngineError`] is the one type every engine
//! entry point returns; the layer types survive as wrapped sources (with
//! `From` conversions) so callers composing layers need no ad-hoc
//! wrappers.

use crate::accountant::LedgerError;
use crate::mechanisms::MechanismKind;
use crate::neighbors::NeighborError;
use crate::shape::ShapeError;

/// Any failure from the release engine.
///
/// The hierarchy is hand-written (`Display` + `Error::source`) rather than
/// derived with `thiserror` because this build environment vendors its
/// dependencies offline; the shape matches what `thiserror` would emit.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The request builder was missing a required component.
    IncompleteRequest {
        /// Which component (`"mechanism"` / `"budget"`).
        missing: &'static str,
    },
    /// The mechanism's validity constraint rejects the per-cell parameters
    /// (e.g. Smooth Gamma needs `α+1 < e^{ε/5}`; Smooth Laplace needs
    /// `δ > 0`).
    InvalidParameters {
        /// The mechanism that rejected them.
        mechanism: MechanismKind,
        /// Per-cell ε after composition accounting.
        per_cell_epsilon: f64,
        /// α.
        alpha: f64,
        /// δ.
        delta: f64,
    },
    /// The ledger refused the charge: the release would exceed the
    /// remaining budget, or its α does not match the ledger's.
    Budget(LedgerError),
    /// Shape-release failure (e.g. no worker attributes to partition by).
    Shape(ShapeError),
    /// A neighbor-definition check failed.
    Neighbor(NeighborError),
    /// A precomputed truth marginal does not match the request's spec.
    SpecMismatch {
        /// The spec named by the request.
        requested: String,
        /// The spec of the supplied marginal.
        supplied: String,
    },
    /// A published cell expected by a consistency/error computation is
    /// absent from the release.
    MissingCell {
        /// The packed cell key.
        key: u64,
    },
    /// An artifact operation was applied to the wrong payload kind (e.g.
    /// cell error metrics on a shapes release).
    WrongPayload {
        /// The payload kind the operation needs.
        expected: &'static str,
    },
    /// A flow request was invalid (e.g. its spec groups by worker
    /// attributes), or its kind disagrees with the truth it was executed
    /// against — flow statistics need a flow truth or a snapshot that
    /// carries its before quarter, and only flow requests may use one.
    Flow {
        /// What went wrong.
        detail: &'static str,
    },
    /// The tabulation cache or its persistent truth store refused to
    /// cooperate: the cache serves a different dataset than the snapshot
    /// it was handed, or persisting a freshly computed truth failed. The
    /// store is never silently bypassed — a season configured to persist
    /// truths either persists them or stops.
    TruthStore {
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::IncompleteRequest { missing } => {
                write!(f, "release request is missing its {missing}")
            }
            EngineError::InvalidParameters {
                mechanism,
                per_cell_epsilon,
                alpha,
                delta,
            } => write!(
                f,
                "{} rejects per-cell parameters (alpha={alpha}, epsilon={per_cell_epsilon}, delta={delta})",
                mechanism.label()
            ),
            EngineError::Budget(e) => write!(f, "budget refused: {e}"),
            EngineError::Shape(e) => write!(f, "shape release failed: {e}"),
            EngineError::Neighbor(e) => write!(f, "neighbor check failed: {e:?}"),
            EngineError::SpecMismatch {
                requested,
                supplied,
            } => write!(
                f,
                "precomputed marginal is for `{supplied}`, request names `{requested}`"
            ),
            EngineError::MissingCell { key } => {
                write!(f, "published release is missing cell {key}")
            }
            EngineError::WrongPayload { expected } => {
                write!(f, "operation needs a {expected} payload")
            }
            EngineError::Flow { detail } => {
                write!(f, "flow release: {detail}")
            }
            EngineError::TruthStore { detail } => {
                write!(f, "persistent truth store: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Budget(e) => Some(e),
            EngineError::Shape(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LedgerError> for EngineError {
    fn from(e: LedgerError) -> Self {
        EngineError::Budget(e)
    }
}

impl From<ShapeError> for EngineError {
    fn from(e: ShapeError) -> Self {
        EngineError::Shape(e)
    }
}

impl From<NeighborError> for EngineError {
    fn from(e: NeighborError) -> Self {
        EngineError::Neighbor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = EngineError::from(LedgerError::EpsilonExhausted {
            requested: 2.0,
            remaining: 1.0,
        });
        assert!(e.to_string().contains("budget refused"));
        assert!(std::error::Error::source(&e).is_some());

        let e = EngineError::from(ShapeError::NoWorkerAttributes);
        assert!(e.to_string().contains("shape release failed"));

        let e = EngineError::IncompleteRequest {
            missing: "mechanism",
        };
        assert!(e.to_string().contains("missing its mechanism"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn invalid_parameters_name_the_mechanism() {
        let e = EngineError::InvalidParameters {
            mechanism: MechanismKind::SmoothGamma,
            per_cell_epsilon: 0.5,
            alpha: 0.2,
            delta: 0.0,
        };
        assert!(e.to_string().contains("Smooth Gamma"));
    }
}
