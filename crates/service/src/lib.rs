//! `eree_service` — a multi-tenant HTTP release service over the
//! [`eree_core`] agency.
//!
//! The library layers give one process programmatic access to a budgeted
//! release pipeline; this crate puts a wire protocol in front of it so
//! many tenants can share one agency:
//!
//! * [`service`] — the [`ReleaseService`]:
//!   owns the `AgencyStore` (and its write lease), runs one worker per
//!   season so tenants serialize within a season and parallelize across
//!   seasons, answers repeat requests from the public released-artifact
//!   cache at zero privacy cost, and publishes the agency's structured
//!   counters (`eree_core::metrics`) at `GET /metrics`.
//! * [`api`] — the JSON wire types, built from the core layer's
//!   serializable vocabulary (`MarginalSpec`, `FilterExpr`,
//!   `PrivacyParams`).
//! * [`http`] — a deliberately minimal `std::net` HTTP/1.1 server
//!   (no async runtime; the workspace vendors every dependency).
//! * [`client`] — a blocking loopback client for tests and examples.
//!
//! ```no_run
//! use eree_service::{Client, ReleaseService, ServiceConfig};
//! use eree_core::definitions::PrivacyParams;
//! # fn demo(dataset: lodes::Dataset) -> Result<(), Box<dyn std::error::Error>> {
//! let cap = PrivacyParams::pure(0.1, 4.0);
//! let service = ReleaseService::start("/tmp/agency", dataset, ServiceConfig::new(cap))?;
//! let client = Client::new(service.addr());
//! client.create_season("s2024q1", PrivacyParams::pure(0.1, 1.0))?;
//! # service.shutdown();
//! # Ok(()) }
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod http;
pub mod service;

pub use api::{
    AuditView, BodyAudit, ReleaseStatusView, ReleaseSubmission, SeasonCreate, SeasonCreated,
    SubmitReceipt,
};
pub use client::{Client, ClientError, RetryPolicy};
pub use service::{ReleaseService, ServiceConfig, ServiceError};
