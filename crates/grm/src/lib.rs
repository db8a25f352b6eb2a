//! GRM/LRM runtime: the paper's cluster resource-manager architecture
//! (§3.2, final paragraph), realized in process.
//!
//! > "The resource management system has two components: a centralized
//! > global resource manager (GRM) and multiple local resource managers
//! > (LRM). The GRM provides services to manage sharing agreements and to
//! > schedule resources among local resource managers. LRMs are
//! > responsible for providing resource availability information to the
//! > GRM dynamically, and fulfilling resource allocation according to the
//! > GRM's decisions. The architecture also permits splitting of the GRMs
//! > into multiple levels, each responsible for a subset of the LRMs."
//!
//! - [`server::GrmServer`] is the global scheduler: one core, under one
//!   lock, owning the agreement flow table and the last-reported
//!   availability of every LRM. Clients call it through a cloneable
//!   [`server::GrmHandle`] (agreement management, availability reports,
//!   allocation RPCs), which executes each call on the caller's thread;
//!   the network listener executes runs of calls on the same core
//!   ([`server::GrmCore`]).
//! - [`lrm::Lrm`] owns an actual local resource pool and fulfils the
//!   GRM's reservation directives, reporting availability after every
//!   local change. When the GRM is unreachable it degrades to
//!   local-pool-only grants, journalling them for reconciliation.
//! - [`multilevel::TwoLevelGrm`] splits scheduling across group-level
//!   GRMs coordinated by a coarse root scheduler (multigrid refinement,
//!   §3.2).
//! - [`resilient::ResilientGrmClient`] adds per-call deadlines,
//!   idempotent retries (client-generated [`server::RequestId`]s against
//!   the server's dedup window), and capped, jittered backoff.
//! - [`dedup::DedupWindow`] is that dedup window: one type for the live
//!   server and for the durable journal's recovery fold.
//!
//! A crashed GRM is replaced by a cold standby spawned from the
//! agreement matrix, with availability restored from LRM re-reports;
//! the one replayable agreement log is the durable journal in
//! `agreements-net` (`AgreementSet`/`Join`/`Leave` records,
//! `RecoveredState::respawn`).
//!
//! The whole federation can be run under the deterministic fault plane
//! of the `agreements-faults` crate ([`server::GrmServer::spawn_chaotic`];
//! chaos invariants live in `tests/chaos_federation.rs`). See DESIGN.md
//! §8 for the fault model.

// Index-based loops are idiomatic for the dense matrix math in this
// crate; clippy's iterator rewrites would obscure the row/column algebra.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod dedup;
mod engine;
pub mod lrm;
pub mod multilevel;
pub mod policy_adapter;
pub mod resilient;
pub mod server;

pub use dedup::{DedupWindow, DEDUP_WINDOW};
pub use lrm::Lrm;
pub use multilevel::TwoLevelGrm;
pub use policy_adapter::GrmBackedPolicy;
pub use resilient::{ResilientGrmClient, RetryPolicy};
pub use server::{
    Answer, Call, GrmClient, GrmCore, GrmError, GrmHandle, GrmServer, GrmStats, RecordedDecision,
    RequestId,
};
