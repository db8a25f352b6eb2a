//! Umbrella crate for the SC 2000 "Expressing and Enforcing Distributed
//! Resource Sharing Agreements" reproduction.
//!
//! Re-exports the public API of every subsystem crate so examples and
//! downstream users can depend on a single package:
//!
//! - [`ticket`] — tickets, currencies, and the funding-graph economy (§2).
//! - [`lp`] — the two-phase simplex LP solver substrate (§3).
//! - [`flow`] — agreement matrices and transitive resource flow (§3.1).
//! - [`sched`] — the LP allocation scheduler and baseline policies (§3).
//! - [`grm`] — the GRM/LRM threaded resource-manager runtime (§3.2).
//! - [`trace`] — synthetic diurnal web workload generation (§4.1).
//! - [`proxysim`] — the cooperating web-proxy simulator (§4).
//! - [`telemetry`] — the unified counters/histograms/event-trace plane.

#![deny(unsafe_code)]

pub use agreements_flow as flow;
pub use agreements_grm as grm;
pub use agreements_lp as lp;
pub use agreements_proxysim as proxysim;
pub use agreements_sched as sched;
pub use agreements_telemetry as telemetry;
pub use agreements_ticket as ticket;
pub use agreements_trace as trace;
