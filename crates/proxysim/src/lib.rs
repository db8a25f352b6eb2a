//! Trace-driven simulator of cooperating ISP-level web proxies (paper §4).
//!
//! Each proxy serves its local client stream from a FIFO queue through a
//! single logical server of configurable capacity (the paper collapses
//! CPU/disk/memory/network into one "general" resource measured in seconds
//! of work). Per scheduling epoch:
//!
//! 1. Arrivals from the trace are admitted to their home proxy's queue.
//! 2. If resource sharing is enabled and a proxy's backlog exceeds the
//!    consultation threshold, the **global scheduler** is consulted: given
//!    each proxy's idle capacity over the scheduling horizon and the
//!    agreement structure, the configured policy (LP / proportional
//!    end-point / greedy) decides how much overflow work to move where,
//!    and requests are redirected from the back of the overloaded queue
//!    (paying a fixed per-request redirection cost).
//! 3. Every server processes its queue for the epoch; a request's
//!    **waiting time** is the delay between its arrival and the moment its
//!    service starts (at whichever proxy finally serves it).
//!
//! Results aggregate per 10-minute slot of arrival (the paper's reporting
//! unit): request counts, average and worst-case waits, and redirection
//! fractions — everything Figures 5–13 plot.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod metrics;
pub mod multires;
pub mod proxy;
pub mod sim;

pub use config::{AgreementEvent, PolicyKind, SharingConfig, SimConfig};
pub use metrics::{SimResult, SlotMetrics, WaitHistogram};
pub use multires::{run_multires, MultiResConfig};
pub use proxy::QueueDiscipline;
pub use sim::Simulator;
