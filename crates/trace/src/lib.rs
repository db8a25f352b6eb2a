//! Synthetic web-proxy workload generation (paper §4.1 substrate).
//!
//! The paper drives its case study with the UC Berkeley Home-IP HTTP
//! traces (November 1996, 9M references, 18 days averaged into a single
//! 24-hour day). That trace is not redistributable here, so this crate
//! generates a *seeded synthetic equivalent* that reproduces the three
//! properties the evaluation actually depends on:
//!
//! 1. **Diurnal shape** (Figure 5): request rate heaviest around midnight,
//!    lightest in the early morning, ≈6:1 peak-to-trough — captured by
//!    [`DiurnalProfile`] as an hourly rate table with Poisson arrivals.
//! 2. **Heavy-tailed response lengths**: a lognormal body with a Pareto
//!    tail ([`ResponseLenDist`]), so that the per-request service time
//!    `min(a + b·len, c)` (with the paper's `a = 0.1 s`, `b = 10⁻⁶ s/B`,
//!    `c = 30 s`, see [`ServiceModel`]) averages ≈ 0.1–0.2 s while
//!    occasionally hitting the 30 s cap.
//! 3. **Time skew**: proxy `p`'s stream is the base stream shifted by
//!    `p · gap` seconds modulo 24 h ([`SkewMode`]), modeling
//!    geographically distributed ISPs (Figures 6, 9–11).
//!
//! Traces serialize to a compact binary format ([`io`]) and to CSV.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
pub mod generator;
pub mod io;
pub mod lengths;
pub mod multiscale;
pub mod profile;
pub mod request;
pub mod scale;
pub mod slots;

pub use analysis::{capacity_for_peak_rho, mean_demand, peak_rho};
pub use generator::{ProxyTrace, SkewMode, TraceConfig};
pub use lengths::ResponseLenDist;
pub use multiscale::{MultiDemand, MultiScaleConfig, MultiScaleWorkload, RESOURCE_NAMES};
pub use profile::DiurnalProfile;
pub use request::{Request, ServiceModel};
pub use scale::{Demand, ScaleConfig, ScaleWorkload};
pub use slots::{slot_of, DAY_SECONDS, SLOTS_PER_DAY, SLOT_SECONDS};
