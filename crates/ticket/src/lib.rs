//! Tickets and currencies: the agreement *expression* mechanism of
//! "Expressing and Enforcing Distributed Resource Sharing Agreements"
//! (SC 2000), §2.
//!
//! Resource capacities and sharing agreements are captured in one uniform
//! funding graph:
//!
//! - **Absolute tickets** carry a face value denominated directly in
//!   resource units (e.g. "10 TB of disk"); actual resource capacities are
//!   absolute tickets funding their owner's currency.
//! - **Relative tickets** are denominated in units of the *issuing*
//!   currency: a relative ticket with face `f` issued by a currency with
//!   face total `F` and value `V` is really worth `V · f / F` resource
//!   units. Their value therefore fluctuates with the issuer's fortunes.
//! - **Currencies** are backed (funded) by tickets and issue tickets in
//!   turn. Every principal gets a default currency; additional *virtual
//!   currencies* decouple one subset of a principal's agreements from
//!   fluctuations in another (paper Example 2).
//!
//! An agreement "A shares 50% of its resources with B" is expressed as A's
//! currency issuing a relative ticket with half of A's face total, backing
//! B's currency. Agreements are *sharing* (grantor keeps use of the
//! resource) or *granting* (grantor gives it up until revocation) — §2.1.
//!
//! # Quickstart (paper Example 1)
//!
//! ```
//! use agreements_ticket::{Economy, AgreementNature};
//!
//! let mut eco = Economy::new();
//! let disk = eco.add_resource("disk-TB");
//! let (a, b, c, d) = (
//!     eco.add_principal("A"), eco.add_principal("B"),
//!     eco.add_principal("C"), eco.add_principal("D"),
//! );
//! let (ca, cb, cc, cd) = (
//!     eco.default_currency(a), eco.default_currency(b),
//!     eco.default_currency(c), eco.default_currency(d),
//! );
//! eco.set_face_total(ca, 1000.0).unwrap();
//! eco.set_face_total(cb, 100.0).unwrap();
//! eco.deposit_resource(ca, disk, 10.0).unwrap();   // A-Ticket1
//! eco.deposit_resource(cb, disk, 15.0).unwrap();   // A-Ticket2
//! eco.issue_absolute(ca, cc, disk, 3.0, AgreementNature::Sharing).unwrap(); // R-Ticket3
//! eco.issue_relative(ca, cb, 500.0, AgreementNature::Sharing).unwrap(); // R-Ticket4
//! eco.issue_relative(cb, cd, 60.0, AgreementNature::Sharing).unwrap();  // R-Ticket5
//!
//! let v = eco.value_report(disk).unwrap();
//! assert!((v.currency_value(cb) - 20.0).abs() < 1e-9); // 15 + 10*500/1000
//! assert!((v.currency_value(cd) - 12.0).abs() < 1e-9); // 20 * 60/100
//! ```

// Index-based loops are idiomatic for the dense matrix math in this
// crate; clippy's iterator rewrites would obscure the row/column algebra.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod batch;
pub mod currency;
pub mod economy;
pub mod error;
pub mod ids;
pub mod report;
pub mod ticket;
pub mod valuation;
pub mod views;

pub use batch::{BatchError, BatchOutcome, Op};
pub use currency::Currency;
pub use economy::Economy;
pub use error::EconomyError;
pub use ids::{CurrencyId, PrincipalId, ResourceId, TicketId};
pub use report::{summary, to_dot};
pub use ticket::{AgreementNature, Ticket, TicketValue};
pub use valuation::{Valuation, ValuationMethod};
pub use views::{ResourceView, ViewRegistry};
