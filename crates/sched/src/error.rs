//! Scheduler error type.

use agreements_flow::FlowError;
use agreements_lp::LpError;
use std::fmt;

/// Errors from allocation scheduling.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// The requester cannot reach enough resources, directly or
    /// transitively, to cover the request.
    InsufficientCapacity {
        /// Requesting principal.
        requester: usize,
        /// Reachable capacity `C_A`.
        capacity: f64,
        /// Requested amount `x`.
        requested: f64,
        /// Which resource's admission failed, for multi-resource
        /// requests (`"cpu"`, `"bandwidth"`, …): the *binding* resource
        /// — the first lane, in resource order, whose LP refused. Always
        /// `None` on the single-resource paths, so their payloads (and
        /// golden fingerprints) are unchanged.
        resource: Option<&'static str>,
    },
    /// Requester index out of range.
    UnknownPrincipal {
        /// The offending index.
        index: usize,
        /// The number of principals.
        n: usize,
    },
    /// Request amounts must be positive and finite.
    InvalidRequest {
        /// The rejected amount.
        amount: f64,
    },
    /// The underlying LP failed (numerical trouble; infeasibility is
    /// normally caught by the admission check first).
    Lp(LpError),
    /// Mismatched dimensions between flow table, availability, and/or
    /// absolute matrix.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Actual dimension supplied.
        got: usize,
    },
    /// A multi-resource scheduler's lanes do not share one principal
    /// partition: lane `lane` groups the principals differently from
    /// lane 0.
    PartitionMismatch {
        /// The first lane, in resource order, whose partition differs.
        lane: usize,
        /// That lane's resource name.
        resource: &'static str,
    },
    /// A hierarchical partition contained an empty group.
    EmptyGroup {
        /// Index of the offending group.
        group: usize,
    },
    /// An agreement-matrix operation failed (partition derivation or
    /// coarse-flow renegotiation).
    Flow(FlowError),
}

impl SchedError {
    /// This error as resource lane `resource`'s verdict: a capacity
    /// rejection names the lane as the binding resource (`None` for the
    /// unnamed lane of a single-resource scheduler); every other kind
    /// passes through.
    pub fn tagged(self, resource: Option<&'static str>) -> SchedError {
        match self {
            SchedError::InsufficientCapacity { requester, capacity, requested, .. } => {
                SchedError::InsufficientCapacity { requester, capacity, requested, resource }
            }
            other => other,
        }
    }
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::InsufficientCapacity { requester, capacity, requested, resource } => {
                write!(
                    f,
                    "principal {requester} can reach only {capacity:.4} of the {requested:.4} requested"
                )?;
                if let Some(name) = resource {
                    write!(f, " (binding resource: {name})")?;
                }
                Ok(())
            }
            SchedError::UnknownPrincipal { index, n } => {
                write!(f, "principal {index} out of range for {n} principals")
            }
            SchedError::InvalidRequest { amount } => {
                write!(f, "invalid request amount {amount}")
            }
            SchedError::Lp(e) => write!(f, "allocation LP failed: {e}"),
            SchedError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            SchedError::PartitionMismatch { lane, resource } => {
                write!(f, "resource lane {lane} ({resource}) is partitioned unlike lane 0")
            }
            SchedError::EmptyGroup { group } => {
                write!(f, "group {group} of the hierarchical partition is empty")
            }
            SchedError::Flow(e) => write!(f, "agreement matrix operation failed: {e}"),
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Lp(e) => Some(e),
            SchedError::Flow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LpError> for SchedError {
    fn from(e: LpError) -> Self {
        SchedError::Lp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SchedError::InsufficientCapacity {
            requester: 2,
            capacity: 1.5,
            requested: 3.0,
            resource: None,
        };
        assert!(e.to_string().contains("principal 2"));
        assert!(!e.to_string().contains("binding resource"));
        let tagged = SchedError::InsufficientCapacity {
            requester: 2,
            capacity: 1.5,
            requested: 3.0,
            resource: Some("bandwidth"),
        };
        assert!(tagged.to_string().contains("binding resource: bandwidth"));
        let lanes = SchedError::PartitionMismatch { lane: 1, resource: "bandwidth" };
        assert!(lanes.to_string().contains("lane 1 (bandwidth)"));
        let lp = SchedError::Lp(LpError::IterationLimit { limit: 5 });
        assert!(std::error::Error::source(&lp).is_some());
        assert!(std::error::Error::source(&e).is_none());
    }
}
