//! The bounded dedup window: what a GRM remembers about the idempotent
//! calls it has decided.
//!
//! One type serves both holders of that memory — the live server (which
//! answers a duplicated or retried call from it) and the durable
//! journal's recovery fold (which rebuilds it to seed a respawned
//! server) — so the duplicate check, the insert and the eviction cannot
//! drift apart between the two.

use crate::server::{RecordedDecision, RequestId};
use std::collections::{HashMap, VecDeque};

/// How many decided calls the server remembers for deduplication. A
/// retry arriving after this many newer calls is treated as new — the
/// window bounds memory, trading exactly-once for "at most once within
/// any plausible retry horizon".
pub const DEDUP_WINDOW: usize = 1024;

/// Bounded id → decision memory (recency-ordered eviction): decisions
/// by id plus their recency order, so the duplicate check, the insert
/// and the eviction are O(1) per decision.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DedupWindow {
    decisions: HashMap<RequestId, RecordedDecision>,
    /// Ids oldest first; exactly the keys of `decisions`.
    order: VecDeque<RequestId>,
}

impl DedupWindow {
    /// Entries in the window.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the window holds no entry.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The decision remembered under `id`, if it is still in the window.
    pub fn get(&self, id: &RequestId) -> Option<&RecordedDecision> {
        self.decisions.get(id)
    }

    /// The entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (&RequestId, &RecordedDecision)> + '_ {
        self.order.iter().map(|id| (id, &self.decisions[id]))
    }

    /// Record `decision` under `id` as the newest entry, evicting the
    /// oldest once past [`DEDUP_WINDOW`].
    pub fn insert(&mut self, id: RequestId, decision: RecordedDecision) {
        if self.decisions.insert(id, decision).is_some() {
            // Re-deciding an id refreshes its recency: without moving it
            // to the back of `order`, the stale front position would get
            // the *newest* decision evicted first once the window fills.
            // Re-inserts are rare (a dedup hit is answered from the
            // window without re-inserting), so the linear scan is fine.
            self.order.retain(|x| *x != id);
        }
        self.order.push_back(id);
        if self.order.len() > DEDUP_WINDOW {
            if let Some(old) = self.order.pop_front() {
                self.decisions.remove(&old);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_reinsert_refreshes_recency_at_window_boundary() {
        // Re-deciding an id must move it to the back of the eviction
        // order. Regression: the old `insert` kept the stale front
        // position, so at exactly DEDUP_WINDOW entries the *refreshed*
        // id was evicted first while an older untouched id survived.
        let mut w = DedupWindow::default();
        let id = |seq| RequestId { client: 0, seq };
        w.insert(id(0), RecordedDecision::Replay(Ok(())));
        for seq in 1..DEDUP_WINDOW as u64 {
            w.insert(id(seq), RecordedDecision::Replay(Ok(())));
        }
        // Window is exactly full; re-insert the oldest id.
        w.insert(id(0), RecordedDecision::Replay(Ok(())));
        assert_eq!(w.order.len(), DEDUP_WINDOW, "re-insert must not grow the window");
        // One more new id evicts the now-oldest entry: seq 1, not seq 0.
        w.insert(id(DEDUP_WINDOW as u64), RecordedDecision::Replay(Ok(())));
        assert!(w.get(&id(0)).is_some(), "refreshed id survives the eviction");
        assert!(w.get(&id(1)).is_none(), "stalest untouched id is evicted instead");
        assert_eq!(w.decisions.len(), w.order.len(), "map and order stay in lock-step");
    }
}
