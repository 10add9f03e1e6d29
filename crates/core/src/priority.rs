//! The priority list driving the iterative scheduler.

use ddg::collections::IdMap;
use ddg::NodeId;

/// Priority list of nodes waiting to be scheduled.
///
/// Nodes are pre-ordered by the HRMS strategy; the list always hands out the
/// unscheduled node with the highest priority (lowest rank). Ejected nodes
/// return to the list with their *original* priority; spill and move nodes
/// inherit the priority of their associated producer/consumer (minus a small
/// bias so they are picked just before it).
///
/// Equal ranks do occur (two moves anchored at one node both get the
/// anchor's rank − 0.5); among them the node *earliest in `pending`* wins.
/// `pop` finds it with a linear scan and removes it with `swap_remove`, and
/// that exact position bookkeeping is part of the scheduler's observable
/// behaviour — a heap would order such ties differently.
#[derive(Debug, Clone, Default)]
pub struct PriorityList {
    /// Rank of every known node (lower = more urgent), by node index.
    rank: IdMap<NodeId, f64>,
    /// Whether each node is currently in `pending`, by node index.
    queued: Vec<bool>,
    /// Nodes currently waiting.
    pending: Vec<NodeId>,
}

impl PriorityList {
    // Some accessors are only exercised by unit tests and debugging code.
    #![allow(dead_code)]
    /// Build the list from an HRMS ordering (first element = highest
    /// priority).
    #[must_use]
    pub fn from_order(order: &[NodeId]) -> Self {
        let mut list = Self::default();
        list.reset_from_order(order);
        list
    }

    /// Reload the list from an HRMS ordering, forgetting all previous ranks
    /// and pending nodes but keeping the allocations — equivalent to
    /// [`PriorityList::from_order`] on a warmed buffer.
    pub fn reset_from_order(&mut self, order: &[NodeId]) {
        self.rank.clear();
        self.queued.clear();
        self.pending.clear();
        for (i, &n) in order.iter().enumerate() {
            self.rank.insert(n, i as f64);
            self.enqueue(n);
        }
    }

    /// Append `node` to `pending` unless it is already waiting.
    fn enqueue(&mut self, node: NodeId) {
        let i = node.index();
        if i >= self.queued.len() {
            self.queued.resize(i + 1, false);
        }
        if !self.queued[i] {
            self.queued[i] = true;
            self.pending.push(node);
        }
    }

    /// Whether no node is waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Number of waiting nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Rank of a node (lower is more urgent), if known.
    #[must_use]
    pub fn rank_of(&self, node: NodeId) -> Option<f64> {
        self.rank.get(node).copied()
    }

    /// Pop the highest-priority waiting node (the earliest in `pending`
    /// among equal ranks).
    pub fn pop(&mut self) -> Option<NodeId> {
        if self.pending.is_empty() {
            return None;
        }
        let (idx, _) = self
            .pending
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| {
                let ra = self.rank_of(a).unwrap_or(f64::MAX);
                let rb = self.rank_of(b).unwrap_or(f64::MAX);
                ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("pending is non-empty");
        let node = self.pending.swap_remove(idx);
        self.queued[node.index()] = false;
        Some(node)
    }

    /// Return a node to the list with its original priority (after an
    /// ejection). Does nothing if the node is already waiting.
    pub fn push_back(&mut self, node: NodeId) {
        debug_assert!(
            self.rank.contains_key(node),
            "push_back of a node without a registered priority"
        );
        self.enqueue(node);
    }

    /// Register a node inserted during scheduling (spill or move) with a
    /// priority derived from `anchor` (it will be picked just before the
    /// anchor would be re-picked) and add it to the list.
    pub fn insert_with_anchor(&mut self, node: NodeId, anchor: NodeId) {
        self.register_with_anchor(node, anchor);
        self.enqueue(node);
    }

    /// Register a priority for a node derived from `anchor` without adding
    /// it to the pending list (used for move nodes that are scheduled
    /// immediately but may be ejected and re-queued later).
    pub fn register_with_anchor(&mut self, node: NodeId, anchor: NodeId) {
        let base = self.rank_of(anchor).unwrap_or(0.0);
        self.rank.insert(node, base - 0.5);
    }

    /// Remove a node from the list and forget its priority (used when a
    /// move or spill node is deleted from the graph before being placed).
    pub fn remove(&mut self, node: NodeId) {
        if self.contains(node) {
            // Order-preserving: the survivors' positions decide rank ties.
            self.pending.retain(|&n| n != node);
            self.queued[node.index()] = false;
        }
        self.rank.remove(node);
    }

    /// Whether the node is currently waiting in the list.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.queued.get(node.index()).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_priority_order() {
        let order = [NodeId(5), NodeId(2), NodeId(9)];
        let mut pl = PriorityList::from_order(&order);
        assert_eq!(pl.len(), 3);
        assert_eq!(pl.pop(), Some(NodeId(5)));
        assert_eq!(pl.pop(), Some(NodeId(2)));
        assert_eq!(pl.pop(), Some(NodeId(9)));
        assert_eq!(pl.pop(), None);
        assert!(pl.is_empty());
    }

    #[test]
    fn push_back_restores_original_priority() {
        let order = [NodeId(1), NodeId(2), NodeId(3)];
        let mut pl = PriorityList::from_order(&order);
        assert_eq!(pl.pop(), Some(NodeId(1)));
        assert_eq!(pl.pop(), Some(NodeId(2)));
        // Eject node 1: it comes back before node 3.
        pl.push_back(NodeId(1));
        assert_eq!(pl.pop(), Some(NodeId(1)));
        assert_eq!(pl.pop(), Some(NodeId(3)));
    }

    #[test]
    fn push_back_does_not_duplicate() {
        let order = [NodeId(1)];
        let mut pl = PriorityList::from_order(&order);
        pl.push_back(NodeId(1));
        assert_eq!(pl.len(), 1);
    }

    #[test]
    fn inserted_nodes_run_just_before_their_anchor() {
        let order = [NodeId(1), NodeId(2)];
        let mut pl = PriorityList::from_order(&order);
        // A spill load anchored at node 2.
        pl.insert_with_anchor(NodeId(10), NodeId(2));
        assert_eq!(pl.pop(), Some(NodeId(1)));
        assert_eq!(pl.pop(), Some(NodeId(10)));
        assert_eq!(pl.pop(), Some(NodeId(2)));
    }

    /// Equal ranks pop in `pending` position order, and `pop`'s
    /// `swap_remove` moves the last waiting node into the popped slot — the
    /// exact tie-break the scheduler's golden schedules depend on.
    #[test]
    fn equal_ranks_pop_in_pending_position_order() {
        let order = [NodeId(1), NodeId(2), NodeId(3)];
        let mut pl = PriorityList::from_order(&order);
        // Two moves anchored at node 3 share rank 2 − 0.5.
        pl.insert_with_anchor(NodeId(10), NodeId(3));
        pl.insert_with_anchor(NodeId(11), NodeId(3));
        assert_eq!(pl.rank_of(NodeId(10)), pl.rank_of(NodeId(11)));
        // pending: [1, 2, 3, 10, 11]; popping 1 swaps 11 into slot 0,
        // popping 2 swaps 10 into slot 1.
        assert_eq!(pl.pop(), Some(NodeId(1)));
        assert_eq!(pl.pop(), Some(NodeId(2)));
        // pending: [11, 10, 3]: 11 is now ahead of 10.
        assert_eq!(pl.pop(), Some(NodeId(11)));
        // Node 11 is ejected and returns behind 10.
        pl.push_back(NodeId(11));
        assert_eq!(pl.pop(), Some(NodeId(10)));
        assert_eq!(pl.pop(), Some(NodeId(11)));
        assert_eq!(pl.pop(), Some(NodeId(3)));
        assert_eq!(pl.pop(), None);
    }

    #[test]
    fn remove_forgets_the_node() {
        let order = [NodeId(1), NodeId(2)];
        let mut pl = PriorityList::from_order(&order);
        pl.insert_with_anchor(NodeId(10), NodeId(1));
        pl.remove(NodeId(10));
        assert!(!pl.contains(NodeId(10)));
        assert_eq!(pl.rank_of(NodeId(10)), None);
        assert_eq!(pl.len(), 2);
    }
}
