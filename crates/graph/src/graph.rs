//! The immutable precedence graph.

use std::collections::HashMap;
use std::fmt;

use crate::{ActionId, GraphError};

/// A precedence graph `G = (A, →)` over a finite action vocabulary
/// (Definition 2.1 of the paper).
///
/// The graph is a DAG; `a → a'` means `a'` may start only after `a` has
/// completed. Construction goes through [`GraphBuilder`], which validates
/// acyclicity.
///
/// [`GraphBuilder`]: crate::GraphBuilder
///
/// # Example
///
/// ```
/// use fgqos_graph::GraphBuilder;
///
/// # fn main() -> Result<(), fgqos_graph::GraphError> {
/// let mut b = GraphBuilder::new();
/// let a = b.action("a");
/// let c = b.action("c");
/// b.edge(a, c)?;
/// let g = b.build()?;
/// assert_eq!(g.successors(a), &[c]);
/// assert_eq!(g.predecessors(c), &[a]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrecedenceGraph {
    names: Vec<String>,
    succs: Vec<Vec<ActionId>>,
    preds: Vec<Vec<ActionId>>,
    /// Canonical topological order (Kahn, smallest id first).
    topo: Vec<ActionId>,
    /// `topo_pos[a.index()]` = position of `a` in `topo`.
    topo_pos: Vec<usize>,
    edge_count: usize,
}

impl PrecedenceGraph {
    /// Builds a graph from a name table and an edge list.
    ///
    /// Duplicate edges are collapsed. Used by [`GraphBuilder::build`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] when the relation is cyclic and
    /// [`GraphError::UnknownAction`] / [`GraphError::SelfLoop`] on malformed
    /// edges.
    ///
    /// [`GraphBuilder::build`]: crate::GraphBuilder::build
    pub(crate) fn from_parts(
        names: Vec<String>,
        edges: &[(ActionId, ActionId)],
    ) -> Result<Self, GraphError> {
        let n = names.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        let mut edge_count = 0usize;
        for &(from, to) in edges {
            if from.index() >= n {
                return Err(GraphError::UnknownAction(from));
            }
            if to.index() >= n {
                return Err(GraphError::UnknownAction(to));
            }
            if from == to {
                return Err(GraphError::SelfLoop(from));
            }
            if succs[from.index()].contains(&to) {
                continue; // collapse duplicates
            }
            succs[from.index()].push(to);
            preds[to.index()].push(from);
            edge_count += 1;
        }
        for list in succs.iter_mut().chain(preds.iter_mut()) {
            list.sort_unstable();
        }

        // Kahn's algorithm with a smallest-id frontier gives a canonical,
        // deterministic topological order and detects cycles.
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut frontier: std::collections::BinaryHeap<std::cmp::Reverse<ActionId>> = indeg
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| std::cmp::Reverse(ActionId::from_index(i)))
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(a)) = frontier.pop() {
            topo.push(a);
            for &s in &succs[a.index()] {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    frontier.push(std::cmp::Reverse(s));
                }
            }
        }
        if topo.len() != n {
            let witness = cycle_witness(&succs, &indeg);
            return Err(GraphError::Cycle(witness));
        }
        let mut topo_pos = vec![0usize; n];
        for (pos, a) in topo.iter().enumerate() {
            topo_pos[a.index()] = pos;
        }
        Ok(PrecedenceGraph {
            names,
            succs,
            preds,
            topo,
            topo_pos,
            edge_count,
        })
    }

    /// Number of actions `|A|`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the graph has no actions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Number of (direct) precedence constraints.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Name of action `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` does not belong to this graph.
    #[must_use]
    pub fn name(&self, a: ActionId) -> &str {
        &self.names[a.index()]
    }

    /// Looks an action up by name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<ActionId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(ActionId::from_index)
    }

    /// Iterates over all action ids in insertion order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = ActionId> + '_ {
        (0..self.names.len()).map(ActionId::from_index)
    }

    /// Direct successors of `a` (sorted by id).
    ///
    /// # Panics
    ///
    /// Panics if `a` does not belong to this graph.
    #[must_use]
    pub fn successors(&self, a: ActionId) -> &[ActionId] {
        &self.succs[a.index()]
    }

    /// Direct predecessors of `a` (sorted by id).
    ///
    /// # Panics
    ///
    /// Panics if `a` does not belong to this graph.
    #[must_use]
    pub fn predecessors(&self, a: ActionId) -> &[ActionId] {
        &self.preds[a.index()]
    }

    /// Iterates over all direct edges `(from, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (ActionId, ActionId)> + '_ {
        self.ids()
            .flat_map(move |a| self.succs[a.index()].iter().map(move |&b| (a, b)))
    }

    /// Actions with no predecessor.
    #[must_use]
    pub fn sources(&self) -> Vec<ActionId> {
        self.ids()
            .filter(|a| self.preds[a.index()].is_empty())
            .collect()
    }

    /// Actions with no successor.
    #[must_use]
    pub fn sinks(&self) -> Vec<ActionId> {
        self.ids()
            .filter(|a| self.succs[a.index()].is_empty())
            .collect()
    }

    /// Whether `a` (strictly, transitively) precedes `b`.
    ///
    /// Runs a forward BFS from `a`; use [`PrecedenceGraph::reachability`]
    /// when many queries are needed.
    ///
    /// # Panics
    ///
    /// Panics if either action does not belong to this graph.
    #[must_use]
    pub fn precedes(&self, a: ActionId, b: ActionId) -> bool {
        assert!(b.index() < self.len(), "action {b} outside graph");
        if a == b {
            return false;
        }
        // Prune with topological positions: a precedes b only if it comes
        // earlier in every (hence the canonical) topological order.
        if self.topo_pos[a.index()] >= self.topo_pos[b.index()] {
            return false;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![a];
        seen[a.index()] = true;
        while let Some(x) = stack.pop() {
            for &s in &self.succs[x.index()] {
                if s == b {
                    return true;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// The canonical topological order (Kahn, smallest id first).
    #[must_use]
    pub fn topological_order(&self) -> &[ActionId] {
        &self.topo
    }

    /// Precomputes the full transitive closure for repeated
    /// [`Reachability::precedes`] queries.
    #[must_use]
    pub fn reachability(&self) -> Reachability {
        let n = self.len();
        let words = n.div_ceil(64);
        let mut reach = vec![0u64; n * words];
        // Process in reverse topological order so successors are final.
        for &a in self.topo.iter().rev() {
            let ai = a.index();
            // Work on a scratch row to appease the borrow checker.
            let mut row = vec![0u64; words];
            for &s in &self.succs[ai] {
                let si = s.index();
                row[si / 64] |= 1 << (si % 64);
                let src = &reach[si * words..(si + 1) * words];
                for (w, &bits) in row.iter_mut().zip(src) {
                    *w |= bits;
                }
            }
            reach[ai * words..(ai + 1) * words].copy_from_slice(&row);
        }
        Reachability { words, reach }
    }

    /// Iterator over the graph's *wavefronts*: wavefront 0 is the set of
    /// sources, wavefront `w + 1` is the set of actions whose in-degree
    /// drops to zero once wavefronts `0..=w` are removed.
    ///
    /// Each wavefront is an antichain (no precedence between its members,
    /// so they may execute concurrently), every action's direct
    /// predecessors lie in strictly earlier wavefronts, and the
    /// concatenation of all wavefronts is a topological partition of the
    /// graph. Members are yielded sorted by id, so the layering is
    /// deterministic.
    ///
    /// # Example
    ///
    /// ```
    /// use fgqos_graph::GraphBuilder;
    ///
    /// # fn main() -> Result<(), fgqos_graph::GraphError> {
    /// let mut b = GraphBuilder::new();
    /// let s = b.action("s");
    /// let l = b.action("l");
    /// let r = b.action("r");
    /// b.edge(s, l)?;
    /// b.edge(s, r)?;
    /// let g = b.build()?;
    /// let waves: Vec<_> = g.wavefronts().collect();
    /// assert_eq!(waves, vec![vec![s], vec![l, r]]);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn wavefronts(&self) -> Wavefronts<'_> {
        let indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let frontier: Vec<ActionId> = self.ids().filter(|a| indeg[a.index()] == 0).collect();
        Wavefronts {
            graph: self,
            indeg,
            frontier,
        }
    }

    /// Validates that `seq` is an execution sequence of this graph:
    /// distinct actions, order compatible with `→`, and every prefix
    /// downward closed (each action's direct predecessors occur earlier).
    ///
    /// # Errors
    ///
    /// [`GraphError::UnknownAction`], [`GraphError::DuplicateInSequence`] or
    /// [`GraphError::PrecedenceViolation`].
    pub fn validate_sequence(&self, seq: &[ActionId]) -> Result<(), GraphError> {
        let mut pos: HashMap<ActionId, usize> = HashMap::with_capacity(seq.len());
        for (i, &a) in seq.iter().enumerate() {
            if a.index() >= self.len() {
                return Err(GraphError::UnknownAction(a));
            }
            if pos.insert(a, i).is_some() {
                return Err(GraphError::DuplicateInSequence(a));
            }
        }
        for (&a, &i) in &pos {
            for &p in self.predecessors(a) {
                match pos.get(&p) {
                    Some(&j) if j < i => {}
                    _ => return Err(GraphError::PrecedenceViolation(p, a)),
                }
            }
        }
        Ok(())
    }

    /// Validates that `seq` is a *schedule*: an execution sequence in which
    /// every action occurs (Definition 2.2).
    ///
    /// # Errors
    ///
    /// The conditions of [`PrecedenceGraph::validate_sequence`], plus
    /// [`GraphError::IncompleteSchedule`].
    pub fn validate_schedule(&self, seq: &[ActionId]) -> Result<(), GraphError> {
        self.validate_sequence(seq)?;
        if seq.len() != self.len() {
            return Err(GraphError::IncompleteSchedule {
                expected: self.len(),
                actual: seq.len(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for PrecedenceGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "precedence graph with {} actions, {} edges",
            self.len(),
            self.edge_count()
        )
    }
}

/// Iterator over the in-degree-zero frontiers of a [`PrecedenceGraph`];
/// see [`PrecedenceGraph::wavefronts`].
#[derive(Debug, Clone)]
pub struct Wavefronts<'g> {
    graph: &'g PrecedenceGraph,
    indeg: Vec<usize>,
    frontier: Vec<ActionId>,
}

impl Iterator for Wavefronts<'_> {
    type Item = Vec<ActionId>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.frontier.is_empty() {
            return None;
        }
        let wave = std::mem::take(&mut self.frontier);
        for &a in &wave {
            for &s in self.graph.successors(a) {
                self.indeg[s.index()] -= 1;
                if self.indeg[s.index()] == 0 {
                    self.frontier.push(s);
                }
            }
        }
        self.frontier.sort_unstable();
        Some(wave)
    }
}

/// Precomputed transitive closure of a [`PrecedenceGraph`].
///
/// Produced by [`PrecedenceGraph::reachability`]; answers `precedes` in
/// O(1).
#[derive(Debug, Clone)]
pub struct Reachability {
    words: usize,
    reach: Vec<u64>,
}

impl Reachability {
    /// Whether `a` strictly precedes `b` in the closed relation.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range for the originating graph.
    #[must_use]
    pub fn precedes(&self, a: ActionId, b: ActionId) -> bool {
        let bi = b.index();
        self.reach[a.index() * self.words + bi / 64] >> (bi % 64) & 1 == 1
    }
}

/// Extracts one cycle from the subgraph of nodes with nonzero in-degree
/// after Kahn's algorithm stalls.
fn cycle_witness(succs: &[Vec<ActionId>], indeg: &[usize]) -> Vec<ActionId> {
    let n = succs.len();
    let in_cycle_region: Vec<bool> = indeg.iter().map(|&d| d > 0).collect();
    let start = (0..n).find(|&i| in_cycle_region[i]);
    let Some(start) = start else {
        return Vec::new();
    };
    // Walk forward inside the region until a node repeats.
    let mut seen_at: HashMap<usize, usize> = HashMap::new();
    let mut path: Vec<ActionId> = Vec::new();
    let mut cur = start;
    loop {
        if let Some(&first) = seen_at.get(&cur) {
            return path[first..].to_vec();
        }
        seen_at.insert(cur, path.len());
        path.push(ActionId::from_index(cur));
        cur = succs[cur]
            .iter()
            .map(|a| a.index())
            .find(|&s| in_cycle_region[s])
            .expect("node in cycle region must have successor in region");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> (PrecedenceGraph, [ActionId; 4]) {
        let mut b = GraphBuilder::new();
        let s = b.action("s");
        let l = b.action("l");
        let r = b.action("r");
        let t = b.action("t");
        b.edge(s, l).unwrap();
        b.edge(s, r).unwrap();
        b.edge(l, t).unwrap();
        b.edge(r, t).unwrap();
        (b.build().unwrap(), [s, l, r, t])
    }

    #[test]
    fn diamond_structure() {
        let (g, [s, l, r, t]) = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.sources(), vec![s]);
        assert_eq!(g.sinks(), vec![t]);
        assert_eq!(g.successors(s), &[l, r]);
        assert_eq!(g.predecessors(t), &[l, r]);
    }

    #[test]
    fn precedes_is_transitive_and_irreflexive() {
        let (g, [s, l, r, t]) = diamond();
        assert!(g.precedes(s, t));
        assert!(g.precedes(s, l));
        assert!(!g.precedes(l, r));
        assert!(!g.precedes(t, s));
        assert!(!g.precedes(s, s));
    }

    #[test]
    fn reachability_matches_precedes() {
        let (g, ids) = diamond();
        let rc = g.reachability();
        for &a in &ids {
            for &b in &ids {
                assert_eq!(rc.precedes(a, b), g.precedes(a, b), "{a} -> {b}");
            }
        }
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut b = GraphBuilder::new();
        let x = b.action("x");
        let y = b.action("y");
        b.edge(x, y).unwrap();
        b.edge(x, y).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn canonical_topo_order_is_deterministic_and_valid() {
        let (g, [s, l, r, t]) = diamond();
        assert_eq!(g.topological_order(), &[s, l, r, t]);
        g.validate_schedule(g.topological_order()).unwrap();
        let order = g.topological_order();
        let pos = |a: ActionId| order.iter().position(|&x| x == a).unwrap();
        for a in g.ids() {
            for &b in g.successors(a) {
                assert!(pos(a) < pos(b));
            }
        }
    }

    #[test]
    fn validate_sequence_catches_violation() {
        let (g, [s, l, _r, t]) = diamond();
        assert_eq!(
            g.validate_sequence(&[l, s]),
            Err(GraphError::PrecedenceViolation(s, l))
        );
        assert_eq!(
            g.validate_sequence(&[s, s]),
            Err(GraphError::DuplicateInSequence(s))
        );
        // t without l,r is not downward closed.
        assert!(g.validate_sequence(&[s, t]).is_err());
        // valid prefix
        g.validate_sequence(&[s, l]).unwrap();
    }

    #[test]
    fn validate_schedule_requires_all_actions() {
        let (g, [s, l, r, t]) = diamond();
        assert_eq!(
            g.validate_schedule(&[s, l]),
            Err(GraphError::IncompleteSchedule {
                expected: 4,
                actual: 2
            })
        );
        g.validate_schedule(&[s, r, l, t]).unwrap();
    }

    #[test]
    fn cycle_witness_is_a_cycle() {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..5).map(|i| b.action(format!("c{i}"))).collect();
        b.edge(ids[0], ids[1]).unwrap();
        b.edge(ids[1], ids[2]).unwrap();
        b.edge(ids[2], ids[3]).unwrap();
        b.edge(ids[3], ids[1]).unwrap(); // cycle 1->2->3->1
        b.edge(ids[3], ids[4]).unwrap();
        match b.build().unwrap_err() {
            GraphError::Cycle(w) => {
                assert_eq!(w.len(), 3);
                assert!(w.contains(&ids[1]) && w.contains(&ids[2]) && w.contains(&ids[3]));
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn empty_graph_queries() {
        let g = GraphBuilder::new().build().unwrap();
        assert!(g.is_empty());
        assert!(g.sources().is_empty());
        assert!(g.sinks().is_empty());
        g.validate_schedule(&[]).unwrap();
    }

    #[test]
    fn wavefronts_partition_the_diamond() {
        let (g, [s, l, r, t]) = diamond();
        let waves: Vec<_> = g.wavefronts().collect();
        assert_eq!(waves, vec![vec![s], vec![l, r], vec![t]]);
        // No precedence inside a wavefront.
        for w in &waves {
            for &a in w {
                for &b in w {
                    assert!(!g.precedes(a, b));
                }
            }
        }
    }

    #[test]
    fn wavefronts_of_empty_graph_are_empty() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(g.wavefronts().count(), 0);
    }

    #[test]
    fn find_by_name() {
        let (g, [s, ..]) = diamond();
        assert_eq!(g.find("s"), Some(s));
        assert_eq!(g.find("nope"), None);
    }

    #[test]
    fn display_mentions_sizes() {
        let (g, _) = diamond();
        assert_eq!(g.to_string(), "precedence graph with 4 actions, 4 edges");
    }
}
