//! Levelization of a directed node graph: the static schedule behind
//! the bit-parallel backend ([`crate::bitpar`]), which orders its mixed
//! gate/switch-cell op graph with it.

use logicsim_netlist::analyze::{is_cyclic, strongly_connected_components};
use logicsim_netlist::Csr;

/// Levelization of an arbitrary directed node graph: acyclic nodes in
/// rank order plus strongly connected clusters at their condensation
/// rank.
#[derive(Debug, Clone)]
pub(crate) struct NodeLevels {
    /// Acyclic nodes in evaluation order (rank-major).
    pub order: Vec<u32>,
    /// Rank of each ordered node.
    pub ranks: Vec<u32>,
    /// Cyclic clusters as `(rank, members)`, members ascending.
    pub groups: Vec<(u32, Vec<u32>)>,
}

/// Levelizes a directed graph over dense node indices
/// `0..adj.num_rows()` (parallel edges allowed).
///
/// The netlist crate's SCC pass finds the cycles, then Kahn's algorithm
/// runs over the SCC *condensation*: singleton SCCs become ranked
/// nodes; multi-node (or self-loop) SCCs become groups carrying the
/// same rank scale, so downstream readers always rank strictly after
/// the cluster that feeds them. The FIFO queue pops in nondecreasing
/// rank order, so a node is ranked one past its highest-ranked
/// predecessor (longest path).
pub(crate) fn levelize_nodes(adj: &Csr) -> NodeLevels {
    let n = adj.num_rows();
    let sccs = strongly_connected_components(adj);
    let num_scc = sccs.num_rows();
    let mut scc_of = vec![u32::MAX; n];
    for (s, members) in sccs.rows().enumerate() {
        for &m in members {
            scc_of[m as usize] = s as u32;
        }
    }
    let mut indegree = vec![0u32; num_scc];
    for v in 0..n {
        let su = scc_of[v];
        for &r in adj.row(v) {
            let sv = scc_of[r as usize];
            if sv != su {
                indegree[sv as usize] += 1;
            }
        }
    }
    let mut queue: Vec<(u32, u32)> = (0..num_scc)
        .filter(|&s| indegree[s] == 0)
        .map(|s| (s as u32, 0))
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut ranks = Vec::with_capacity(n);
    let mut groups = Vec::new();
    let mut head = 0;
    while head < queue.len() {
        let (s, rank) = queue[head];
        head += 1;
        let members = sccs.row(s as usize);
        if is_cyclic(adj, members) {
            let mut m = members.to_vec();
            m.sort_unstable();
            groups.push((rank, m));
        } else {
            order.push(members[0]);
            ranks.push(rank);
        }
        for &m in members {
            for &r in adj.row(m as usize) {
                let sv = scc_of[r as usize];
                if sv != s {
                    let d = &mut indegree[sv as usize];
                    *d -= 1;
                    if *d == 0 {
                        queue.push((sv, rank + 1));
                    }
                }
            }
        }
    }
    debug_assert_eq!(
        order.len() + groups.iter().map(|(_, m)| m.len()).sum::<usize>(),
        n,
        "every node is either ranked or in a cyclic group"
    );
    NodeLevels {
        order,
        ranks,
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank of every node: its own when ranked, its cluster's otherwise.
    fn rank_of(nl: &NodeLevels, n: usize) -> Vec<u32> {
        let mut rank = vec![u32::MAX; n];
        for (&v, &r) in nl.order.iter().zip(&nl.ranks) {
            rank[v as usize] = r;
        }
        for (r, members) in &nl.groups {
            for &v in members {
                rank[v as usize] = *r;
            }
        }
        rank
    }

    #[test]
    fn ranked_nodes_outrank_their_ranked_predecessors() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, 1 -> 2, 3 -> 4, plus a lone node 5.
        let adj = Csr::from_rows([vec![1, 2], vec![2, 3], vec![3], vec![4], vec![], vec![]]);
        let nl = levelize_nodes(&adj);
        assert!(nl.groups.is_empty());
        assert_eq!(nl.order.len(), adj.num_rows());
        let rank = rank_of(&nl, adj.num_rows());
        for (v, readers) in adj.rows().enumerate() {
            for &r in readers {
                assert!(rank[v] < rank[r as usize], "{v} -> {r}");
            }
        }
        assert_eq!(rank, [0, 1, 2, 3, 4, 0], "longest path from a source");
        assert!(nl.ranks.windows(2).all(|w| w[0] <= w[1]), "rank-major");
    }

    #[test]
    fn cycles_become_groups_ranked_above_their_feeders() {
        // 0 -> 1 feeds the 2-cycle {2, 3} and the self-loop {4}; 5 reads
        // both clusters.
        let adj = Csr::from_rows([vec![1], vec![2, 4], vec![3], vec![2, 5], vec![4, 5], vec![]]);
        let nl = levelize_nodes(&adj);
        let mut groups = nl.groups.clone();
        groups.sort();
        assert_eq!(groups, [(2, vec![2, 3]), (2, vec![4])]);
        let mut order = nl.order.clone();
        order.sort_unstable();
        assert_eq!(order, [0, 1, 5]);
        let rank = rank_of(&nl, adj.num_rows());
        assert!(rank[1] < rank[2] && rank[1] < rank[4], "feeder below");
        assert!(rank[5] > rank[3] && rank[5] > rank[4], "reader above");
    }
}
