//! Dominator and post-dominator trees (Cooper–Harvey–Kennedy algorithm).
//!
//! The post-dominator tree is computed on the reversed CFG with a *virtual
//! exit node* joining all `ret` blocks, so functions with several returns —
//! common in the benchmark kernels — are handled uniformly.

use crate::cfg::Cfg;
use gr_ir::{BlockId, Function};

/// Dominator tree over reachable blocks.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per block (`None` for entry / unreachable).
    pub idom: Vec<Option<BlockId>>,
    depth: Vec<u32>,
}

impl DomTree {
    /// Computes the dominator tree.
    #[must_use]
    pub fn new(func: &Function, cfg: &Cfg) -> DomTree {
        let n = func.blocks.len();
        let mut idom: Vec<Option<usize>> = vec![None; n];
        if n == 0 {
            return DomTree { idom: Vec::new(), depth: Vec::new() };
        }
        let entry = func.entry().index();
        idom[entry] = Some(entry);
        let pos = |b: usize| cfg.rpo_pos[b];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().skip(1) {
                let b = b.index();
                let mut new_idom: Option<usize> = None;
                for p in &cfg.preds[b] {
                    let p = p.index();
                    if idom[p].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &pos, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b] != Some(ni) {
                        idom[b] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        let mut depth = vec![0u32; n];
        for &b in &cfg.rpo {
            let b = b.index();
            if b != entry {
                if let Some(d) = idom[b] {
                    depth[b] = depth[d] + 1;
                }
            }
        }
        let idom = idom
            .iter()
            .enumerate()
            .map(|(b, d)| match d {
                Some(d) if *d != b => Some(BlockId(*d as u32)),
                Some(_) => None, // entry points at itself internally
                None => None,
            })
            .collect();
        DomTree { idom, depth }
    }

    /// Whether block `a` dominates block `b` (reflexive).
    #[must_use]
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(next) => cur = next,
                None => return false,
            }
        }
    }

    /// Dominator-tree depth of a block (entry = 0).
    #[must_use]
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth[b.index()]
    }
}

fn intersect(
    idom: &[Option<usize>],
    pos: &impl Fn(usize) -> Option<usize>,
    mut a: usize,
    mut b: usize,
) -> usize {
    loop {
        if a == b {
            return a;
        }
        let (pa, pb) = match (pos(a), pos(b)) {
            (Some(pa), Some(pb)) => (pa, pb),
            _ => return a,
        };
        if pa > pb {
            a = idom[a].expect("processed block must have idom");
        } else {
            b = idom[b].expect("processed block must have idom");
        }
    }
}

/// Post-dominator tree node space: real blocks `0..n` plus the virtual exit
/// at index `n`.
#[derive(Debug, Clone)]
pub struct PostDomTree {
    /// Immediate post-dominator per block index; `n` denotes the virtual
    /// exit node.
    pub ipdom: Vec<Option<usize>>,
    n: usize,
}

impl PostDomTree {
    /// Computes post-dominators on the reversed CFG with a virtual exit.
    #[must_use]
    pub fn new(func: &Function, cfg: &Cfg) -> PostDomTree {
        let n = func.blocks.len();
        let virtual_exit = n;
        // Reverse CFG: succs_rev[b] = preds[b]; virtual exit preds = exits.
        let exits: Vec<usize> = cfg.exits().iter().map(|b| b.index()).collect();
        // Postorder on the reverse graph starting from the virtual exit.
        let mut visited = vec![false; n + 1];
        let mut order: Vec<usize> = Vec::new(); // postorder
        let mut stack: Vec<(usize, usize)> = vec![(virtual_exit, 0)];
        visited[virtual_exit] = true;
        let rev_succs = |node: usize| -> Vec<usize> {
            if node == virtual_exit {
                exits.clone()
            } else {
                cfg.preds[node].iter().map(|p| p.index()).collect()
            }
        };
        while let Some(&mut (node, ref mut i)) = stack.last_mut() {
            let ss = rev_succs(node);
            if *i < ss.len() {
                let s = ss[*i];
                *i += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                order.push(node);
                stack.pop();
            }
        }
        let mut rpo_pos = vec![None; n + 1];
        let rpo: Vec<usize> = order.iter().rev().copied().collect();
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b] = Some(i);
        }
        let mut ipdom: Vec<Option<usize>> = vec![None; n + 1];
        ipdom[virtual_exit] = Some(virtual_exit);
        let pos = |b: usize| rpo_pos[b];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_ipdom: Option<usize> = None;
                // Predecessors in reverse graph = successors in real graph
                // (or virtual exit for exit blocks).
                let mut rev_preds: Vec<usize> = cfg.succs[b].iter().map(|s| s.index()).collect();
                if exits.contains(&b) {
                    rev_preds.push(virtual_exit);
                }
                for p in rev_preds {
                    if ipdom[p].is_none() {
                        continue;
                    }
                    new_ipdom = Some(match new_ipdom {
                        None => p,
                        Some(cur) => intersect(&ipdom, &pos, cur, p),
                    });
                }
                if let Some(ni) = new_ipdom {
                    if ipdom[b] != Some(ni) {
                        ipdom[b] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        PostDomTree { ipdom, n }
    }

    /// Whether block `a` post-dominates block `b` (reflexive).
    #[must_use]
    pub fn postdominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b.index();
        loop {
            if cur == a.index() {
                return true;
            }
            match self.ipdom[cur] {
                Some(next) if next != cur => cur = next,
                _ => return false,
            }
        }
    }

    /// Index of the virtual exit node.
    #[must_use]
    pub fn virtual_exit(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_frontend::compile;

    fn analyses(src: &str, name: &str) -> (gr_ir::Module, usize) {
        let m = compile(src).unwrap();
        let idx = m.functions.iter().position(|f| f.name == name).unwrap();
        (m, idx)
    }

    #[test]
    fn diamond_dominance() {
        let (m, i) =
            analyses("int f(int a) { int x = 0; if (a > 0) x = 1; else x = 2; return x; }", "f");
        let f = &m.functions[i];
        let cfg = Cfg::new(f);
        let dom = DomTree::new(f, &cfg);
        let entry = f.entry();
        let merge = *cfg.rpo.last().unwrap();
        // entry dominates everything; neither branch dominates the merge.
        for b in f.block_ids() {
            assert!(dom.dominates(entry, b));
        }
        let then_b = cfg.succs[entry.index()][0];
        assert!(!dom.dominates(then_b, merge));
        assert_eq!(dom.idom[merge.index()], Some(entry));
    }

    #[test]
    fn diamond_postdominance() {
        let (m, i) =
            analyses("int f(int a) { int x = 0; if (a > 0) x = 1; else x = 2; return x; }", "f");
        let f = &m.functions[i];
        let cfg = Cfg::new(f);
        let pd = PostDomTree::new(f, &cfg);
        let entry = f.entry();
        let merge = *cfg.rpo.last().unwrap();
        assert!(pd.postdominates(merge, entry));
        let then_b = cfg.succs[entry.index()][0];
        assert!(!pd.postdominates(then_b, entry));
        assert!(pd.postdominates(merge, then_b));
    }

    #[test]
    fn loop_header_dominates_body_and_exit() {
        let (m, i) = analyses(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
            "f",
        );
        let f = &m.functions[i];
        let cfg = Cfg::new(f);
        let dom = DomTree::new(f, &cfg);
        // header is the only block with 2 preds
        let header = f.block_ids().find(|b| cfg.preds[b.index()].len() == 2).expect("loop header");
        for b in f.block_ids() {
            if b != f.entry() {
                assert!(dom.dominates(header, b) || b == header, "header should dominate {b}");
            }
        }
    }

    #[test]
    fn multiple_returns_postdominated_by_virtual_exit_only() {
        let (m, i) = analyses("int f(int a) { if (a > 0) { return 1; } return 2; }", "f");
        let f = &m.functions[i];
        let cfg = Cfg::new(f);
        let pd = PostDomTree::new(f, &cfg);
        let exits = cfg.exits();
        assert_eq!(exits.len(), 2);
        // Neither exit postdominates the entry.
        for e in exits {
            assert!(!pd.postdominates(e, f.entry()));
        }
    }

    #[test]
    fn depth_increases_down_the_tree() {
        let (m, i) = analyses(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { if (i > 2) s += i; } return s; }",
            "f",
        );
        let f = &m.functions[i];
        let cfg = Cfg::new(f);
        let dom = DomTree::new(f, &cfg);
        assert_eq!(dom.depth(f.entry()), 0);
        let deepest = f.block_ids().map(|b| dom.depth(b)).max().unwrap();
        assert!(deepest >= 3);
    }
}
