//! Execution profiling: per-block execution counts.
//!
//! Because every instruction of a block executes when the block does,
//! block counts give exact dynamic instruction counts. The runtime-coverage
//! figures of the paper (Figures 12–14) are computed as the fraction of
//! dynamic instructions attributed to blocks inside reduction loops.

use gr_ir::{BlockId, Function, Module};
use std::collections::HashMap;

/// Per-block execution counts, keyed by function index in the module.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    counts: HashMap<usize, Vec<u64>>,
}

impl Profile {
    /// Creates an empty profile.
    #[must_use]
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Records one execution of a block.
    pub fn record(&mut self, func_index: usize, block: BlockId, blocks_in_func: usize) {
        let v = self.counts.entry(func_index).or_insert_with(|| vec![0; blocks_in_func]);
        if v.len() < blocks_in_func {
            v.resize(blocks_in_func, 0);
        }
        v[block.index()] += 1;
    }

    /// Takes back one recorded execution of a block.
    pub(crate) fn take_back(&mut self, func_index: usize, block: BlockId) {
        if let Some(c) = self.counts.get_mut(&func_index).and_then(|v| v.get_mut(block.index())) {
            *c -= 1;
        }
    }

    /// Executions of one block.
    #[must_use]
    pub fn block_count(&self, func_index: usize, block: BlockId) -> u64 {
        self.counts
            .get(&func_index)
            .and_then(|v| v.get(block.index()))
            .copied()
            .unwrap_or(0)
    }

    /// Total dynamic instructions across the module.
    #[must_use]
    pub fn total_instructions(&self, module: &Module) -> u64 {
        let mut total = 0;
        for (fi, blocks) in &self.counts {
            if let Some(f) = module.functions.get(*fi) {
                for (bi, count) in blocks.iter().enumerate() {
                    if let Some(b) = f.blocks.get(bi) {
                        total += count * b.insts.len() as u64;
                    }
                }
            }
        }
        total
    }

    /// Dynamic instructions attributed to the given blocks of a function.
    #[must_use]
    pub fn instructions_in(&self, module: &Module, func: &Function, blocks: &[BlockId]) -> u64 {
        let Some(fi) = module.functions.iter().position(|f| f.name == func.name) else {
            return 0;
        };
        blocks
            .iter()
            .map(|&b| self.block_count(fi, b) * func.block(b).insts.len() as u64)
            .sum()
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &Profile) {
        for (fi, blocks) in &other.counts {
            let v = self.counts.entry(*fi).or_insert_with(|| vec![0; blocks.len()]);
            if v.len() < blocks.len() {
                v.resize(blocks.len(), 0);
            }
            for (bi, c) in blocks.iter().enumerate() {
                v[bi] += c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut p = Profile::new();
        p.record(0, BlockId(1), 3);
        p.record(0, BlockId(1), 3);
        p.record(1, BlockId(0), 1);
        assert_eq!(p.block_count(0, BlockId(1)), 2);
        assert_eq!(p.block_count(0, BlockId(0)), 0);
        assert_eq!(p.block_count(1, BlockId(0)), 1);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Profile::new();
        a.record(0, BlockId(0), 2);
        let mut b = Profile::new();
        b.record(0, BlockId(0), 2);
        b.record(0, BlockId(1), 2);
        a.merge(&b);
        assert_eq!(a.block_count(0, BlockId(0)), 2);
        assert_eq!(a.block_count(0, BlockId(1)), 1);
    }
}
