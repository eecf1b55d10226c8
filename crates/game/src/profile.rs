//! Stacked strategy profiles.
//!
//! A profile stores every player's strategy contiguously, as in the paper's
//! stacked request vector `r = (r_1, …, r_N)`, with O(1) access to each
//! player's block.

use serde::{Deserialize, Serialize};

use crate::error::GameError;

/// All players' strategies stacked into one vector, with per-player block
/// boundaries.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    offsets: Vec<usize>, // offsets[i]..offsets[i+1] is player i's block
    data: Vec<f64>,
}

impl Clone for Profile {
    fn clone(&self) -> Self {
        Profile { offsets: self.offsets.clone(), data: self.data.clone() }
    }

    /// Reuses the existing buffers (`Vec::clone_from` keeps capacity), so
    /// solver workspaces can refresh snapshots without touching the heap.
    fn clone_from(&mut self, other: &Self) {
        self.offsets.clone_from(&other.offsets);
        self.data.clone_from(&other.data);
    }
}

impl Profile {
    /// Creates a profile from per-player dimensions, initializing every
    /// coordinate to `value`.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidGame`] if `dims` is empty or contains a
    /// zero dimension.
    pub fn uniform(dims: &[usize], value: f64) -> Result<Self, GameError> {
        Self::from_blocks(&dims.iter().map(|&d| vec![value; d]).collect::<Vec<_>>())
    }

    /// Creates a profile from explicit per-player blocks.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidGame`] if there are no players or a block
    /// is empty.
    pub fn from_blocks(blocks: &[Vec<f64>]) -> Result<Self, GameError> {
        if blocks.is_empty() {
            return Err(GameError::invalid("Profile: need at least one player"));
        }
        let mut offsets = Vec::with_capacity(blocks.len() + 1);
        let mut data = Vec::new();
        offsets.push(0);
        for (i, b) in blocks.iter().enumerate() {
            if b.is_empty() {
                return Err(GameError::invalid(format!("Profile: player {i} has empty strategy")));
            }
            data.extend_from_slice(b);
            offsets.push(data.len());
        }
        Ok(Profile { offsets, data })
    }

    /// Number of players.
    #[must_use]
    pub fn num_players(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Dimension of player `i`'s block.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn dim(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Total stacked dimension.
    #[must_use]
    pub fn total_dim(&self) -> usize {
        self.data.len()
    }

    /// Player `i`'s strategy block.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn block(&self, i: usize) -> &[f64] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Mutable access to player `i`'s strategy block.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn block_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Overwrites player `i`'s block.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `strategy` has the wrong length.
    pub fn set_block(&mut self, i: usize, strategy: &[f64]) {
        let block = self.block_mut(i);
        assert_eq!(block.len(), strategy.len(), "Profile::set_block: length mismatch");
        block.copy_from_slice(strategy);
    }

    /// The full stacked vector.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Replaces the full stacked vector.
    ///
    /// # Panics
    ///
    /// Panics if `data` has the wrong total length.
    pub fn copy_from(&mut self, data: &[f64]) {
        assert_eq!(data.len(), self.data.len(), "Profile::copy_from: length mismatch");
        self.data.copy_from_slice(data);
    }

    /// Sum over all players of coordinate `k` of each block (requires all
    /// blocks to share a dimension > `k`). Used for aggregates like the total
    /// edge demand `E = Σ eᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if some block has dimension ≤ `k`.
    #[must_use]
    pub fn aggregate(&self, k: usize) -> f64 {
        (0..self.num_players())
            .map(|i| {
                let b = self.block(i);
                assert!(
                    k < b.len(),
                    "Profile::aggregate: coordinate {k} out of range for player {i}"
                );
                b[k]
            })
            .sum()
    }

    /// Heap bytes currently reserved by the profile's buffers (capacity, not
    /// length) — used by workspace-growth assertions in the benches.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.data.capacity() * std::mem::size_of::<f64>()
    }

    /// Maximum absolute difference with another profile of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Profile) -> f64 {
        assert_eq!(self.offsets, other.offsets, "Profile::max_abs_diff: shape mismatch");
        mbm_numerics::max_abs_diff(&self.data, &other.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_round_trip() {
        let p = Profile::from_blocks(&[vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(p.num_players(), 3);
        assert_eq!(p.dim(0), 2);
        assert_eq!(p.dim(1), 1);
        assert_eq!(p.dim(2), 3);
        assert_eq!(p.total_dim(), 6);
        assert_eq!(p.block(1), &[3.0]);
        assert_eq!(p.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn uniform_profile() {
        let p = Profile::uniform(&[2, 2], 0.5).unwrap();
        assert_eq!(p.as_slice(), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn set_block_and_mutation() {
        let mut p = Profile::uniform(&[2, 2], 0.0).unwrap();
        p.set_block(1, &[7.0, 8.0]);
        assert_eq!(p.block(1), &[7.0, 8.0]);
        p.block_mut(0)[1] = -1.0;
        assert_eq!(p.as_slice(), &[0.0, -1.0, 7.0, 8.0]);
    }

    #[test]
    fn aggregate_sums_coordinates() {
        let p = Profile::from_blocks(&[vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]]).unwrap();
        assert_eq!(p.aggregate(0), 6.0);
        assert_eq!(p.aggregate(1), 60.0);
    }

    #[test]
    fn max_abs_diff_between_profiles() {
        let a = Profile::uniform(&[2], 1.0).unwrap();
        let mut b = a.clone();
        b.block_mut(0)[1] = 1.5;
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    fn validation() {
        assert!(Profile::from_blocks(&[]).is_err());
        assert!(Profile::from_blocks(&[vec![]]).is_err());
        assert!(Profile::uniform(&[2, 0], 1.0).is_err());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_block_wrong_len_panics() {
        let mut p = Profile::uniform(&[2], 0.0).unwrap();
        p.set_block(0, &[1.0]);
    }
}
