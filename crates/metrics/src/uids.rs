//! The exact set of delivered packet uids, kept as one bitmap per origin.
//!
//! Every agent mints a uid as `(node << 40) | counter`, the counter running
//! from 0 at each node. A run's delivered uids are therefore dense runs of
//! counters under a few origins, and one bit per counter holds them in an
//! eighth of the words a hash slot per uid takes, with no rehash at the
//! peak. A uid of any other shape (a node id past `u16`, or a counter so
//! far out that its bitmap would be nearly all zeros) goes to an ordinary
//! hash set, so the set stays exact for every `u64`.

use sim_core::U64HashSet;

/// Low bits of a uid that hold its node's counter.
const COUNTER_BITS: u32 = 40;
/// Counters at or past this go to the fallback set: 2^24 counters are a
/// 2 MiB bitmap, far beyond what any node mints in a run.
const DENSE_COUNTERS: u64 = 1 << 24;

/// A set of `u64` uids, exact, with one bit per uid of the minted shape.
#[derive(Debug, Default, Clone)]
pub(crate) struct UidSet {
    /// Bit `counter % 64` of word `counter / 64` of `dense[node]` marks
    /// uid `(node << 40) | counter`.
    dense: Vec<Vec<u64>>,
    /// Every uid outside the minted shape.
    sparse: U64HashSet<u64>,
}

impl UidSet {
    /// Adds `uid`; returns whether it was absent.
    pub(crate) fn insert(&mut self, uid: u64) -> bool {
        let node = uid >> COUNTER_BITS;
        let counter = uid & ((1 << COUNTER_BITS) - 1);
        if node > u64::from(u16::MAX) || counter >= DENSE_COUNTERS {
            return self.sparse.insert(uid);
        }
        let (node, word) = (node as usize, (counter / 64) as usize);
        if node >= self.dense.len() {
            self.dense.resize_with(node + 1, Vec::new);
        }
        let words = &mut self.dense[node];
        if word >= words.len() {
            words.resize(word + 1, 0);
        }
        let bit = 1u64 << (counter % 64);
        let absent = words[word] & bit == 0;
        words[word] |= bit;
        absent
    }
}

#[cfg(test)]
mod tests {
    use sim_core::testkit::{cases, Step};
    use sim_core::SimRng;

    use super::*;

    /// A uid of the minted shape, its counter near a word edge, near the
    /// dense limit or anywhere in between; or one outside the shape.
    fn draw(rng: &mut SimRng, nodes: u64) -> u64 {
        let mut node = rng.random_range(0..nodes);
        let counter = match rng.random_range(0..8u32) {
            0..=2 => rng.random_range(0..512u64),
            3 => 64 * rng.random_range(0..16u64) + [0, 1, 62, 63][rng.random_range(0..4usize)],
            4 => {
                // Each node here costs a 2 MiB bitmap: two nodes at most.
                node %= 2;
                DENSE_COUNTERS - 1 - rng.random_range(0..3u64)
            }
            5 => DENSE_COUNTERS + rng.random_range(0..3u64),
            6 => rng.random_range(0..1u64 << COUNTER_BITS),
            _ => return rng.random(),
        };
        node << COUNTER_BITS | counter
    }

    #[test]
    fn matches_a_hash_set() {
        cases("uid-set", 0..64, |_, rng| {
            let nodes = [1, 3, 100, 1 << 16][rng.random_range(0..4usize)];
            let mut set = UidSet::default();
            let mut reference = U64HashSet::default();
            let mut seen = Vec::new();
            for step in 0..600 {
                let _at = Step(step);
                // Duplicates: now and then a uid inserted before.
                let uid = if !seen.is_empty() && rng.random_bool(0.3) {
                    seen[rng.random_range(0..seen.len())]
                } else {
                    draw(rng, nodes)
                };
                seen.push(uid);
                assert_eq!(set.insert(uid), reference.insert(uid), "uid {uid:#x}");
            }
        });
    }

    #[test]
    fn the_edges_of_the_shape() {
        let mut set = UidSet::default();
        let last_node = u64::from(u16::MAX) << COUNTER_BITS;
        for uid in [
            0,
            63,
            64,
            last_node | (DENSE_COUNTERS - 1),
            DENSE_COUNTERS,
            (u64::from(u16::MAX) + 1) << COUNTER_BITS,
            u64::MAX,
        ] {
            assert!(set.insert(uid), "{uid:#x} is new");
            assert!(!set.insert(uid), "{uid:#x} is a duplicate");
        }
        assert_eq!(set.sparse.len(), 3, "past the counter limit, past u16 nodes, u64::MAX");
        assert_eq!(set.dense[0], [1 << 63 | 1, 1], "counters 0, 63 and 64");
    }
}
