//! The reference table lookup: the linear scan a table's index must
//! reproduce on every key, ties included.
//!
//! [`scan`] is a pure function of a table's entries in installation order:
//! keep the entries whose every key matches (`KeyMatch::matches`), then take
//! the greatest by `(priority, Σ LPM specificity)` and, among equals, the
//! latest installed.

use flexnet_dataplane::{KeyMatch, TableEntry};

/// The index of the winning entry for `keys` in `entries`, or `None` on a
/// miss; a key tuple that is not `arity` long misses.
pub fn scan(entries: &[TableEntry], arity: usize, keys: &[u64]) -> Option<usize> {
    if keys.len() != arity {
        return None;
    }
    entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.matches.iter().zip(keys).all(|(m, k)| m.matches(*k)))
        .max_by_key(|&(i, e)| (rank(e), i))
        .map(|(i, _)| i)
}

/// `(priority, Σ specificity)`: an LPM key counts its prefix length, an
/// exact key 64, a ternary or range key 0.
fn rank(e: &TableEntry) -> (i32, u32) {
    let specificity = e
        .matches
        .iter()
        .map(|m| match m {
            KeyMatch::Exact(_) => 64,
            KeyMatch::Lpm { prefix_len, .. } => *prefix_len as u32,
            KeyMatch::Ternary { .. } | KeyMatch::Range { .. } => 0,
        })
        .sum();
    (e.priority, specificity)
}
