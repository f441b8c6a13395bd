//! Max-flow sampler assignment (paper §V-B, Fig. 4).
//!
//! Each NDP unit owns `S` miss-curve samplers, and a sampler can only watch a
//! stream that the local unit actually accesses. Covering as many streams as
//! possible is a bipartite matching problem: max-flow on source → units
//! (capacity `S`) → streams (capacity 1, edge iff accessed) → sink.
//!
//! The network is implicit. `left[u]` holds unit `u`'s free samplers and
//! `owner[s]` the unit sampling stream `s`; the search makes Edmonds–Karp's
//! augmentations in Edmonds–Karp's order on that network (DESIGN.md §17),
//! so the assignment is the one the edge-list solver produced.

use std::collections::VecDeque;

/// Result of assigning samplers to streams for one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplerAssignment {
    /// `stream → Some(unit)` for covered streams.
    pub unit_for_stream: Vec<Option<usize>>,
    /// Number of streams covered.
    pub covered: usize,
}

/// Assigns up to `samplers_per_unit` streams to each unit, maximizing stream
/// coverage. `accessed[u]` lists the stream indices unit `u` touched this
/// epoch (the per-unit bitvector of §V-B), each at most once.
pub fn assign_samplers(
    accessed: &[Vec<usize>],
    num_streams: usize,
    samplers_per_unit: usize,
) -> SamplerAssignment {
    debug_assert!(lists_are_sets(accessed, num_streams), "a stream listed twice or out of range");
    let units = accessed.len();
    let mut left = vec![samplers_per_unit; units];
    let mut owner: Vec<Option<usize>> = vec![None; num_streams];
    let mut covered = 0;

    // Length-3 paths first: Edmonds–Karp's BFS queues every unit with free
    // samplers before any stream, so it takes the lowest such unit's first
    // unowned stream, in list order, for as long as one exists.
    for (u, streams) in accessed.iter().enumerate() {
        for &s in streams {
            if left[u] == 0 {
                break;
            }
            if owner[s].is_none() {
                owner[s] = Some(u);
                left[u] -= 1;
                covered += 1;
            }
        }
    }

    // Longer paths: BFS from the units with free samplers, in index order;
    // a unit reaches the listed streams it does not own, an owned stream
    // reaches its owner, and an unowned one ends the path.
    let mut via_stream: Vec<Option<usize>> = vec![None; units];
    let mut seen_unit = vec![false; units];
    let mut from_unit: Vec<Option<usize>> = vec![None; num_streams];
    let mut queue = VecDeque::new();
    loop {
        seen_unit.fill(false);
        from_unit.fill(None);
        queue.clear();
        for u in (0..units).filter(|&u| left[u] > 0) {
            seen_unit[u] = true;
            via_stream[u] = None;
            queue.push_back(u);
        }
        let mut end = None;
        'bfs: while let Some(u) = queue.pop_front() {
            for &s in &accessed[u] {
                if owner[s] == Some(u) || from_unit[s].is_some() {
                    continue;
                }
                from_unit[s] = Some(u);
                match owner[s] {
                    None => {
                        end = Some(s);
                        break 'bfs;
                    }
                    Some(o) if !seen_unit[o] => {
                        seen_unit[o] = true;
                        via_stream[o] = Some(s);
                        queue.push_back(o);
                    }
                    Some(_) => {}
                }
            }
        }
        let Some(mut s) = end else {
            break;
        };
        // Augment: each stream on the path passes to the unit before it.
        loop {
            let u = from_unit[s].expect("a path stream was reached from a unit");
            owner[s] = Some(u);
            match via_stream[u] {
                Some(prev) => s = prev,
                None => {
                    left[u] -= 1;
                    break;
                }
            }
        }
        covered += 1;
    }
    SamplerAssignment { unit_for_stream: owner, covered }
}

/// Whether every list names each stream at most once, all below
/// `num_streams`: a repeated entry would be a parallel edge, which the
/// edge-list solver's search order depended on.
fn lists_are_sets(accessed: &[Vec<usize>], num_streams: usize) -> bool {
    let mut last = vec![usize::MAX; num_streams];
    accessed.iter().enumerate().all(|(u, streams)| {
        streams.iter().all(|&s| s < num_streams && std::mem::replace(&mut last[s], u) != u)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig4_example() {
        // Fig. 4a: unit 0 accesses {0,1}, unit 1 {1,2}, unit 2 {2,3}. With
        // S = 4 samplers, all 4 streams are coverable.
        let accessed = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        let a = assign_samplers(&accessed, 4, 4);
        assert_eq!(a.covered, 4);
        for (s, unit) in a.unit_for_stream.iter().enumerate() {
            let u = unit.expect("all covered");
            assert!(accessed[u].contains(&s), "sampler not at an accessing unit");
        }
    }

    #[test]
    fn sampler_budget_is_respected() {
        // One unit with 1 sampler accessing 3 streams: only one covered.
        let accessed = vec![vec![0, 1, 2]];
        let a = assign_samplers(&accessed, 3, 1);
        assert_eq!(a.covered, 1);
        assert_eq!(a.unit_for_stream.iter().flatten().count(), 1);
    }

    #[test]
    fn untouched_streams_stay_unassigned() {
        let accessed = vec![vec![0], vec![0]];
        let a = assign_samplers(&accessed, 2, 4);
        assert_eq!(a.covered, 1);
        assert!(a.unit_for_stream[1].is_none());
    }

    #[test]
    fn scales_to_512_streams() {
        // 64 units × 4 samplers = 256 sampler slots; 512 streams each
        // accessible everywhere: exactly 256 covered.
        let accessed: Vec<Vec<usize>> = (0..64).map(|_| (0..512).collect()).collect();
        let a = assign_samplers(&accessed, 512, 4);
        assert_eq!(a.covered, 256);
    }
}
