//! Transitive reduction of is-a links over dense node ids (§6.2, Fig. 12).
//!
//! A link `(a, c)` is redundant when a longer path `a → … → c` exists.
//! Removing the links one at a time, each checked against the links still
//! present, drops exactly the redundant ones when the graph is acyclic, in
//! whatever order: the reduction of a DAG is unique. So on a DAG one pass
//! in topological order computes every node's reach as a bitset, and a
//! link `(a, c)` is redundant when another direct superclass of `a`
//! reaches `c`. A graph with a cycle has no unique reduction; there the
//! links are removed one at a time in name order of the links, each kept
//! unless the links still present give another path.

use std::cmp::Ordering;

/// Which of `links` (between nodes `0..n`, no link twice, none a
/// self-link) the sequential removal in `name_order` drops. On a DAG the
/// order is not consulted.
pub(crate) fn redundant(
    n: usize,
    links: &[(u32, u32)],
    name_order: impl FnMut(&(u32, u32), &(u32, u32)) -> Ordering,
) -> Vec<bool> {
    match reach(n, links) {
        Some(reach) => links
            .iter()
            .map(|&(sub, sup)| {
                let ups = &reach.ups[reach.offsets[sub as usize]..reach.offsets[sub as usize + 1]];
                ups.iter().any(|&w| w != sup && reach.reaches(w, sup))
            })
            .collect(),
        None => sequential(n, links, name_order),
    }
}

/// Per node, the set of nodes its links reach (itself excluded).
struct Reach {
    /// Direct superclasses per node: `ups[offsets[a]..offsets[a + 1]]`.
    offsets: Vec<usize>,
    ups: Vec<u32>,
    words: usize,
    bits: Vec<u64>,
}

impl Reach {
    fn reaches(&self, from: u32, to: u32) -> bool {
        let row = from as usize * self.words;
        self.bits[row + to as usize / 64] & (1 << (to % 64)) != 0
    }
}

/// Reach bitsets in topological order, or `None` when the links have a
/// cycle.
fn reach(n: usize, links: &[(u32, u32)]) -> Option<Reach> {
    let mut offsets = vec![0usize; n + 1];
    for &(sub, _) in links {
        offsets[sub as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut ups = vec![0u32; links.len()];
    let mut downs: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut fill = offsets.clone();
    for &(sub, sup) in links {
        ups[fill[sub as usize]] = sup;
        fill[sub as usize] += 1;
        downs[sup as usize].push(sub);
    }
    // Kahn's order from the top: a node comes after all its superclasses.
    let mut open: Vec<usize> = (0..n).map(|a| offsets[a + 1] - offsets[a]).collect();
    let mut ready: Vec<u32> = (0..n as u32).filter(|&a| open[a as usize] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(a) = ready.pop() {
        order.push(a);
        for &d in &downs[a as usize] {
            open[d as usize] -= 1;
            if open[d as usize] == 0 {
                ready.push(d);
            }
        }
    }
    if order.len() < n {
        return None;
    }
    let words = n.div_ceil(64);
    let mut bits = vec![0u64; n * words];
    for &a in &order {
        let row = a as usize * words;
        for &sup in &ups[offsets[a as usize]..offsets[a as usize + 1]] {
            let up = sup as usize * words;
            bits[row + sup as usize / 64] |= 1 << (sup % 64);
            for w in 0..words {
                bits[row + w] |= bits[up + w];
            }
        }
    }
    Some(Reach {
        offsets,
        ups,
        words,
        bits,
    })
}

/// The removal one link at a time, in name order, each kept unless a path
/// of the links still present replaces it.
fn sequential(
    n: usize,
    links: &[(u32, u32)],
    mut name_order: impl FnMut(&(u32, u32), &(u32, u32)) -> Ordering,
) -> Vec<bool> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &(sub, _)) in links.iter().enumerate() {
        out[sub as usize].push(i);
    }
    let mut by_name: Vec<usize> = (0..links.len()).collect();
    by_name.sort_by(|&x, &y| name_order(&links[x], &links[y]));
    let mut removed = vec![false; links.len()];
    let mut seen = vec![false; n];
    for i in by_name {
        removed[i] = true;
        let (sub, sup) = links[i];
        seen.iter_mut().for_each(|s| *s = false);
        let mut stack = vec![sub];
        let mut found = false;
        'walk: while let Some(a) = stack.pop() {
            for &j in &out[a as usize] {
                if removed[j] {
                    continue;
                }
                let p = links[j].1;
                if p == sup {
                    found = true;
                    break 'walk;
                }
                if !seen[p as usize] {
                    seen[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        removed[i] = found;
    }
    removed
}
