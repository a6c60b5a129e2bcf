//! Exact decisions where the model separates by node.
//!
//! The paper arbitrates bandwidth per node (§III.A). When every application
//! keeps its data NUMA-local ([`DataPlacement::Local`]), the solver's
//! remote-first stage serves nothing, so a node's GFLOPS depend only on its
//! own column of thread counts, and [`Objective::TotalGflops`] is a sum of
//! per-node terms. With every application keeping at least one thread
//! machine-wide, the optimum is a DP over nodes whose state is the set of
//! applications served so far.
//!
//! [`ColumnTable::build`] keeps one column per distinct node shape (core
//! count and bandwidth) and served-application mask S, in closed form. The
//! *vertex* (one thread to each application of S, every other core to the
//! one of lowest per-thread demand `u + n`, the last of equals) is the
//! mask's best. In [`LocalColumn`]'s form `A + r·B`, `r = min(1, (C −
//! U)/N)`, a thread delivers `ai·(u + r·n)`: with `u + n = peak/ai` and `u
//! = min(u + n, C/cores)` that is the peak for `n = 0`, else `peak·(r + (1
//! − r)·u/(u + n))`, so a thread of lower demand never delivers less.
//! Moving a thread of another served application to the lowest-demand one
//! raises neither `U` nor `N`, so `r` does not fall and no thread delivers
//! less.
//! Full columns suffice: a thread more of the served application with the
//! highest AI never lowers a node's score — unsaturated it adds a core's
//! peak, saturated it moves bandwidth to the application that turns it
//! into the most GFLOPS. Weighted, an interior column can beat the vertex
//! (`[0, 0, 17, 12]` against `[0, 0, 28, 1]` on a 29-core node), so the
//! table takes [`Objective::TotalGflops`] only.
//!
//! Columns tie where a node has bandwidth to spare (unsaturated, every
//! full column delivers cores × peak), and the table keeps the
//! lexicographically smallest tie: in index order each application of S
//! takes the fewest threads from which the vertex of those after it still
//! ties, and the last takes the rest. A column's score folds `count ·
//! terms` in app order, skipping zero counts.
//!
//! The build then merges the tables of each consecutive node pair once, for
//! every mask. [`ColumnTable::decide`] answers any live subset of the applications
//! from those tables: a column of the full set with zeros for the dead
//! applications is exactly a column of the live subset, so a decision scores
//! no column. A merge at one mask of `k` applications costs `O(k·2^k)` (a
//! superset-maximum pass over one table, then one lookup per submask), so on
//! a machine of up to four nodes a decision is one such merge of two pair
//! tables; each further node pair adds a merge at every submask of the live
//! set.
//!
//! It declines (`None`) a coupled mix (any non-local application), any
//! objective but [`Objective::TotalGflops`], more than [`MAX_APPS`]
//! applications, and a live set with more applications than the machine
//! has cores; the caller then searches otherwise.
//!
//! Determinism: a candidate replaces the incumbent only if it scores higher
//! by more than 1e-12 relative; within that it is a tie, and the
//! lexicographically smaller column (in app order) or count matrix
//! (app-major, rows in the table's app order) wins. Every decision is a
//! fixed function of its inputs.
//!
//! [`DataPlacement::Local`]: roofline_numa::DataPlacement::Local

use crate::search::{SearchCounters, SearchResult};
use crate::Objective;
use numa_topology::{Machine, NodeId};
use roofline_numa::{AppSpec, LocalColumn, ThreadAssignment};
use std::cmp::Ordering;

/// Most applications a table covers: it keeps `2^MAX_APPS` masks per node
/// shape and per merged pair.
pub const MAX_APPS: usize = 10;

/// Relative margin by which a candidate must beat the incumbent to replace
/// it; closer scores are ties, resolved by the lexicographic order.
const TIE: f64 = 1e-12;

/// How far a score may differ from the incumbent `top` and still tie it: a
/// score that exceeds `top` by more replaces it. 0 for no incumbent
/// (`NEG_INFINITY`), which any finite score replaces.
fn margin(top: f64) -> f64 {
    let tie = TIE * top.abs();
    if top == f64::NEG_INFINITY {
        0.0
    } else {
        tie
    }
}

/// The best choice per served-application mask over a run of consecutive
/// nodes: one node's columns, a merged pair, or a decision's prefix.
#[derive(Debug, Clone)]
struct Table {
    apps: usize,
    /// Nodes covered.
    width: usize,
    /// `score[mask]`; `NEG_INFINITY` where nothing serves exactly `mask`.
    score: Vec<f64>,
    /// `cells[(mask * apps + app) * width + node]`: the kept thread counts.
    cells: Vec<u32>,
}

impl Table {
    fn empty(apps: usize, width: usize) -> Table {
        Table {
            apps,
            width,
            score: vec![f64::NEG_INFINITY; 1 << apps],
            cells: vec![0; (width * apps) << apps],
        }
    }

    /// One node shape's kept column per served mask (module docs); each
    /// column is written in place, each candidate scored as the fold of
    /// its counts.
    fn columns(column: &LocalColumn, cores: usize, apps: usize) -> Table {
        let mut table = Table::empty(apps, 1);
        let served = |mask: usize| (0..apps).filter(move |a| mask >> a & 1 == 1);
        // One thread to each app of `mask`, the rest of `left` cores to its
        // app of lowest demand, the last of equals.
        let vertex = |cells: &mut [u32], mask: usize, left: usize| {
            let demand = |a: usize| column.terms(a)[0] + column.terms(a)[1];
            let low = served(mask).reduce(|low, a| if demand(a) <= demand(low) { a } else { low });
            served(mask).for_each(|a| cells[a] = 1);
            cells[low.expect("a served app")] += (left - mask.count_ones() as usize) as u32;
        };
        let score = |cells: &[u32]| {
            let counted = (0..apps).filter(|&a| cells[a] > 0);
            column.gflops(counted.fold([0.0; 4], |sums, a| {
                let (x, terms) = (f64::from(cells[a]), column.terms(a));
                [0, 1, 2, 3].map(|c| sums[c] + x * terms[c])
            }))
        };
        for mask in 1usize..1 << apps {
            if mask.count_ones() as usize > cores {
                continue;
            }
            let cells = &mut table.cells[mask * apps..(mask + 1) * apps];
            vertex(cells, mask, cores);
            let best = score(cells);
            let (mut kept, mut rest, mut left) = (best, mask, cores);
            while rest & (rest - 1) != 0 {
                let app = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                // `app` takes the fewest threads from which the vertex of the
                // apps after it still ties `best`: its count now ties, and
                // one thread is the fewest it may take.
                if cells[app] > 1 {
                    for t in 1..=cells[app] {
                        cells[app] = t;
                        vertex(cells, rest, left - t as usize);
                        kept = score(cells);
                        if best - kept <= margin(best) {
                            break;
                        }
                    }
                }
                left -= cells[app] as usize;
            }
            table.score[mask] = kept;
        }
        table
    }

    /// App `app`'s kept counts for `mask`, one per covered node.
    fn row(&self, mask: usize, app: usize) -> &[u32] {
        let at = (mask * self.apps + app) * self.width;
        &self.cells[at..at + self.width]
    }

    /// App-major order of the count matrices of two ways `(a, b)` to merge
    /// `left` (first) with `right`.
    fn cmp_merged(left: &Table, right: &Table, x: (usize, usize), y: (usize, usize)) -> Ordering {
        (0..left.apps)
            .map(|app| {
                let head = left.row(x.0, app).cmp(left.row(y.0, app));
                head.then_with(|| right.row(x.1, app).cmp(right.row(y.1, app)))
            })
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// The best `(score, a, b)` with `a ∪ b = x`, `a` from `left` and `b`
    /// from `right`. For each `a ⊆ x` the best `b` lies between `x ∖ a` and
    /// `x`, so one superset-maximum pass over the right table's submasks of
    /// `x` (`|x|·2^|x|`, kept in `up`) leaves one lookup per `a`. Ties keep
    /// the lexicographically smaller right rows in the pass and the smaller
    /// merged matrix across `a`.
    fn best_cover(
        left: &Table,
        right: &Table,
        x: usize,
        up: &mut [(f64, usize)],
    ) -> Option<(f64, usize, usize)> {
        for y in submasks(x) {
            up[y] = (right.score[y], y);
        }
        let rows_lt = |b: usize, c: usize| {
            let mut rows = (0..right.apps).map(|app| right.row(b, app).cmp(right.row(c, app)));
            rows.find(|o| o.is_ne()) == Some(Ordering::Less)
        };
        let mut bits = x;
        while bits != 0 {
            let bit = bits & bits.wrapping_neg();
            bits &= bits - 1;
            for y in submasks(x & !bit) {
                let ((from, b), (to, c)) = (up[y | bit], up[y]);
                let (d, within) = (from - to, margin(to));
                if d > within || (d >= -within && b != c && rows_lt(b, c)) {
                    up[y] = (from, b);
                }
            }
        }
        let (mut top, mut within, mut pick) = (f64::NEG_INFINITY, 0.0, (0, 0));
        for a in submasks(x) {
            let (tail, b) = up[x & !a];
            let score = left.score[a] + tail;
            let d = score - top;
            if d > within || (d >= -within && Table::cmp_merged(left, right, (a, b), pick).is_lt())
            {
                (top, within, pick) = (score, margin(score), (a, b));
            }
        }
        (top > f64::NEG_INFINITY).then_some((top, pick.0, pick.1))
    }

    /// `left` followed by `right`, for every mask in `masks`.
    fn merge(left: &Table, right: &Table, masks: impl Iterator<Item = usize>) -> Table {
        let mut out = Table::empty(left.apps, left.width + right.width);
        let mut up = vec![(f64::NEG_INFINITY, 0); 1 << left.apps];
        for x in masks {
            let Some((score, a, b)) = Table::best_cover(left, right, x, &mut up) else {
                continue;
            };
            out.score[x] = score;
            for app in 0..left.apps {
                let at = (x * out.apps + app) * out.width;
                out.cells[at..at + left.width].copy_from_slice(left.row(a, app));
                out.cells[at + left.width..at + out.width].copy_from_slice(right.row(b, app));
            }
        }
        out
    }
}

/// The per-shape column tables and per-pair merges of one machine and
/// application list, built once; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct ColumnTable {
    apps: usize,
    /// One column table per distinct node shape, then one merge per
    /// distinct pair of adjacent shapes.
    tables: Vec<Table>,
    /// Per pair of consecutive nodes (and a lone last node), its table.
    blocks: Vec<usize>,
    scored: usize,
}

/// The submasks of `mask`, from `mask` itself down to 0.
fn submasks(mask: usize) -> impl Iterator<Item = usize> {
    // The next submask is `(sub - 1) & mask`; `sub` is 0 once 0 was yielded.
    let mut sub = mask + 1;
    std::iter::from_fn(move || {
        (sub != 0).then(|| {
            sub = sub.wrapping_sub(1) & mask;
            sub
        })
    })
}

impl ColumnTable {
    /// Keeps the columns of every distinct node shape and merges each
    /// consecutive node pair. `None` outside the exact path: see the
    /// [module docs](self).
    pub fn build(machine: &Machine, apps: &[AppSpec], objective: &Objective) -> Option<Self> {
        let k = apps.len();
        if k == 0 || k > MAX_APPS || *objective != Objective::TotalGflops {
            return None;
        }
        let mut shapes: Vec<(usize, u64, NodeId)> = Vec::new();
        let node_shape: Vec<usize> = (machine.nodes())
            .map(|n| {
                let key = (n.num_cores(), n.bandwidth_gbs.to_bits());
                (shapes.iter().position(|&(c, b, _)| (c, b) == key)).unwrap_or_else(|| {
                    shapes.push((key.0, key.1, n.id));
                    shapes.len() - 1
                })
            })
            .collect();
        let mut table = ColumnTable {
            apps: k,
            tables: Vec::new(),
            blocks: Vec::new(),
            scored: 0,
        };
        for &(cores, _, node) in &shapes {
            let shape = Table::columns(&LocalColumn::new(machine, node, apps)?, cores, k);
            table.scored += shape.score.iter().filter(|s| s.is_finite()).count();
            table.tables.push(shape);
        }
        let mut merged: Vec<(usize, usize)> = Vec::new();
        for pair in node_shape.chunks(2) {
            let block = match *pair {
                [l, r] => match merged.iter().position(|&p| p == (l, r)) {
                    Some(i) => shapes.len() + i,
                    None => {
                        let (left, right) = (&table.tables[l], &table.tables[r]);
                        let pairs = Table::merge(left, right, 0..1 << k);
                        merged.push((l, r));
                        table.tables.push(pairs);
                        table.tables.len() - 1
                    }
                },
                [lone] => lone,
                _ => unreachable!("chunks of two"),
            };
            table.blocks.push(block);
        }
        Some(table)
    }

    /// The exact best over all of `apps`, building its table: `evaluations`
    /// counts the columns kept.
    pub fn search(
        machine: &Machine,
        apps: &[AppSpec],
        objective: &Objective,
    ) -> Option<SearchResult> {
        let table = Self::build(machine, apps, objective)?;
        let live: Vec<usize> = (0..apps.len()).collect();
        let mut found = table.decide(&live)?;
        found.evaluations = table.columns();
        Some(found)
    }

    /// Columns kept building the table: one per node shape and served mask.
    pub fn columns(&self) -> usize {
        self.scored
    }

    /// The exact best assignment of the applications `live` (indices into
    /// the table's applications, distinct), every one keeping at least one
    /// thread; its rows follow `live`. Scores no column: `evaluations` is 0
    /// and the counters are zero (no solve).
    pub fn decide(&self, live: &[usize]) -> Option<SearchResult> {
        let target = live.iter().try_fold(0usize, |mask, &a| {
            (a < self.apps && mask & 1 << a == 0).then_some(mask | 1 << a)
        })?;
        let (&last, middle) = self.blocks.split_last()?;
        if target == 0 {
            return None;
        }
        let last = &self.tables[last];
        let mut prefix: Option<Table> = None;
        for &block in middle.iter().skip(1) {
            let before = prefix.as_ref().unwrap_or(&self.tables[middle[0]]);
            prefix = Some(Table::merge(before, &self.tables[block], submasks(target)));
        }
        let (score, parts) = match prefix.as_ref().or(middle.first().map(|&b| &self.tables[b])) {
            None => (last.score[target], vec![(last, target)]),
            Some(before) => {
                let mut up = vec![(f64::NEG_INFINITY, 0); 1 << self.apps];
                let (score, a, b) = Table::best_cover(before, last, target, &mut up)?;
                (score, vec![(before, a), (last, b)])
            }
        };
        let rows = (live.iter())
            .map(|&app| {
                let cells = parts.iter().flat_map(|&(table, mask)| table.row(mask, app));
                cells.map(|&t| t as usize).collect()
            })
            .collect();
        (score > f64::NEG_INFINITY).then(|| SearchResult {
            assignment: ThreadAssignment::from_matrix(rows),
            score,
            evaluations: 0,
            counters: SearchCounters::default(),
            truncated: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::check;
    use crate::enumerate::binom;
    use numa_topology::MachineBuilder;

    /// Walks every full column of one shape in lexicographic order: an
    /// odometer over the counts of all applications but the last, which takes
    /// the cores left, keeping the four running sums of [`LocalColumn`] per
    /// prefix. The enumeration the closed form replaced, kept as its
    /// reference.
    struct Walk<'a> {
        column: &'a LocalColumn,
        terms: Vec<[f64; 4]>,
        counts: Vec<u32>,
        table: Table,
    }

    impl Walk<'_> {
        fn run(&mut self, cores: usize) {
            let last = self.terms.len() - 1;
            // `prefix[i]`: the sums over applications `0..i`.
            let mut prefix = vec![[0.0; 4]; last + 1];
            let (mut used, mut mask) = (0, 0);
            loop {
                let t = cores - used;
                let x = t as f64;
                let sums = [0, 1, 2, 3].map(|c| prefix[last][c] + x * self.terms[last][c]);
                let served = if t > 0 { mask | 1 << last } else { mask };
                let (score, top) = (self.column.gflops(sums), self.table.score[served]);
                if score - top > margin(top) {
                    self.keep(served, score, t as u32);
                }
                // The next prefix: one more thread of the last prefix application
                // while a core is free, else carry into the application before
                // the rightmost non-zero count.
                let bump = if used < cores {
                    last.checked_sub(1)
                } else {
                    let nonzero = (0..last).rev().find(|&i| self.counts[i] > 0);
                    nonzero.and_then(|j| {
                        used -= self.counts[j] as usize;
                        self.counts[j] = 0;
                        mask &= !(1 << j);
                        j.checked_sub(1)
                    })
                };
                let Some(i) = bump else { return };
                self.counts[i] += 1;
                used += 1;
                mask |= 1 << i;
                let x = f64::from(self.counts[i]);
                let sums = [0, 1, 2, 3].map(|c| prefix[i][c] + x * self.terms[i][c]);
                prefix[i + 1..].fill(sums);
            }
        }

        /// Keeps the current column, `t` threads of the last application, as
        /// the best for `mask`.
        fn keep(&mut self, mask: usize, score: f64, t: u32) {
            let apps = self.terms.len();
            self.table.score[mask] = score;
            let cells = &mut self.table.cells[mask * apps..(mask + 1) * apps];
            cells.copy_from_slice(&self.counts);
            cells[apps - 1] = t;
        }
    }

    /// On one node of 1–48 cores, 5–155 GB/s and a core peak of 0.1–50
    /// GFLOPS, with 1–8 NUMA-local applications (some of equal AI) and at
    /// most 2^17 full columns, every kept column and its score bits are
    /// the walk's.
    #[test]
    fn kept_columns_are_the_enumerations() {
        check(59, 256, |g| {
            let apps: Vec<AppSpec> = g.vec(1..9, |g| {
                let ai = if g.bool(0.3) {
                    *g.pick(&[0.25, 0.5, 1.0, 4.0])
                } else {
                    g.range(0.02..32.0)
                };
                AppSpec::numa_local("a", ai)
            });
            let k = apps.len();
            let cores = loop {
                let cores = g.range(1..49usize);
                if binom((cores + k - 1) as u128, k as u128 - 1) <= 1 << 17 {
                    break cores;
                }
            };
            let machine = (MachineBuilder::new())
                .add_node(cores, g.range(5.0..155.0), 16.0)
                .core_peak_gflops(g.range(0.1..50.0))
                .uniform_link_gbs(10.0)
                .build()
                .unwrap();
            let column = LocalColumn::new(&machine, NodeId(0), &apps).unwrap();
            let mut walk = Walk {
                column: &column,
                terms: (0..k).map(|a| column.terms(a)).collect(),
                counts: vec![0; k],
                table: Table::empty(k, 1),
            };
            walk.run(cores);
            let kept = Table::columns(&column, cores, k);
            for mask in 0..1 << k {
                let at = mask * k..(mask + 1) * k;
                assert_eq!(
                    (kept.score[mask].to_bits(), &kept.cells[at.clone()]),
                    (walk.table.score[mask].to_bits(), &walk.table.cells[at]),
                    "mask {mask:b} on {cores} cores"
                );
            }
        });
    }
}
