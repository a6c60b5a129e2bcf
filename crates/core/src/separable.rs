//! Exact decisions where the model separates by node.
//!
//! The paper arbitrates bandwidth per node (§III.A). When every application
//! keeps its data NUMA-local ([`DataPlacement::Local`]), the solver's
//! remote-first stage serves nothing, so a node's GFLOPS depend only on its
//! own column of thread counts, and a sum objective
//! ([`Objective::TotalGflops`], [`Objective::WeightedGflops`]) is a sum of
//! per-node terms. With every application keeping at least one thread
//! machine-wide, the optimum is a DP over nodes whose state is the set of
//! applications served so far.
//!
//! [`ColumnTable::build`] scores every full column — a composition of the
//! node's `cores` threads over the applications — once per distinct node
//! shape (core count and bandwidth), with [`LocalColumn`]'s closed form kept
//! as running sums, and keeps the best column per served-application mask.
//! Full columns suffice: a thread more of the served application with the
//! highest (weighted) AI never lowers a node's score — unsaturated it adds
//! a core's peak, saturated it moves bandwidth to the application that
//! turns it into the most GFLOPS — so every mask has a full column among its
//! best.
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
//! It declines (`None`) a coupled mix (any non-local application), a
//! non-sum objective, anything past [`MAX_APPS`] or [`MAX_COLUMNS`], and a
//! live set with more applications than the machine has cores; the caller
//! then searches otherwise.
//!
//! Determinism: a candidate replaces the incumbent only if it scores higher
//! by more than 1e-12 relative; within that it is a tie, and the
//! lexicographically smaller column (in app order) or count matrix
//! (app-major, rows in the table's app order) wins. Every decision is a
//! fixed function of its inputs.
//!
//! [`DataPlacement::Local`]: roofline_numa::DataPlacement::Local

use crate::search::{SearchCounters, SearchResult};
use crate::{enumerate, Objective};
use numa_topology::{Machine, NodeId};
use roofline_numa::{AppSpec, LocalColumn, ThreadAssignment};
use std::cmp::Ordering;

/// Most applications a table covers: it keeps `2^MAX_APPS` masks per node
/// shape and per merged pair.
pub const MAX_APPS: usize = 10;

/// Most columns a table scores per distinct node shape: `C(cores + k − 1,
/// k − 1)` full columns of `k` applications.
pub const MAX_COLUMNS: u128 = 1 << 17;

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

/// Walks every full column of one shape in lexicographic order: an
/// odometer over the counts of all applications but the last, which takes
/// the cores left, keeping the four running sums of [`LocalColumn`] per
/// prefix.
struct Walk<'a> {
    column: &'a LocalColumn,
    terms: Vec<[f64; 4]>,
    counts: Vec<u32>,
    table: Table,
    scored: usize,
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
            self.scored += 1;
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
    #[inline(never)]
    fn keep(&mut self, mask: usize, score: f64, t: u32) {
        let apps = self.terms.len();
        self.table.score[mask] = score;
        let cells = &mut self.table.cells[mask * apps..(mask + 1) * apps];
        cells.copy_from_slice(&self.counts);
        cells[apps - 1] = t;
    }
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
    /// Scores the columns of every distinct node shape and merges each
    /// consecutive node pair. `None` outside the exact path: see the
    /// [module docs](self).
    pub fn build(machine: &Machine, apps: &[AppSpec], objective: &Objective) -> Option<Self> {
        let k = apps.len();
        if k == 0 || k > MAX_APPS {
            return None;
        }
        let weights = match objective {
            Objective::TotalGflops => None,
            Objective::WeightedGflops(w) => {
                objective.evaluate_gflops(&vec![0.0; k]).ok()?;
                Some(w)
            }
            Objective::MinAppGflops => return None,
        };
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
        let fits = |&(cores, _, _): &(usize, u64, NodeId)| {
            enumerate::binom((cores + k - 1) as u128, k as u128 - 1) <= MAX_COLUMNS
        };
        if !shapes.iter().all(fits) {
            return None;
        }
        let mut table = ColumnTable {
            apps: k,
            tables: Vec::new(),
            blocks: Vec::new(),
            scored: 0,
        };
        for &(cores, _, node) in &shapes {
            let column = LocalColumn::new(machine, node, apps)?;
            let terms = (0..k)
                .map(|a| {
                    let [u, n, au, an] = column.terms(a);
                    let w = weights.map_or(1.0, |w| w[a]);
                    [u, n, w * au, w * an]
                })
                .collect();
            let mut walk = Walk {
                column: &column,
                terms,
                counts: vec![0; k],
                table: Table::empty(k, 1),
                scored: 0,
            };
            walk.run(cores);
            table.scored += walk.scored;
            table.tables.push(walk.table);
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
    /// counts the columns scored.
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

    /// Columns scored building the table.
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
