//! Sparse LU factorisation of a simplex basis, with Forrest–Tomlin updates.
//!
//! The revised simplex ([`crate::revised`]) needs exactly three operations on
//! the basis matrix `B` (the `m × m` matrix whose column `r` is the constraint
//! column of row `r`'s basic variable):
//!
//! * **FTRAN** — solve `B d = a` (the entering direction),
//! * **BTRAN** — solve `Bᵀ y = c_B` (the simplex multipliers),
//! * **update** — replace one column of `B` after a pivot.
//!
//! [`LuFactors`] supports all three on top of a single sparse factorisation
//! `P B Q = L U` computed by right-looking Gaussian elimination with a
//! Markowitz-style ordering rule (pick the pivot minimising
//! `(col_nnz − 1) · (row_nnz − 1)` among a short list of sparsest candidate
//! columns) under threshold partial pivoting (a pivot must be at least
//! [`PIVOT_REL_TOL`] of the largest entry in its column). `L` is stored as
//! unit-lower-triangular multiplier columns in elimination order; `U` is
//! stored row-wise (values) plus a column-wise pattern, both keyed by the
//! *elimination step*, with an explicit triangular ordering vector so that
//! update-time row/column moves are O(1) bookkeeping instead of physical
//! renumbering.
//!
//! A basis change is applied in place with a **Forrest–Tomlin row-spike
//! update**: the FTRANed entering column (the *spike*) replaces the leaving
//! variable's column of `U`, the spiked row is cyclically rotated to the last
//! triangular position, and the sub-diagonal row it leaves behind is
//! eliminated by row operations that are recorded as a compact *row eta* and
//! replayed inside every later FTRAN/BTRAN. The cost of an update is
//! proportional to the non-zeros it touches — no refactorisation, no O(m²)
//! work — and "reinversion" becomes [`LuFactors::factorize`] runs triggered by
//! the update count or by fill-in growth ([`LuFactors::needs_refactor`]).
//!
//! # Layout
//!
//! The factors are a handful of flat arrays, never one heap block per row:
//! the `L` columns are one CSC-style arena (`(row, multiplier)` entries plus
//! column offsets), and the `U` rows and `U` column patterns are slotted
//! arenas — every row owns a slot `start..start + cap` of one shared entry
//! array, of which the first `len` entries are live. A factorisation lays
//! the rows out back to back in step order, without spare room (short
//! solves never pay for room they do not use). A Forrest–Tomlin update that
//! overflows a slot moves that row, entries in order, to the arena's end
//! with twice the room (a row already at the end grows in place); entries
//! are removed by `swap_remove` within the slot. Entry order is therefore
//! exactly what per-row vectors would hold, and every FTRAN/BTRAN sums in
//! the same order. [`LuFactors::compact`] repacks the slots without
//! spare room; a caller that keeps the factors as a warm-start donor
//! compacts them once, so the donor holds only its live entries and cloning
//! it costs a few allocations and a memcpy however large the basis is.
//!
//! All scratch state (dense work vectors, the retained FTRAN spike, the
//! factorisation's working columns, candidate buckets) lives in a separate
//! [`LuWorkspace`] that the caller owns and passes to every operation — the
//! revised simplex keeps one per solve — so factors carry no scratch. The
//! pivot loop creates no per-pivot temporaries: its only heap traffic is
//! amortised growth of the arenas and the workspace toward their fill
//! high-water marks, which decays as capacities converge (asserted, with a
//! bright line of under one allocation per pivot, by the `alloc_discipline`
//! integration test).

use crate::sparse::CsrMatrix;

/// Threshold partial pivoting: a pivot entry must have magnitude at least
/// this fraction of the largest entry in its column. Smaller values favour
/// sparsity, larger values favour stability; 0.1 is the textbook compromise.
pub const PIVOT_REL_TOL: f64 = 0.1;

/// Absolute floor below which a pivot (or an updated diagonal) is treated as
/// zero: the basis is declared singular rather than divided by noise.
pub const PIVOT_ABS_TOL: f64 = 1e-11;

/// Entries smaller than this are dropped during elimination and updates; they
/// are numerical dust that would otherwise accumulate as structural fill.
const DROP_TOL: f64 = 1e-13;

/// How many of the sparsest active columns are scored with the full Markowitz
/// merit before committing to a pivot. A short list keeps the search cheap
/// while avoiding the worst orderings a pure min-column-count rule produces.
const MARKOWITZ_CANDIDATES: usize = 4;

/// Smallest slot a row grows into when a Forrest–Tomlin update overflows it:
/// rows are laid out without spare room, and a slot of four absorbs the
/// first few spike entries of a short row with a single move.
const MIN_SLOT_CAP: usize = 4;

/// Fill-in growth factor that triggers refactorisation: when the non-zeros of
/// `U` (plus accumulated row etas) exceed this multiple of the freshly
/// factorised count, updates have degraded the factors enough that a fresh
/// factorisation is cheaper than continuing to drag the fill along.
const FILL_REFACTOR_FACTOR: usize = 4;

/// The basis matrix is numerically singular: elimination (or a Forrest–Tomlin
/// update) could not find an acceptable pivot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularBasis;

impl std::fmt::Display for SingularBasis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "basis matrix is numerically singular")
    }
}

impl std::error::Error for SingularBasis {}

/// One Forrest–Tomlin row eta: the row operations that re-triangularised `U`
/// after a spike, stored as `(column step, multiplier)` pairs into a shared
/// arena (see [`LuFactors::eta_entries`]).
#[derive(Debug, Clone, Copy)]
struct RowEta {
    /// Step whose row was spiked (and rotated to the last position).
    spike_step: usize,
    /// `eta_entries[start..end]` holds this eta's `(step, multiplier)` pairs.
    start: usize,
    end: usize,
}

fn slot_index(i: usize) -> u32 {
    u32::try_from(i).expect("LU arena offset exceeds u32")
}

/// Rows of a sparse matrix in one shared entry array: row `k` owns the slot
/// `data[start[k]..start[k] + cap[k]]`, of which the first `len[k]` entries
/// are live. Slot bookkeeping is `u32` to keep the per-row overhead at 12
/// bytes.
#[derive(Debug, Clone)]
struct Slots<T> {
    start: Vec<u32>,
    len: Vec<u32>,
    cap: Vec<u32>,
    data: Vec<T>,
}

impl<T: Copy + Default> Slots<T> {
    fn new(rows: usize) -> Self {
        Self {
            start: vec![0; rows],
            len: vec![0; rows],
            cap: vec![0; rows],
            data: Vec::new(),
        }
    }

    fn row(&self, k: usize) -> &[T] {
        let start = self.start[k] as usize;
        &self.data[start..start + self.len[k] as usize]
    }

    /// Empties every row and the arena (capacity is kept).
    fn clear(&mut self) {
        self.data.clear();
        self.start.fill(0);
        self.len.fill(0);
        self.cap.fill(0);
    }

    fn clear_row(&mut self, k: usize) {
        self.len[k] = 0;
    }

    /// Starts row `k` at the arena's end; pushes onto `data` fill it and
    /// [`close_row`](Self::close_row) seals it without spare room.
    fn open_row(&mut self, k: usize) {
        self.start[k] = slot_index(self.data.len());
    }

    fn close_row(&mut self, k: usize) {
        let len = slot_index(self.data.len()) - self.start[k];
        self.len[k] = len;
        self.cap[k] = len;
    }

    fn push(&mut self, k: usize, value: T) {
        if self.len[k] == self.cap[k] {
            self.grow(k);
        }
        let at = (self.start[k] + self.len[k]) as usize;
        self.data[at] = value;
        self.len[k] += 1;
    }

    /// `Vec::swap_remove` within row `k`'s slot.
    fn swap_remove(&mut self, k: usize, at: usize) {
        let start = self.start[k] as usize;
        let last = start + self.len[k] as usize - 1;
        self.data[start + at] = self.data[last];
        self.len[k] -= 1;
    }

    /// Doubles row `k`'s slot: in place when the slot ends the arena,
    /// otherwise by moving the row, entries in order, to the arena's end
    /// (its old slot becomes dead space until the next repack).
    fn grow(&mut self, k: usize) {
        let start = self.start[k] as usize;
        let len = self.len[k] as usize;
        let cap = (2 * len).max(MIN_SLOT_CAP);
        if start + self.cap[k] as usize == self.data.len() {
            self.data.resize(start + cap, T::default());
        } else {
            let moved = self.data.len();
            self.data.extend_from_within(start..start + len);
            self.data.resize(moved + cap, T::default());
            self.start[k] = slot_index(moved);
        }
        self.cap[k] = slot_index(cap);
    }

    /// Repacks every row back to back, in row order, into an arena of
    /// exactly the live entries: no spare room, no dead space.
    fn compact(&mut self) {
        let live = self.len.iter().map(|&l| l as usize).sum();
        let mut data = Vec::with_capacity(live);
        for k in 0..self.start.len() {
            let (start, len) = (self.start[k] as usize, self.len[k] as usize);
            self.start[k] = slot_index(data.len());
            data.extend_from_slice(&self.data[start..start + len]);
        }
        self.cap.copy_from_slice(&self.len);
        self.data = data;
    }
}

/// Sparse LU factors of a simplex basis with Forrest–Tomlin update support.
///
/// The factorisation is keyed by *elimination step* `k ∈ 0..m`: step `k`
/// pivoted original row `p[k]` and basis position `q[k]`. FTRAN maps a vector
/// indexed by original row into one indexed by basis position; BTRAN maps the
/// other way. Every operation borrows an [`LuWorkspace`] of the same
/// dimension for its scratch. See the module docs for the full story.
#[derive(Debug, Clone)]
pub struct LuFactors {
    m: usize,
    /// `p[k]` = original row pivoted at step `k`; `p_inv` is its inverse.
    p: Vec<usize>,
    p_inv: Vec<usize>,
    /// `q[k]` = basis position eliminated at step `k`; `q_inv` is its inverse.
    q: Vec<usize>,
    q_inv: Vec<usize>,
    /// Unit-lower-triangular multiplier columns, by step: column `k` is
    /// `l_entries[l_start[k]..l_start[k + 1]]`, one `(original row,
    /// multiplier)` pair for every active row below the pivot at that step.
    l_start: Vec<usize>,
    l_entries: Vec<(usize, f64)>,
    /// Off-diagonal rows of `U`: row `k` holds `(column step, value)` pairs,
    /// all at triangular positions after `pos[k]`.
    u_rows: Slots<(usize, f64)>,
    /// Pattern of column `k` of `U` (which row steps hold an entry), needed to
    /// evict a replaced column during an update.
    u_col_pattern: Slots<u32>,
    u_diag: Vec<f64>,
    /// Reciprocals of `u_diag`, kept in lock-step: the triangular solves are
    /// serial dependency chains, and a multiply there costs a fraction of the
    /// unpipelined divide it replaces.
    u_diag_inv: Vec<f64>,
    /// Triangular ordering: `order[i]` is the step at position `i`; `pos` is
    /// its inverse. Fresh factorisations are the identity; Forrest–Tomlin
    /// updates cyclically rotate spiked steps to the back.
    order: Vec<usize>,
    pos: Vec<usize>,
    /// Forrest–Tomlin row etas, applied in recording order during FTRAN and
    /// in reverse during BTRAN; entries live in the shared `eta_entries`
    /// arena so an update never allocates a fresh vector.
    row_etas: Vec<RowEta>,
    eta_entries: Vec<(usize, f64)>,
    updates_since_refactor: usize,
    /// `U` + eta non-zeros right after the last factorisation, and now.
    fresh_nnz: usize,
    current_nnz: usize,
}

/// Scratch space for [`LuFactors`] operations on `m × m` bases: dense work
/// vectors for FTRAN/BTRAN, the spike the latest FTRAN retained for a
/// Forrest–Tomlin update, and the factorisation's working columns and
/// candidate buckets. Owned by the caller and reused across calls, so the
/// factors themselves stay pure data; contents never carry meaning from one
/// operation to the next except the spike, which an
/// [`ft_update`](LuFactors::ft_update) must consume through the same
/// workspace as the FTRAN that produced it.
#[derive(Debug)]
pub struct LuWorkspace {
    m: usize,
    /// Dense step-space work vector used by FTRAN/BTRAN.
    work: Vec<f64>,
    /// BTRAN scatter accumulator.
    acc: Vec<f64>,
    /// The forward-substituted column of the most recent FTRAN (the
    /// Forrest–Tomlin spike), in step space.
    spike: Vec<f64>,
    spike_valid: bool,
    /// Factorisation working columns (by basis position) and row counts.
    wcols: Vec<Vec<(usize, f64)>>,
    row_count: Vec<usize>,
    col_done: Vec<bool>,
    /// Dense by-original-row scratch used during elimination and updates;
    /// all zero between operations.
    dense_row: Vec<f64>,
    touched: Vec<usize>,
    /// For each still-active original row, the working columns that (may)
    /// hold an entry in it. Entries go stale when cancellation drops a value;
    /// consumers re-verify membership, so staleness costs a skipped lookup,
    /// never a wrong factor.
    row_cols: Vec<Vec<usize>>,
    /// Per-column "processed at elimination step" stamps (step + 1), used to
    /// deduplicate `row_cols` entries while walking a pivot row.
    row_stamp: Vec<usize>,
    /// Lazy buckets of active columns by current non-zero count, scanned from
    /// the sparsest end for Markowitz candidates. Stale entries (wrong length
    /// or already-pivoted column) are dropped on scan.
    nnz_buckets: Vec<Vec<usize>>,
    /// Smallest bucket index that may be non-empty.
    bucket_floor: usize,
}

impl LuWorkspace {
    /// Scratch for `m × m` bases.
    #[must_use]
    pub fn new(m: usize) -> Self {
        Self {
            m,
            work: vec![0.0; m],
            acc: vec![0.0; m],
            spike: vec![0.0; m],
            spike_valid: false,
            wcols: (0..m).map(|_| Vec::new()).collect(),
            row_count: vec![0; m],
            col_done: vec![false; m],
            dense_row: vec![0.0; m],
            touched: Vec::with_capacity(m),
            row_cols: (0..m).map(|_| Vec::new()).collect(),
            row_stamp: vec![0; m],
            nnz_buckets: (0..=m).map(|_| Vec::new()).collect(),
            bucket_floor: 1,
        }
    }

    /// Markowitz-style pivot selection over the active submatrix: the
    /// `MARKOWITZ_CANDIDATES` sparsest active columns are scored with the
    /// merit `(col_nnz − 1) · (row_nnz − 1)` over their threshold-acceptable
    /// entries (|v| ≥ [`PIVOT_REL_TOL`] · colmax); the best merit wins, ties
    /// broken by lower basis position, then larger magnitude, then lower row
    /// — fully deterministic. Falls back to scanning every active column
    /// before giving up (the short list can be all-unacceptable while a
    /// longer column still holds a fine pivot).
    fn select_pivot(&mut self) -> Option<(usize, usize, f64, usize)> {
        let m = self.m;
        let mut cand = [usize::MAX; MARKOWITZ_CANDIDATES];
        let mut cand_len = 0usize;
        // Pop the sparsest active columns off the lazy buckets. Entries whose
        // recorded length no longer matches (or whose column has pivoted) are
        // stale and dropped; each pushed entry is dropped at most once, so
        // the scan is amortised by the elimination work that pushed it.
        let mut len = self.bucket_floor;
        'scan: while len <= m {
            let mut bucket = std::mem::take(&mut self.nnz_buckets[len]);
            let mut w = 0usize;
            for rdx in 0..bucket.len() {
                let t = bucket[rdx];
                if self.col_done[t] || self.wcols[t].len() != len {
                    continue;
                }
                bucket[w] = t;
                w += 1;
                if cand[..cand_len].contains(&t) {
                    continue;
                }
                cand[cand_len] = t;
                cand_len += 1;
                if cand_len == MARKOWITZ_CANDIDATES {
                    bucket.copy_within(rdx + 1.., w);
                    bucket.truncate(w + bucket.len() - (rdx + 1));
                    self.nnz_buckets[len] = bucket;
                    break 'scan;
                }
            }
            bucket.truncate(w);
            self.nnz_buckets[len] = bucket;
            if w == 0 && len == self.bucket_floor {
                self.bucket_floor += 1;
            }
            len += 1;
        }
        let best = self.best_acceptable(cand.iter().take(cand_len).copied());
        if best.is_some() {
            return best.map(|(_, t, r, v, idx)| (t, r, v, idx));
        }
        let all = (0..m).filter(|&t| !self.col_done[t]);
        self.best_acceptable(all)
            .map(|(_, t, r, v, idx)| (t, r, v, idx))
    }

    /// Best `(merit, col, row, value, index)` pivot among `columns`.
    fn best_acceptable(
        &self,
        columns: impl Iterator<Item = usize>,
    ) -> Option<(usize, usize, usize, f64, usize)> {
        let mut best: Option<(usize, usize, usize, f64, usize)> = None;
        for t in columns {
            let wcol = &self.wcols[t];
            let colmax = wcol.iter().fold(0.0f64, |a, &(_, v)| a.max(v.abs()));
            if colmax < PIVOT_ABS_TOL {
                continue;
            }
            let floor = (PIVOT_REL_TOL * colmax).max(PIVOT_ABS_TOL);
            for (idx, &(r, v)) in wcol.iter().enumerate() {
                if v.abs() < floor {
                    continue;
                }
                let merit = (wcol.len() - 1) * (self.row_count[r] - 1);
                let better = match best {
                    None => true,
                    Some((bm, bt, br, bv, _)) => {
                        merit < bm
                            || (merit == bm
                                && (t < bt
                                    || (t == bt
                                        && (v.abs() > bv.abs()
                                            || (v.abs() == bv.abs() && r < br)))))
                    }
                };
                if better {
                    best = Some((merit, t, r, v, idx));
                }
            }
        }
        best
    }
}

impl LuFactors {
    /// Creates an empty factorisation holder for `m × m` bases. Call
    /// [`factorize`](Self::factorize) before the first solve.
    #[must_use]
    pub fn new(m: usize) -> Self {
        Self {
            m,
            p: vec![0; m],
            p_inv: vec![0; m],
            q: vec![0; m],
            q_inv: vec![0; m],
            l_start: vec![0; m + 1],
            l_entries: Vec::new(),
            u_rows: Slots::new(m),
            u_col_pattern: Slots::new(m),
            u_diag: vec![0.0; m],
            u_diag_inv: vec![0.0; m],
            order: (0..m).collect(),
            pos: (0..m).collect(),
            row_etas: Vec::new(),
            eta_entries: Vec::new(),
            updates_since_refactor: 0,
            fresh_nnz: 0,
            current_nnz: 0,
        }
    }

    /// Basis dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Number of Forrest–Tomlin updates applied since the last
    /// [`factorize`](Self::factorize).
    #[must_use]
    pub fn updates_since_refactor(&self) -> usize {
        self.updates_since_refactor
    }

    /// Whether the factors should be rebuilt: either `max_updates`
    /// Forrest–Tomlin updates have accumulated, or fill-in has grown past
    /// four times (`FILL_REFACTOR_FACTOR`) the freshly factorised non-zero
    /// count.
    #[must_use]
    pub fn needs_refactor(&self, max_updates: usize) -> bool {
        self.updates_since_refactor >= max_updates
            || self.current_nnz > FILL_REFACTOR_FACTOR * self.fresh_nnz.max(self.m)
    }

    /// Drops everything but the live entries: the `U` slots are repacked
    /// back to back without spare room or the dead space update-time moves
    /// leave behind, and the growable arrays shrink to their contents.
    /// FTRAN, BTRAN and later updates behave exactly as before, bit for bit.
    /// This is the form worth keeping as a warm-start donor: cloning it is a
    /// memcpy of the live bytes.
    pub fn compact(&mut self) {
        self.u_rows.compact();
        self.u_col_pattern.compact();
        self.l_entries.shrink_to_fit();
        self.row_etas.shrink_to_fit();
        self.eta_entries.shrink_to_fit();
    }

    /// Factorises the basis given by `basis` (one column id per basis
    /// position) over the column-access matrix `cols` (row `c` of `cols` is
    /// column `c` of `A`, i.e. the CSC view). Reuses all storage of `self`
    /// and `ws`.
    ///
    /// # Errors
    ///
    /// Returns [`SingularBasis`] when elimination cannot find a pivot of
    /// magnitude at least [`PIVOT_ABS_TOL`] in some remaining column.
    ///
    /// # Panics
    ///
    /// Panics if `basis.len()` or the workspace dimension differs from the
    /// dimension this holder was created with.
    pub fn factorize(
        &mut self,
        cols: &CsrMatrix,
        basis: &[usize],
        ws: &mut LuWorkspace,
    ) -> Result<(), SingularBasis> {
        let m = self.m;
        assert_eq!(basis.len(), m, "basis must have one column per row");
        assert_eq!(ws.m, m, "workspace must match the factor dimension");
        self.row_etas.clear();
        self.eta_entries.clear();
        self.updates_since_refactor = 0;
        ws.spike_valid = false;
        self.l_entries.clear();
        self.u_rows.clear();
        self.u_col_pattern.clear();
        for k in 0..m {
            self.order[k] = k;
            self.pos[k] = k;
            ws.col_done[k] = false;
            ws.row_count[k] = 0;
            ws.row_cols[k].clear();
            ws.row_stamp[k] = 0;
            ws.nnz_buckets[k].clear();
        }
        ws.nnz_buckets[m].clear();
        ws.bucket_floor = m;

        // Working columns by basis position, plus the row → columns index and
        // the by-nnz candidate buckets.
        for (t, &var) in basis.iter().enumerate() {
            let wcol = &mut ws.wcols[t];
            wcol.clear();
            for (r, v) in cols.row(var) {
                wcol.push((r, v));
                ws.row_count[r] += 1;
                ws.row_cols[r].push(t);
            }
        }
        // Triangularisation pre-pass: eliminate singleton columns (and the
        // cascade they trigger) before any Markowitz machinery runs. A
        // singleton column needs no multipliers and no fill, so each one
        // costs a handful of operations here versus a bucket scan plus
        // candidate scoring in the main loop. Simplex bases are full of
        // them — the initial slack/artificial basis is *entirely* unit
        // columns, and mid-solve bases keep a large triangular part — so
        // this is where most refactorisation columns go. Threshold
        // pivoting is vacuous for a singleton (the entry is its own column
        // max); only the absolute floor applies. Steps run in order and
        // each writes only its own L column and U row, so both are laid
        // out back to back as they are produced.
        let mut k = 0usize;
        ws.touched.clear();
        for t in 0..m {
            if ws.wcols[t].len() == 1 {
                ws.touched.push(t);
            }
        }
        while let Some(t) = ws.touched.pop() {
            if ws.col_done[t] || ws.wcols[t].len() != 1 {
                continue;
            }
            let (prow, pval) = ws.wcols[t][0];
            if pval.abs() < PIVOT_ABS_TOL {
                continue; // left to the main loop, which will report singular
            }
            self.p[k] = prow;
            self.q[k] = t;
            self.u_diag[k] = pval;
            self.u_diag_inv[k] = 1.0 / pval;
            ws.col_done[t] = true;
            ws.wcols[t].clear();
            ws.row_count[prow] -= 1;
            self.l_start[k] = self.l_entries.len();
            // Strip the pivot row from every column still holding it; those
            // entries become row k of U. No fill happens (there are no
            // multipliers), so `row_cols` lists hold no duplicates yet and
            // lengths only shrink — new singletons join the cascade.
            self.u_rows.open_row(k);
            let held = std::mem::take(&mut ws.row_cols[prow]);
            for &c in &held {
                if ws.col_done[c] {
                    continue;
                }
                let Some(at) = ws.wcols[c].iter().position(|&(r, _)| r == prow) else {
                    continue;
                };
                let uval = ws.wcols[c][at].1;
                ws.wcols[c].swap_remove(at);
                ws.row_count[prow] -= 1;
                self.u_rows.data.push((c, uval));
                if ws.wcols[c].len() == 1 {
                    ws.touched.push(c);
                }
            }
            self.u_rows.close_row(k);
            let mut held = held;
            held.clear();
            ws.row_cols[prow] = held;
            k += 1;
        }

        for t in 0..m {
            if ws.col_done[t] {
                continue;
            }
            let len = ws.wcols[t].len();
            ws.nnz_buckets[len].push(t);
            if len < ws.bucket_floor {
                ws.bucket_floor = len.max(1);
            }
        }

        for k in k..m {
            let Some((t, prow, pval, pidx)) = ws.select_pivot() else {
                return Err(SingularBasis);
            };

            self.p[k] = prow;
            self.q[k] = t;
            self.u_diag[k] = pval;
            self.u_diag_inv[k] = 1.0 / pval;
            ws.col_done[t] = true;

            // L column k: multipliers for the active rows of the pivot column.
            ws.wcols[t].swap_remove(pidx);
            ws.row_count[prow] -= 1;
            let l_begin = self.l_entries.len();
            self.l_start[k] = l_begin;
            for i in 0..ws.wcols[t].len() {
                let (r, v) = ws.wcols[t][i];
                self.l_entries.push((r, v / pval));
                ws.row_count[r] -= 1;
            }
            let lcol = &self.l_entries[l_begin..];

            // Right-looking update of every remaining column holding the
            // pivot row (enumerated by the row → columns index; stale entries
            // are re-verified and skipped); the removed entries become row k
            // of U (keyed by basis position for now, remapped to steps
            // below). The pivot row is eliminated for good, so its index list
            // is consumed here — fill never re-enters an eliminated row.
            self.u_rows.open_row(k);
            let held = std::mem::take(&mut ws.row_cols[prow]);
            for &c in &held {
                if ws.col_done[c] || ws.row_stamp[c] == k + 1 {
                    continue;
                }
                ws.row_stamp[c] = k + 1;
                let Some(at) = ws.wcols[c].iter().position(|&(r, _)| r == prow) else {
                    continue;
                };
                let uval = ws.wcols[c][at].1;
                ws.wcols[c].swap_remove(at);
                ws.row_count[prow] -= 1;
                self.u_rows.data.push((c, uval));
                if !lcol.is_empty() {
                    // Dense scatter of the column, apply the multipliers,
                    // gather. Row counts are released at scatter and
                    // re-acquired at gather, which keeps them exact through
                    // fill-in and exact cancellation alike.
                    ws.touched.clear();
                    for i in 0..ws.wcols[c].len() {
                        let (r, v) = ws.wcols[c][i];
                        ws.dense_row[r] = v;
                        ws.touched.push(r);
                        ws.row_count[r] -= 1;
                    }
                    for &(r, l) in lcol {
                        if ws.dense_row[r] == 0.0 {
                            ws.touched.push(r);
                            ws.row_cols[r].push(c);
                        }
                        ws.dense_row[r] -= l * uval;
                    }
                    ws.wcols[c].clear();
                    for i in 0..ws.touched.len() {
                        let r = ws.touched[i];
                        let v = ws.dense_row[r];
                        ws.dense_row[r] = 0.0;
                        if v.abs() > DROP_TOL {
                            ws.wcols[c].push((r, v));
                            ws.row_count[r] += 1;
                        }
                    }
                }
                let len = ws.wcols[c].len();
                ws.nnz_buckets[len].push(c);
                if len < ws.bucket_floor {
                    ws.bucket_floor = len.max(1);
                }
            }
            self.u_rows.close_row(k);
            let mut held = held;
            held.clear();
            ws.row_cols[prow] = held;
        }
        self.l_start[m] = self.l_entries.len();

        // Remap U row entries from basis positions to elimination steps and
        // build the column patterns.
        for (k, &t) in self.q.iter().enumerate() {
            self.q_inv[t] = k;
        }
        for (k, &r) in self.p.iter().enumerate() {
            self.p_inv[r] = k;
        }
        for entry in &mut self.u_rows.data {
            entry.0 = self.q_inv[entry.0];
        }
        // Triangular invariant: all entries sit at later steps.
        debug_assert!((0..m).all(|k| self.u_rows.row(k).iter().all(|&(j, _)| j > k)));
        self.build_col_patterns();
        self.fresh_nnz = self.u_rows.data.len() + m;
        self.current_nnz = self.fresh_nnz;
        Ok(())
    }

    /// Lays out the column patterns of the freshly factorised `U` back to
    /// back (a counting sort over the packed rows), each listing its row
    /// steps in increasing order.
    fn build_col_patterns(&mut self) {
        let pat = &mut self.u_col_pattern;
        for &(j, _) in &self.u_rows.data {
            pat.len[j] += 1;
        }
        let mut at = 0u32;
        for j in 0..self.m {
            pat.start[j] = at;
            pat.cap[j] = pat.len[j];
            at += pat.len[j];
            pat.len[j] = 0;
        }
        pat.data.resize(at as usize, 0);
        for k in 0..self.m {
            for &(j, _) in self.u_rows.row(k) {
                let slot = (pat.start[j] + pat.len[j]) as usize;
                pat.data[slot] = slot_index(k);
                pat.len[j] += 1;
            }
        }
    }

    /// FTRAN: solves `B x = v` in place. On input `v` is indexed by
    /// *original row*; on output it is indexed by *basis position* (the
    /// convention the revised simplex uses for directions and `x_B`).
    ///
    /// The forward-substituted spike is retained in `ws` for a subsequent
    /// [`ft_update`](Self::ft_update).
    pub fn ftran(&self, v: &mut [f64], ws: &mut LuWorkspace) {
        debug_assert_eq!(v.len(), self.m);
        let m = self.m;
        let work = &mut ws.work;
        // Forward: z = (row etas) ∘ L⁻¹ P v, into step space. The zipped
        // iteration keeps the per-step bookkeeping free of bounds checks.
        for ((wk, &pk), bounds) in work.iter_mut().zip(&self.p).zip(self.l_start.windows(2)) {
            let t = v[pk];
            *wk = t;
            if t != 0.0 {
                for &(r, l) in &self.l_entries[bounds[0]..bounds[1]] {
                    v[r] -= l * t;
                }
            }
        }
        for eta in &self.row_etas {
            let mut s = work[eta.spike_step];
            for &(j, r) in &self.eta_entries[eta.start..eta.end] {
                s -= r * work[j];
            }
            work[eta.spike_step] = s;
        }
        ws.spike.copy_from_slice(work);
        ws.spike_valid = true;
        // Backward: U x = z, in reverse triangular order.
        for i in (0..m).rev() {
            let k = self.order[i];
            let mut t = work[k];
            for &(j, u) in self.u_rows.row(k) {
                t -= u * work[j];
            }
            work[k] = t * self.u_diag_inv[k];
        }
        for (&qk, &wk) in self.q.iter().zip(work.iter()) {
            v[qk] = wk;
        }
    }

    /// BTRAN: solves `Bᵀ y = v` in place. On input `v` is indexed by *basis
    /// position* (e.g. `c_B`); on output it is indexed by *original row* (the
    /// simplex multipliers).
    pub fn btran(&self, v: &mut [f64], ws: &mut LuWorkspace) {
        debug_assert_eq!(v.len(), self.m);
        let m = self.m;
        let work = &mut ws.work;
        let acc = &mut ws.acc;
        // Forward on Uᵀ in triangular order, scatter style.
        acc.fill(0.0);
        for i in 0..m {
            let k = self.order[i];
            let w = (v[self.q[k]] - acc[k]) * self.u_diag_inv[k];
            work[k] = w;
            if w != 0.0 {
                for &(j, u) in self.u_rows.row(k) {
                    acc[j] += u * w;
                }
            }
        }
        // Row etas transposed, in reverse recording order.
        for eta in self.row_etas.iter().rev() {
            let s = work[eta.spike_step];
            if s != 0.0 {
                for &(j, r) in &self.eta_entries[eta.start..eta.end] {
                    work[j] -= r * s;
                }
            }
        }
        // Backward on Lᵀ: z[k] uses only later steps' values.
        for k in (0..m).rev() {
            let mut t = work[k];
            for &(r, l) in &self.l_entries[self.l_start[k]..self.l_start[k + 1]] {
                t -= l * work[self.p_inv[r]];
            }
            work[k] = t;
        }
        for (&pk, &wk) in self.p.iter().zip(work.iter()) {
            v[pk] = wk;
        }
    }

    /// Forrest–Tomlin update: the column at basis position `leaving_pos` is
    /// replaced by the column passed to the **most recent** [`ftran`]
    /// through `ws` (whose forward-substituted spike `ws` retained).
    /// O(touched non-zeros).
    ///
    /// # Errors
    ///
    /// Returns [`SingularBasis`] when the re-triangularised diagonal entry
    /// falls below [`PIVOT_ABS_TOL`]. The factors are left inconsistent in
    /// that case: the caller must [`factorize`](Self::factorize) afresh (or
    /// abandon the basis) before the next solve.
    ///
    /// # Panics
    ///
    /// Panics if `ws` holds no spike (no `ftran` since the last
    /// factorisation or update).
    ///
    /// [`ftran`]: Self::ftran
    pub fn ft_update(
        &mut self,
        leaving_pos: usize,
        ws: &mut LuWorkspace,
    ) -> Result<(), SingularBasis> {
        assert!(ws.spike_valid, "ft_update needs the spike of an ftran");
        ws.spike_valid = false;
        let m = self.m;
        let s = self.q_inv[leaving_pos];

        // Evict the old column s from U (rows listed in its pattern).
        for i in 0..self.u_col_pattern.row(s).len() {
            let k = self.u_col_pattern.row(s)[i] as usize;
            if let Some(at) = self.u_rows.row(k).iter().position(|&(j, _)| j == s) {
                self.u_rows.swap_remove(k, at);
                self.current_nnz -= 1;
            }
        }
        self.u_col_pattern.clear_row(s);

        // Install the spike as the new column s and remember row s's old
        // entries (they are about to become sub-diagonal).
        let spike_pos = self.pos[s];
        for k in 0..m {
            if k == s {
                continue;
            }
            let w = ws.spike[k];
            if w.abs() > DROP_TOL {
                self.u_rows.push(k, (s, w));
                self.u_col_pattern.push(s, slot_index(k));
                self.current_nnz += 1;
            }
        }

        // Rotate step s to the last triangular position.
        for i in spike_pos..m - 1 {
            self.order[i] = self.order[i + 1];
            self.pos[self.order[i]] = i;
        }
        self.order[m - 1] = s;
        self.pos[s] = m - 1;

        // Scatter row s (now logically the last row) into dense scratch and
        // eliminate everything left of the diagonal with row operations,
        // recording them as one row eta.
        ws.touched.clear();
        for i in 0..self.u_rows.row(s).len() {
            let (j, v) = self.u_rows.row(s)[i];
            ws.dense_row[j] = v;
            ws.touched.push(j);
            // Their column patterns lose row s.
            if let Some(at) = self
                .u_col_pattern
                .row(j)
                .iter()
                .position(|&k| k as usize == s)
            {
                self.u_col_pattern.swap_remove(j, at);
            }
            self.current_nnz -= 1;
        }
        self.u_rows.clear_row(s);
        let diag_val = ws.spike[s];
        ws.dense_row[s] = diag_val;

        let eta_start = self.eta_entries.len();
        for i in spike_pos..m - 1 {
            let j = self.order[i];
            let v = ws.dense_row[j];
            if v == 0.0 {
                continue;
            }
            ws.dense_row[j] = 0.0;
            let r = v / self.u_diag[j];
            if r.abs() <= DROP_TOL {
                continue;
            }
            self.eta_entries.push((j, r));
            for &(jj, u) in self.u_rows.row(j) {
                if ws.dense_row[jj] == 0.0 {
                    ws.touched.push(jj);
                }
                ws.dense_row[jj] -= r * u;
            }
        }
        let eta_end = self.eta_entries.len();
        if eta_end > eta_start {
            self.row_etas.push(RowEta {
                spike_step: s,
                start: eta_start,
                end: eta_end,
            });
            self.current_nnz += eta_end - eta_start;
        }

        // Whatever survived at column s is the new diagonal; everything else
        // was eliminated or dropped.
        let new_diag = ws.dense_row[s];
        ws.dense_row[s] = 0.0;
        for i in 0..ws.touched.len() {
            let j = ws.touched[i];
            ws.dense_row[j] = 0.0;
        }
        self.updates_since_refactor += 1;
        if new_diag.abs() < PIVOT_ABS_TOL || !new_diag.is_finite() {
            return Err(SingularBasis);
        }
        self.u_diag[s] = new_diag;
        self.u_diag_inv[s] = 1.0 / new_diag;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense LU-free oracle: Gaussian elimination with partial pivoting.
    fn dense_solve(a: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
        let m = b.len();
        let mut aug: Vec<Vec<f64>> = a.to_vec();
        let mut x = b.to_vec();
        let mut perm: Vec<usize> = (0..m).collect();
        for k in 0..m {
            let piv = (k..m)
                .max_by(|&i, &j| {
                    aug[perm[i]][k]
                        .abs()
                        .partial_cmp(&aug[perm[j]][k].abs())
                        .unwrap()
                })
                .unwrap();
            perm.swap(k, piv);
            let pv = aug[perm[k]][k];
            if pv.abs() < 1e-12 {
                return None;
            }
            for i in k + 1..m {
                let f = aug[perm[i]][k] / pv;
                if f == 0.0 {
                    continue;
                }
                for j in k..m {
                    let v = aug[perm[k]][j];
                    aug[perm[i]][j] -= f * v;
                }
                x[perm[i]] -= f * x[perm[k]];
            }
        }
        let mut sol = vec![0.0; m];
        for k in (0..m).rev() {
            let mut t = x[perm[k]];
            for j in k + 1..m {
                t -= aug[perm[k]][j] * sol[j];
            }
            sol[k] = t / aug[perm[k]][k];
        }
        Some(sol)
    }

    /// Builds the CSC view (row c = column c) of a dense matrix whose
    /// `a[r][c]` is row r, column c.
    fn csc_of(a: &[Vec<f64>]) -> CsrMatrix {
        let m = a.len();
        let rows: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|c| {
                (0..m)
                    .filter(|&r| a[r][c] != 0.0)
                    .map(|r| (r, a[r][c]))
                    .collect()
            })
            .collect();
        CsrMatrix::from_rows(m, &rows)
    }

    #[test]
    fn factorize_and_ftran_match_dense_solve() {
        let a = vec![
            vec![2.0, 0.0, 1.0],
            vec![0.0, 3.0, 0.0],
            vec![4.0, 1.0, 5.0],
        ];
        let cols = csc_of(&a);
        let mut ws = LuWorkspace::new(3);
        let mut lu = LuFactors::new(3);
        lu.factorize(&cols, &[0, 1, 2], &mut ws).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let expect = dense_solve(&a, &b).unwrap();
        let mut v = b.clone();
        lu.ftran(&mut v, &mut ws);
        for (got, want) in v.iter().zip(expect.iter()) {
            assert!((got - want).abs() < 1e-9, "{v:?} vs {expect:?}");
        }
    }

    #[test]
    fn btran_matches_transposed_dense_solve() {
        let a = vec![
            vec![1.0, 2.0, 0.0],
            vec![0.0, 1.0, 4.0],
            vec![5.0, 0.0, 1.0],
        ];
        let at: Vec<Vec<f64>> = (0..3).map(|r| (0..3).map(|c| a[c][r]).collect()).collect();
        let cols = csc_of(&a);
        let mut ws = LuWorkspace::new(3);
        let mut lu = LuFactors::new(3);
        lu.factorize(&cols, &[0, 1, 2], &mut ws).unwrap();
        let c = vec![3.0, -1.0, 2.0];
        let expect = dense_solve(&at, &c).unwrap();
        let mut v = c.clone();
        lu.btran(&mut v, &mut ws);
        for (got, want) in v.iter().zip(expect.iter()) {
            assert!((got - want).abs() < 1e-9, "{v:?} vs {expect:?}");
        }
    }

    #[test]
    fn singular_basis_is_rejected() {
        let a = vec![
            vec![1.0, 2.0, 3.0],
            vec![2.0, 4.0, 6.0],
            vec![0.0, 1.0, 1.0],
        ];
        let cols = csc_of(&a);
        let mut lu = LuFactors::new(3);
        assert_eq!(
            lu.factorize(&cols, &[0, 1, 2], &mut LuWorkspace::new(3)),
            Err(SingularBasis)
        );
    }

    #[test]
    fn ft_update_tracks_a_column_replacement() {
        // B with columns [b0 b1 b2]; replace column 1 by a new column and
        // check FTRAN against a dense solve of the updated matrix.
        let a = vec![
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ];
        // Column pool: column 3 of the wider matrix is the replacement.
        let wide = [
            vec![4.0, 1.0, 0.0, 2.0],
            vec![1.0, 3.0, 1.0, 0.0],
            vec![0.0, 1.0, 2.0, 1.0],
        ];
        let rows: Vec<Vec<(usize, f64)>> = (0..4)
            .map(|c| {
                (0..3)
                    .filter(|&r| wide[r][c] != 0.0)
                    .map(|r| (r, wide[r][c]))
                    .collect()
            })
            .collect();
        let cols = CsrMatrix::from_rows(3, &rows);
        let mut ws = LuWorkspace::new(3);
        let mut lu = LuFactors::new(3);
        lu.factorize(&cols, &[0, 1, 2], &mut ws).unwrap();

        // FTRAN the replacement column (original row space), then update.
        let mut d = vec![2.0, 0.0, 1.0];
        lu.ftran(&mut d, &mut ws);
        lu.ft_update(1, &mut ws).unwrap();

        let mut updated = a.clone();
        for r in 0..3 {
            updated[r][1] = wide[r][3];
        }
        let b = vec![1.0, 1.0, 1.0];
        let expect = dense_solve(&updated, &b).unwrap();
        let mut v = b.clone();
        lu.ftran(&mut v, &mut ws);
        for (got, want) in v.iter().zip(expect.iter()) {
            assert!((got - want).abs() < 1e-9, "{v:?} vs {expect:?}");
        }
        // BTRAN against the transpose too.
        let ut: Vec<Vec<f64>> = (0..3)
            .map(|r| (0..3).map(|c| updated[c][r]).collect())
            .collect();
        let cvec = vec![2.0, -1.0, 0.5];
        let expect = dense_solve(&ut, &cvec).unwrap();
        let mut v = cvec.clone();
        lu.btran(&mut v, &mut ws);
        for (got, want) in v.iter().zip(expect.iter()) {
            assert!((got - want).abs() < 1e-9, "{v:?} vs {expect:?}");
        }
    }

    #[test]
    fn update_count_and_fill_drive_needs_refactor() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let cols = csc_of(&a);
        let mut ws = LuWorkspace::new(2);
        let mut lu = LuFactors::new(2);
        lu.factorize(&cols, &[0, 1], &mut ws).unwrap();
        assert!(!lu.needs_refactor(2));
        let mut d = vec![1.0, 1.0];
        lu.ftran(&mut d, &mut ws);
        lu.ft_update(0, &mut ws).unwrap();
        assert_eq!(lu.updates_since_refactor(), 1);
        assert!(!lu.needs_refactor(2));
        let mut d = vec![0.5, 1.0];
        lu.ftran(&mut d, &mut ws);
        lu.ft_update(1, &mut ws).unwrap();
        assert!(lu.needs_refactor(2));
    }
}
