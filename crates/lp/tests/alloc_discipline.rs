//! Allocation discipline for the revised engine's pivot loop, asserted with
//! a counting global allocator (referenced by the `revised` and `lu` module
//! docs).
//!
//! The claim under test is about *scaling*, not absolutes: building the
//! solver and the first factorisation may allocate freely (CSR assembly, LU
//! workspaces, pricing buffers), and the long-lived factor workspaces grow
//! amortised toward their fill high-water marks (Forrest–Tomlin spikes grow
//! the flat factor arenas, and refactorisation fill the workspace's working
//! columns, whose capacity persists).
//! What must NOT happen is a per-pivot temporary — any `Vec::new`, `clone`
//! or `collect` on the pivot path would cost ≥ 1 allocation per pivot
//! forever. We measure it directly: solve the same LP under increasing
//! `max_iterations` caps and compare the allocation counts of equal-width
//! pivot windows. The steady-state window must stay well under one
//! allocation per pivot, and the whole profile must be bit-deterministic.
//!
//! A second claim is about warm-start donors: the LU factors a solve
//! captures are a handful of flat arrays, so cloning them (which the
//! service's warm-basis index does on every lookup) costs a fixed number of
//! allocations, not one per row or column of the basis.
//!
//! The counter is per thread. The default test harness runs `#[test]`s
//! concurrently and allocates on its own threads as results come in, so a
//! process-wide count would pick up a sibling test's (or the harness's)
//! allocations; the solver itself is single-threaded, so each test counts
//! exactly what its own thread allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use suu_lp::{
    solve_revised, solve_revised_with_basis, ConstraintOp, LpError, LpProblem, Sense,
    SimplexOptions, VarId,
};

struct CountingAlloc;

thread_local! {
    /// Allocator calls made by the current thread. `const`-initialised and
    /// without a destructor, so counting never allocates.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    // `try_with` cannot panic inside the allocator, even at thread exit.
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

/// Allocator calls the current thread has made so far.
fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// A deterministic covering LP large enough that the revised engine needs
/// well over 240 pivots (two phases: the `Ge` rows plant artificials).
fn long_running_lp() -> LpProblem {
    let nv = 60;
    let nc = 80;
    let mut lp = LpProblem::new(Sense::Minimize);
    let vars: Vec<_> = (0..nv).map(|i| lp.add_variable(format!("x{i}"))).collect();
    let mut state = 0x5EEDu64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for &v in &vars {
        lp.set_objective_coefficient(v, 1.0 + (next() % 100) as f64 / 50.0);
    }
    for c in 0..nc {
        // Each row covers 4 variables with positive weights: feasible (push
        // any cover high enough) and bounded below (minimisation, all
        // positive costs), so the solve runs to optimality if uncapped.
        let mut terms = Vec::new();
        for _ in 0..4 {
            let v = vars[(next() % nv as u64) as usize];
            if terms.iter().all(|&(w, _)| w != v) {
                terms.push((v, 0.5 + (next() % 100) as f64 / 40.0));
            }
        }
        lp.add_constraint(
            terms,
            ConstraintOp::Ge,
            1.0 + (c % 7) as f64,
            format!("r{c}"),
        );
    }
    lp
}

/// Runs the revised engine capped at `cap` pivots and returns the number of
/// allocator calls the solve made. The solve must actually hit the cap, so
/// every measured run executes exactly `cap` pivots down the same
/// deterministic path.
fn allocs_for_capped_solve(lp: &LpProblem, cap: usize) -> u64 {
    let options = SimplexOptions {
        max_iterations: Some(cap),
        ..SimplexOptions::default()
    };
    let before = alloc_calls();
    let outcome = solve_revised(lp, &options);
    let after = alloc_calls();
    match outcome {
        Err(LpError::IterationLimit { limit }) => assert_eq!(limit, cap),
        other => panic!("expected the {cap}-pivot cap to trip, got {other:?}"),
    }
    after - before
}

#[test]
fn pivot_loop_performs_no_per_pivot_allocation() {
    let lp = long_running_lp();

    // Ladder of caps, each 60 pivots apart. The prefix of the pivot
    // sequence is identical across runs (pivots are the clock and options
    // only differ in the cap), so subtracting adjacent rungs isolates the
    // allocations attributable to 60 pivots of work — including the
    // data-driven refactorisations that fall inside the window.
    let a60 = allocs_for_capped_solve(&lp, 60);
    let a120 = allocs_for_capped_solve(&lp, 120);
    let a180 = allocs_for_capped_solve(&lp, 180);
    let a240 = allocs_for_capped_solve(&lp, 240);

    let windows = [a120 - a60, a180 - a120, a240 - a180];

    // Each windowed allocation is amortised workspace growth (factor fill
    // finding a new high-water mark). A single per-pivot temporary on the
    // hot path would add ≥ 60 to EVERY window; the measured profile sits
    // well under that early (capacity still warming) and decays from there,
    // so one allocation per pivot is a bright line between "amortised
    // growth" and "allocating pivot loop".
    for (i, &w) in windows.iter().enumerate() {
        assert!(
            w < 120,
            "window {i} allocated {w} times over 60 pivots (ladder: {a60} / {a120} / {a180} / {a240})"
        );
    }
    let late = windows[2];
    assert!(
        late < 60,
        "steady-state window allocated {late} times over 60 pivots — \
         at least one per-pivot allocation crept onto the hot path \
         (ladder: {a60} / {a120} / {a180} / {a240})"
    );

    // Allocation behaviour is part of the deterministic contract: the same
    // capped solve, repeated, must allocate the exact same number of times.
    let again = allocs_for_capped_solve(&lp, 240);
    assert_eq!(
        a240, again,
        "identical solves allocated differently ({a240} vs {again})"
    );

    // Sanity on the fixture itself: uncapped, the LP solves to optimality
    // (so the capped runs above were genuinely mid-pivot-loop snapshots,
    // not pathological cycling).
    let full = solve_revised(&lp, &SimplexOptions::default()).expect("uncapped solve");
    assert_eq!(full.status, suu_lp::LpStatus::Optimal);
}

/// The paper's (LP1) for `n` jobs on `m` machines in chains of `chain_len`
/// consecutive jobs, built row for row like `suu_algorithms`'
/// `build_relaxation`: mass rows `Σ_i p_ij x_ij ≥ 1/2`, machine loads
/// `Σ_j x_ij ≤ t`, chain lengths `Σ_{j∈C} d_j ≤ t`, `x_ij ≤ d_j` and
/// `d_j ≥ 1`, minimising `t`.
fn chains_lp1(n: usize, m: usize, chain_len: usize) -> LpProblem {
    let mut state = 0x1_9E37_79B9u64;
    let mut next_p = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        0.05 + 0.9 * (state % 1000) as f64 / 1000.0
    };
    let mut lp = LpProblem::new(Sense::Minimize);
    let mut x: Vec<Vec<VarId>> = Vec::with_capacity(m);
    let mut mass: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); n];
    for _ in 0..m {
        let row: Vec<VarId> = (0..n).map(|_| lp.add_variable("")).collect();
        for (j, &v) in row.iter().enumerate() {
            mass[j].push((v, next_p()));
        }
        x.push(row);
    }
    let d: Vec<VarId> = (0..n).map(|_| lp.add_variable("")).collect();
    let t = lp.add_variable("t");
    lp.set_objective_coefficient(t, 1.0);
    for terms in mass {
        lp.add_constraint(terms, ConstraintOp::Ge, 0.5, "");
    }
    for row in &x {
        let mut terms: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
        terms.push((t, -1.0));
        lp.add_constraint(terms, ConstraintOp::Le, 0.0, "");
    }
    for chain in d.chunks(chain_len) {
        let mut terms: Vec<(VarId, f64)> = chain.iter().map(|&v| (v, 1.0)).collect();
        terms.push((t, -1.0));
        lp.add_constraint(terms, ConstraintOp::Le, 0.0, "");
    }
    for row in &x {
        for (j, &v) in row.iter().enumerate() {
            lp.add_constraint(vec![(v, 1.0), (d[j], -1.0)], ConstraintOp::Le, 0.0, "");
        }
    }
    for &v in &d {
        lp.add_constraint(vec![(v, 1.0)], ConstraintOp::Ge, 1.0, "");
    }
    lp
}

/// Allocations made by cloning the LU factors a solve of `lp` captures,
/// with the basis dimension they factor.
fn donor_clone_allocs(lp: &LpProblem) -> (u64, usize) {
    let start = solve_revised_with_basis(lp, &SimplexOptions::default())
        .expect("(LP1) solves")
        .into_warm_start()
        .expect("an optimal solve captures a warm start");
    let factors = start.factors.expect("the capture keeps its LU factors");
    let before = alloc_calls();
    let copy = factors.clone();
    let after = alloc_calls();
    assert_eq!(copy.dim(), factors.dim());
    (after - before, factors.dim())
}

#[test]
fn cloning_a_captured_donor_costs_a_fixed_number_of_allocations() {
    // Per-row storage would cost one allocation per non-empty U row, U
    // column and L column: thousands at 96×12. Flat arrays cost the same
    // handful at every size.
    for (n, m) in [(24, 4), (96, 12)] {
        let (allocs, dim) = donor_clone_allocs(&chains_lp1(n, m, 8));
        assert!(dim > n * m, "{n}x{m}: (LP1) has {dim} rows");
        assert!(
            allocs <= 48,
            "{n}x{m}: cloning a donor of dimension {dim} made {allocs} allocations"
        );
    }
}
