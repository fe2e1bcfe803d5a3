//! Warm-vs-cold differential battery for [`suu_lp::solve_warm`].
//!
//! 300+ random LPs, each mutated by one of {rhs, cost, bound, drop-row}.
//! The warm-started solve of the mutated child must agree with a cold solve
//! on the status and (when optimal) on the objective to 1e-12, and repeated
//! warm solves from the same start must replay **bit-identically** — the
//! pivots-as-clock determinism contract holds on the dual-simplex path too.
//!
//! Mutation kinds are chosen to exercise every dispatch arm of the warm
//! path: `cost` leaves the donor vertex primal-feasible (straight to
//! phase 2), `rhs`/`bound` typically leave it dual-feasible only (dual
//! simplex), and `drop-row` changes the standard-form shape so the basis no
//! longer fits and the solver must fall back to a cold solve internally.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use suu_lp::{
    solve, solve_revised_with_basis, solve_warm, ConstraintOp, LpProblem, LpStatus, Sense,
    SimplexOptions, WarmStart,
};

/// A rebuildable LP description: mutations edit the spec and rebuild, since
/// [`LpProblem`] itself is append-only by design.
#[derive(Clone)]
struct Spec {
    sense: Sense,
    obj: Vec<f64>,
    #[allow(clippy::type_complexity)]
    rows: Vec<(Vec<(usize, f64)>, ConstraintOp, f64)>,
}

impl Spec {
    fn build(&self) -> LpProblem {
        let mut lp = LpProblem::new(self.sense);
        let vars: Vec<_> = (0..self.obj.len())
            .map(|i| lp.add_variable(format!("v{i}")))
            .collect();
        for (&v, &c) in vars.iter().zip(self.obj.iter()) {
            lp.set_objective_coefficient(v, c);
        }
        for (i, (terms, op, rhs)) in self.rows.iter().enumerate() {
            let terms: Vec<_> = terms.iter().map(|&(j, a)| (vars[j], a)).collect();
            lp.add_constraint(terms, *op, *rhs, format!("c{i}"));
        }
        lp
    }
}

/// Random LP. Seven in eight are covering-flavoured — minimise a positive
/// objective over `≥` rows with positive coefficients plus a few loose
/// capacity rows — so they are feasible and bounded, which is the warm
/// path's home turf. The eighth is a "wild" mix (signs, `=` rows, maximise)
/// so infeasible and unbounded verdicts stay represented in the battery.
fn random_spec(rng: &mut ChaCha8Rng) -> Spec {
    let nv = rng.gen_range(4..12);
    let nc = rng.gen_range(3..12);
    if rng.gen_bool(0.125) {
        return wild_spec(rng, nv, nc);
    }
    let obj: Vec<f64> = (0..nv).map(|_| rng.gen_range(0.2..3.0)).collect();
    let mut rows = Vec::new();
    for _ in 0..nc {
        let k = rng.gen_range(1..=3.min(nv));
        let mut picked = Vec::new();
        let mut terms: Vec<(usize, f64)> = Vec::new();
        for _ in 0..k {
            let j = rng.gen_range(0..nv);
            if picked.contains(&j) {
                continue;
            }
            picked.push(j);
            terms.push((j, rng.gen_range(0.5..2.5)));
        }
        let (op, rhs) = if rng.gen_bool(0.7) {
            (ConstraintOp::Ge, rng.gen_range(0.5..4.0))
        } else {
            (ConstraintOp::Le, rng.gen_range(15.0..40.0))
        };
        rows.push((terms, op, rhs));
    }
    Spec {
        sense: Sense::Minimize,
        obj,
        rows,
    }
}

fn wild_spec(rng: &mut ChaCha8Rng, nv: usize, nc: usize) -> Spec {
    let sense = if rng.gen_bool(0.5) {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let obj: Vec<f64> = (0..nv).map(|_| rng.gen_range(-2.0..3.0)).collect();
    let mut rows = Vec::new();
    for _ in 0..nc {
        let k = rng.gen_range(1..=3.min(nv));
        let mut terms: Vec<(usize, f64)> = Vec::new();
        for _ in 0..k {
            let j = rng.gen_range(0..nv);
            if terms.iter().any(|&(seen, _)| seen == j) {
                continue;
            }
            terms.push((j, rng.gen_range(-2.0..2.5)));
        }
        let op = match rng.gen_range(0..10) {
            0..=4 => ConstraintOp::Ge,
            5..=8 => ConstraintOp::Le,
            _ => ConstraintOp::Eq,
        };
        rows.push((terms, op, rng.gen_range(0.5..8.0)));
    }
    Spec { sense, obj, rows }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    Rhs,
    Cost,
    Bound,
    DropRow,
}

/// Applies one structured edit. `Bound` retunes a single-variable row when
/// one exists (the model's stand-in for a variable bound) and otherwise
/// appends a fresh upper bound — the append changes the standard-form shape,
/// which doubles as coverage of the basis-shape fallback.
fn mutate(spec: &Spec, kind: Mutation, rng: &mut ChaCha8Rng) -> Spec {
    let mut out = spec.clone();
    match kind {
        Mutation::Rhs => {
            // Biased towards *tightening* a covering row: that leaves the
            // donor vertex primal-infeasible but dual-feasible — the edit
            // the dual-simplex arm exists for.
            let i = rng.gen_range(0..out.rows.len());
            let bump = if rng.gen_bool(0.8) {
                rng.gen_range(0.3..2.5)
            } else {
                rng.gen_range(-1.5..0.0)
            };
            out.rows[i].2 = (out.rows[i].2 + bump).max(0.1);
        }
        Mutation::Cost => {
            let j = rng.gen_range(0..out.obj.len());
            out.obj[j] += rng.gen_range(-2.0..2.0);
        }
        Mutation::Bound => {
            if let Some(i) = out.rows.iter().position(|(terms, _, _)| terms.len() == 1) {
                out.rows[i].2 = (out.rows[i].2 + rng.gen_range(-1.0..1.0)).max(0.1);
            } else {
                let j = rng.gen_range(0..out.obj.len());
                out.rows
                    .push((vec![(j, 1.0)], ConstraintOp::Le, rng.gen_range(2.0..10.0)));
            }
        }
        Mutation::DropRow => {
            if out.rows.len() > 1 {
                let i = rng.gen_range(0..out.rows.len());
                out.rows.remove(i);
            } else {
                out.rows[0].2 = (out.rows[0].2 + 0.5).max(0.1);
            }
        }
    }
    out
}

fn opts() -> SimplexOptions {
    SimplexOptions::default()
}

#[test]
fn warm_matches_cold_across_mutations() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5747_4c50);
    let kinds = [
        Mutation::Rhs,
        Mutation::Cost,
        Mutation::Bound,
        Mutation::DropRow,
    ];
    let mut total = 0usize;
    let mut optimal_parents = 0usize;
    let mut captured = 0usize;
    let mut warm_used = 0usize;
    let mut warm_pivoted = 0usize;
    for case in 0..340 {
        let spec = random_spec(&mut rng);
        let parent = spec.build();
        let Ok(donor) = solve_revised_with_basis(&parent, &opts()) else {
            continue;
        };
        total += 1;
        if donor.solution.status == LpStatus::Optimal {
            optimal_parents += 1;
        }
        if donor.solution.status != LpStatus::Optimal || donor.basis.is_empty() {
            continue;
        }
        captured += 1;
        let basis = donor.basis.clone();
        let factors = donor.factors;

        let kind = kinds[case % kinds.len()];
        let child_spec = mutate(&spec, kind, &mut rng);
        let child = child_spec.build();
        let cold = solve(&child, &opts()).expect("cold child solve");

        // Basis-only warm start, twice: parity against cold plus the
        // bit-identical replay check.
        let warm_a = solve_warm(
            &child,
            WarmStart {
                basis: basis.clone(),
                factors: None,
            },
            &opts(),
        )
        .expect("warm child solve");
        let warm_b = solve_warm(
            &child,
            WarmStart {
                basis: basis.clone(),
                factors: None,
            },
            &opts(),
        )
        .expect("warm child re-solve");

        assert_eq!(
            warm_a.solution.status, cold.status,
            "case {case} ({kind:?}): warm status {:?} vs cold {:?}",
            warm_a.solution.status, cold.status
        );
        if cold.status == LpStatus::Optimal {
            let tol = 1e-12 * (1.0 + cold.objective.abs());
            assert!(
                (warm_a.solution.objective - cold.objective).abs() <= tol,
                "case {case} ({kind:?}): warm {} vs cold {}",
                warm_a.solution.objective,
                cold.objective
            );
            assert!(
                child.is_feasible(&warm_a.solution.values, 1e-6),
                "case {case} ({kind:?}): warm vertex infeasible"
            );
        }

        // Determinism: identical warm inputs replay bit-for-bit.
        assert_eq!(warm_a.solution.iterations, warm_b.solution.iterations);
        assert_eq!(
            warm_a.solution.objective.to_bits(),
            warm_b.solution.objective.to_bits(),
            "case {case} ({kind:?}): warm replay objective drifted"
        );
        for (x, y) in warm_a
            .solution
            .values
            .iter()
            .zip(warm_b.solution.values.iter())
        {
            assert_eq!(x.to_bits(), y.to_bits(), "case {case}: replay value drift");
        }

        // Donor-factors warm start: same verdict and objective; the factors
        // are an optimisation, never allowed to change the answer beyond
        // the parity tolerance.
        let warm_f = solve_warm(&child, WarmStart { basis, factors }, &opts())
            .expect("warm child solve with factors");
        assert_eq!(
            warm_f.solution.status, cold.status,
            "case {case} ({kind:?}): factors-warm status diverged"
        );
        if cold.status == LpStatus::Optimal {
            let tol = 1e-12 * (1.0 + cold.objective.abs());
            assert!(
                (warm_f.solution.objective - cold.objective).abs() <= tol,
                "case {case} ({kind:?}): factors-warm {} vs cold {}",
                warm_f.solution.objective,
                cold.objective
            );
        }

        if warm_a.warm {
            warm_used += 1;
            if warm_a.solution.iterations > 0 {
                warm_pivoted += 1;
            }
        }
    }
    eprintln!(
        "warm_cold_parity: total={total} optimal_parents={optimal_parents} captured={captured} warm_used={warm_used} warm_pivoted={warm_pivoted}"
    );
    assert!(total >= 300, "battery shrank: only {total} LPs generated");
    // The battery is only meaningful if the warm path actually runs: most
    // optimal parents must warm-start their child, and a healthy share must
    // need real (dual or primal) pivots rather than a free re-read.
    assert!(
        warm_used >= 100,
        "warm path exercised on only {warm_used} cases"
    );
    assert!(
        warm_pivoted >= 20,
        "warm path pivoted on only {warm_pivoted} cases"
    );
}

/// The `drop-row` arm by construction mismatches the basis shape; pin down
/// that the fallback is silent, cold and correct.
#[test]
fn shape_mismatch_falls_back_cold() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD809);
    for case in 0..24 {
        let spec = random_spec(&mut rng);
        let parent = spec.build();
        let Ok(donor) = solve_revised_with_basis(&parent, &opts()) else {
            continue;
        };
        if donor.solution.status != LpStatus::Optimal || donor.basis.is_empty() {
            continue;
        }
        let child_spec = mutate(&spec, Mutation::DropRow, &mut rng);
        if child_spec.rows.len() == spec.rows.len() {
            continue; // degenerate single-row fallback edit
        }
        let child = child_spec.build();
        let cold = solve(&child, &opts()).expect("cold solve");
        let warm = solve_warm(
            &child,
            WarmStart {
                basis: donor.basis,
                factors: donor.factors,
            },
            &opts(),
        )
        .expect("warm solve");
        assert!(!warm.warm, "case {case}: shape mismatch must report cold");
        assert_eq!(warm.solution.status, cold.status);
        if cold.status == LpStatus::Optimal {
            assert_eq!(
                warm.solution.objective.to_bits(),
                cold.objective.to_bits(),
                "case {case}: internal cold fallback must equal solve exactly"
            );
        }
    }
}
