//! Differential-testing battery: the dense tableau is the oracle for the
//! revised simplex. On every generated LP the two engines must agree on the
//! status and, when optimal, on the objective within 1e-6 (the optimal
//! *vertex* may legitimately differ; both must be feasible).

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use suu_lp::{solve, solve_dense, ConstraintOp, LpProblem, LpStatus, Sense, SimplexOptions, VarId};

fn assert_engines_agree(lp: &LpProblem, label: &str) {
    let options = SimplexOptions::default();
    let dense = solve_dense(lp, &options).expect("dense solve");
    let revised = solve(lp, &options).expect("revised solve");
    assert_eq!(dense.status, revised.status, "{label}: status mismatch");
    if dense.status == LpStatus::Optimal {
        assert!(
            (dense.objective - revised.objective).abs() <= 1e-6,
            "{label}: dense {} vs revised {}",
            dense.objective,
            revised.objective
        );
        assert!(
            lp.is_feasible(&dense.values, 1e-6),
            "{label}: dense vertex infeasible"
        );
        assert!(
            lp.is_feasible(&revised.values, 1e-6),
            "{label}: revised vertex infeasible"
        );
    }
}

/// A random LP mixing all three operators, with signs and bounds chosen so
/// that every status (optimal / infeasible / unbounded) shows up across the
/// battery.
fn random_lp(rng: &mut ChaCha8Rng) -> LpProblem {
    let nv = rng.gen_range(2..10);
    let nc = rng.gen_range(1..12);
    let sense = if rng.gen_bool(0.5) {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut lp = LpProblem::new(sense);
    let vars: Vec<VarId> = (0..nv).map(|i| lp.add_variable(format!("v{i}"))).collect();
    for &v in &vars {
        lp.set_objective_coefficient(v, rng.gen_range(-2.0..3.0));
    }
    for c in 0..nc {
        // Sparse rows: each touches 1..=4 variables.
        let k = rng.gen_range(1..=4.min(nv));
        let mut terms = Vec::new();
        for _ in 0..k {
            terms.push((vars[rng.gen_range(0..nv)], rng.gen_range(-2.0..2.5)));
        }
        let op = match rng.gen_range(0..3) {
            0 => ConstraintOp::Le,
            1 => ConstraintOp::Ge,
            _ => ConstraintOp::Eq,
        };
        lp.add_constraint(terms, op, rng.gen_range(-4.0..8.0), format!("c{c}"));
    }
    lp
}

#[test]
fn random_mixed_lps_agree() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD1FF);
    let mut statuses = [0usize; 3];
    for trial in 0..200 {
        let lp = random_lp(&mut rng);
        let dense = solve_dense(&lp, &SimplexOptions::default()).unwrap();
        statuses[match dense.status {
            LpStatus::Optimal => 0,
            LpStatus::Infeasible => 1,
            LpStatus::Unbounded => 2,
        }] += 1;
        assert_engines_agree(&lp, &format!("random trial {trial}"));
    }
    // The battery is only meaningful if it actually exercises every status.
    assert!(
        statuses.iter().all(|&c| c > 0),
        "battery must cover optimal/infeasible/unbounded, got {statuses:?}"
    );
}

#[test]
fn random_feasible_covering_lps_agree() {
    // Guaranteed-feasible minimisation problems with ≥ rows (phase 1 heavy).
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FE);
    for trial in 0..60 {
        let nv = rng.gen_range(2..8);
        let nc = rng.gen_range(1..8);
        let mut lp = LpProblem::new(Sense::Minimize);
        let vars: Vec<VarId> = (0..nv).map(|i| lp.add_variable(format!("v{i}"))).collect();
        for &v in &vars {
            lp.set_objective_coefficient(v, rng.gen_range(0.5..3.0));
        }
        for c in 0..nc {
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for &v in &vars {
                if rng.gen_bool(0.6) {
                    terms.push((v, rng.gen_range(0.1..2.0)));
                }
            }
            if terms.is_empty() {
                continue;
            }
            lp.add_constraint(
                terms,
                ConstraintOp::Ge,
                rng.gen_range(0.5..5.0),
                format!("c{c}"),
            );
        }
        assert_engines_agree(&lp, &format!("covering trial {trial}"));
    }
}

#[test]
fn degenerate_lps_agree() {
    // Many constraints active at the optimum: the classic degeneracy stress.
    let mut rng = ChaCha8Rng::seed_from_u64(0xDE6E);
    for trial in 0..40 {
        let nv = rng.gen_range(2..6);
        let mut lp = LpProblem::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..nv).map(|i| lp.add_variable(format!("v{i}"))).collect();
        for &v in &vars {
            lp.set_objective_coefficient(v, 1.0);
        }
        // Shared bound repeated through overlapping rows ⇒ degenerate vertex.
        let bound = rng.gen_range(1.0..3.0);
        lp.add_constraint(
            vars.iter().map(|&v| (v, 1.0)).collect(),
            ConstraintOp::Le,
            bound,
            "sum",
        );
        for (i, &v) in vars.iter().enumerate() {
            lp.add_constraint(vec![(v, 1.0)], ConstraintOp::Le, bound, format!("b{i}"));
            lp.add_constraint(
                vec![(v, 2.0), (vars[(i + 1) % nv], 1.0)],
                ConstraintOp::Le,
                2.0 * bound,
                format!("p{i}"),
            );
        }
        assert_engines_agree(&lp, &format!("degenerate trial {trial}"));
    }
}

#[test]
fn equality_systems_agree() {
    // Pure equality systems solved through phase 1, including infeasible and
    // redundant-row cases.
    let mut rng = ChaCha8Rng::seed_from_u64(0xE0);
    for trial in 0..60 {
        let nv = rng.gen_range(2..6);
        let nc = rng.gen_range(1..=nv + 1);
        let mut lp = LpProblem::new(Sense::Minimize);
        let vars: Vec<VarId> = (0..nv).map(|i| lp.add_variable(format!("v{i}"))).collect();
        for &v in &vars {
            lp.set_objective_coefficient(v, rng.gen_range(0.0..2.0));
        }
        for c in 0..nc {
            let terms: Vec<(VarId, f64)> = vars
                .iter()
                .map(|&v| (v, rng.gen_range(-1.5..2.0)))
                .collect();
            lp.add_constraint(
                terms,
                ConstraintOp::Eq,
                rng.gen_range(-1.0..3.0),
                format!("e{c}"),
            );
        }
        assert_engines_agree(&lp, &format!("equality trial {trial}"));
    }
}

#[test]
fn adversarial_options_preserve_parity() {
    // Hostile solver options must change *how* the revised engine gets to
    // the answer, never the answer itself: `refactor_interval: 1` (clamped
    // to m internally) forces Forrest–Tomlin chains to be torn down and the
    // basis refactorised as often as the engine allows, and
    // `stall_threshold: 1` flips pricing into Bland's rule after a single
    // degenerate pivot, dragging the devex candidate list in and out of
    // play. The dense oracle still runs with defaults.
    let mut rng = ChaCha8Rng::seed_from_u64(0xAD5);
    let harsh = SimplexOptions {
        refactor_interval: 1,
        stall_threshold: 1,
        ..SimplexOptions::default()
    };
    for trial in 0..80 {
        let lp = random_lp(&mut rng);
        let dense = solve_dense(&lp, &SimplexOptions::default()).expect("dense solve");
        let revised = solve(&lp, &harsh).expect("revised solve under harsh options");
        assert_eq!(
            dense.status, revised.status,
            "harsh-options trial {trial}: status mismatch"
        );
        if dense.status == LpStatus::Optimal {
            assert!(
                (dense.objective - revised.objective).abs() <= 1e-6,
                "harsh-options trial {trial}: dense {} vs revised {}",
                dense.objective,
                revised.objective
            );
            assert!(
                lp.is_feasible(&revised.values, 1e-6),
                "harsh-options trial {trial}: revised vertex infeasible"
            );
        }
        // Determinism under pressure: the same harsh solve, run twice, must
        // be bit-identical (pivots are the clock; options are part of it).
        let again = solve(&lp, &harsh).expect("repeat solve");
        assert_eq!(revised.status, again.status, "trial {trial}: repeat status");
        assert_eq!(
            revised.objective.to_bits(),
            again.objective.to_bits(),
            "trial {trial}: repeat objective not bit-identical"
        );
    }
}
