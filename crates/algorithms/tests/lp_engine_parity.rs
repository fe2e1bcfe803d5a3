//! Dense-vs-revised parity on the LPs this workspace actually solves:
//! (LP1)/(LP2) instances from all three structural classes the paper treats —
//! independent jobs, disjoint chains, and forests decomposed into chain
//! blocks. Both engines must agree on status and objective within 1e-6 on
//! the *identical* problem built by `build_relaxation`.

use suu_algorithms::lp_relaxation::build_relaxation;
use suu_core::{InstanceBuilder, JobId, SuuInstance};
use suu_graph::{ChainDecomposition, ChainSet};
use suu_lp::{solve, solve_dense, LpStatus, SimplexOptions};
use suu_workloads::{random_chains, random_out_forest, sparse_uniform_matrix, uniform_matrix};

fn assert_parity(instance: &SuuInstance, chains: Option<&ChainSet>, label: &str) {
    let (lp, _, _, _) = build_relaxation(instance, chains);
    let options = SimplexOptions::default();
    let dense = solve_dense(&lp, &options).expect("dense solve");
    let revised = solve(&lp, &options).expect("revised solve");
    assert_eq!(dense.status, revised.status, "{label}: status mismatch");
    assert_eq!(
        dense.status,
        LpStatus::Optimal,
        "{label}: relaxations of valid instances are always feasible and bounded"
    );
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

#[test]
fn lp2_parity_on_independent_instances() {
    for (n, m, seed) in [(4, 2, 1), (8, 5, 2), (12, 6, 3), (20, 8, 4)] {
        let inst = InstanceBuilder::new(n, m)
            .probability_matrix(uniform_matrix(n, m, 0.1, 0.9, seed))
            .build()
            .unwrap();
        assert_parity(&inst, None, &format!("LP2 dense-matrix n={n} m={m}"));
    }
    // Sparse eligibility — the regime the revised engine exists for.
    for (n, m, seed) in [(15, 10, 5), (30, 12, 6)] {
        let inst = InstanceBuilder::new(n, m)
            .probability_matrix(sparse_uniform_matrix(n, m, 0.2, 0.9, 0.7, seed))
            .build()
            .unwrap();
        assert_parity(&inst, None, &format!("LP2 sparse n={n} m={m}"));
    }
}

#[test]
fn lp1_parity_on_chain_instances() {
    for (n, m, k, seed) in [(6, 3, 2, 7), (10, 4, 3, 8), (16, 5, 4, 9)] {
        let dag = random_chains(n, k, seed);
        let chains = ChainSet::from_dag(&dag).unwrap();
        let inst = InstanceBuilder::new(n, m)
            .probability_matrix(uniform_matrix(n, m, 0.1, 0.9, seed))
            .precedence(dag)
            .build()
            .unwrap();
        assert_parity(
            &inst,
            Some(&chains),
            &format!("LP1 chains n={n} m={m} k={k}"),
        );
    }
}

#[test]
fn lp1_parity_on_forest_chain_blocks() {
    // The forest algorithm (Thm 4.7/4.8) feeds each chain block of the
    // Lemma 4.6 decomposition through (LP1); parity must hold on exactly
    // those sub-instances.
    for (n, m, roots, seed) in [(9, 3, 2, 11), (14, 4, 3, 12)] {
        let dag = random_out_forest(n, roots, seed);
        let inst = InstanceBuilder::new(n, m)
            .probability_matrix(uniform_matrix(n, m, 0.1, 0.9, seed))
            .precedence(dag)
            .build()
            .unwrap();
        let decomposition = ChainDecomposition::decompose(inst.precedence()).unwrap();
        for (block, (chain_set, mapping)) in decomposition.block_chain_sets().iter().enumerate() {
            let jobs: Vec<JobId> = mapping.iter().map(|&v| JobId(v)).collect();
            let (sub, _) = inst.restrict_to_jobs(&jobs);
            assert_parity(
                &sub,
                Some(chain_set),
                &format!("LP1 forest n={n} m={m} block={block}"),
            );
        }
    }
}

#[test]
fn engine_parity_on_mass_target_edge() {
    // Degenerate relaxation: one machine, one job, p = 1 — the optimum sits
    // on several active constraints at once.
    let inst = InstanceBuilder::new(1, 1)
        .uniform_probability(1.0)
        .build()
        .unwrap();
    assert_parity(&inst, None, "LP2 1x1");
    let chains = ChainSet::from_dag(inst.precedence()).unwrap();
    assert_parity(&inst, Some(&chains), "LP1 1x1");
}
