//! Property battery for the sparse LU kernel ([`suu_lp::LuFactors`]):
//!
//! * FTRAN solves `B x = v` — checked against a dense
//!   Gaussian-elimination oracle and by multiplying back through `B`;
//! * BTRAN solves `Bᵀ y = v` — same two checks on the transpose;
//! * a Forrest–Tomlin column update is *equivalent* to refactorising the
//!   updated basis from scratch (both solve the same systems), across
//!   chains of successive updates;
//! * structurally singular bases (zero column, duplicated column, a column
//!   that is the sum of two others) are rejected by `factorize`.
//!
//! Matrices are random sparse permuted-diagonally-dominant systems: a
//! permutation pivot per column plus bounded off-diagonal clutter, so
//! invertibility is guaranteed by construction while the sparsity pattern —
//! the thing the Markowitz ordering and the triangularisation pre-pass
//! actually react to — varies freely.

use proptest::prelude::*;
use suu_lp::{CsrMatrix, LuFactors, LuWorkspace};

/// Deterministic value in `±[0.5, 2.0]` for off-deterministic generation.
fn mix(seed: u64, a: usize, b: usize) -> u64 {
    let mut z = seed ^ ((a as u64) << 32) ^ (b as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(seed: u64, a: usize, b: usize) -> f64 {
    (mix(seed, a, b) >> 11) as f64 / (1u64 << 53) as f64
}

/// Random sparse invertible `m × m` matrix as column lists `(row, value)`.
///
/// Column `c` holds a strong pivot at row `perm[c]` (|v| in [1, 2]) plus up
/// to `extra` off-pivot entries with magnitude ≤ 0.3 / (extra + 1), keeping
/// the matrix nonsingular (permuted strict diagonal dominance) for every
/// seed.
fn random_invertible(m: usize, extra: usize, seed: u64) -> Vec<Vec<(usize, f64)>> {
    // Fisher–Yates over the pivot rows.
    let mut perm: Vec<usize> = (0..m).collect();
    for i in (1..m).rev() {
        let j = (mix(seed, i, 0xFFFF) as usize) % (i + 1);
        perm.swap(i, j);
    }
    let mut cols = Vec::with_capacity(m);
    for c in 0..m {
        let sign = if mix(seed, c, 0xA) & 1 == 0 {
            1.0
        } else {
            -1.0
        };
        let mut col = vec![(perm[c], sign * (1.0 + unit(seed, c, 0xB)))];
        for e in 0..extra {
            let r = (mix(seed, c, e) as usize) % m;
            if col.iter().all(|&(rr, _)| rr != r) {
                let v = (unit(seed, c, e + 100) - 0.5) * 0.6 / (extra as f64 + 1.0);
                if v != 0.0 {
                    col.push((r, v));
                }
            }
        }
        cols.push(col);
    }
    cols
}

/// Dense `B x = v` oracle: Gaussian elimination with partial pivoting.
fn dense_solve(cols: &[Vec<(usize, f64)>], v: &[f64]) -> Vec<f64> {
    let m = v.len();
    let mut a = vec![vec![0.0f64; m + 1]; m];
    for (c, col) in cols.iter().enumerate() {
        for &(r, val) in col {
            a[r][c] = val;
        }
    }
    for (r, x) in v.iter().enumerate() {
        a[r][m] = *x;
    }
    for k in 0..m {
        let piv = (k..m)
            .max_by(|&i, &j| a[i][k].abs().partial_cmp(&a[j][k].abs()).unwrap())
            .unwrap();
        a.swap(k, piv);
        assert!(a[k][k].abs() > 1e-12, "oracle matrix must be invertible");
        for i in k + 1..m {
            let f = a[i][k] / a[k][k];
            if f != 0.0 {
                for j in k..=m {
                    a[i][j] -= f * a[k][j];
                }
            }
        }
    }
    let mut x = vec![0.0; m];
    for k in (0..m).rev() {
        let mut t = a[k][m];
        for j in k + 1..m {
            t -= a[k][j] * x[j];
        }
        x[k] = t / a[k][k];
    }
    x
}

/// Multiplies `B x` (columns given as sparse lists, `x` by basis position).
fn apply(cols: &[Vec<(usize, f64)>], x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; x.len()];
    for (c, col) in cols.iter().enumerate() {
        for &(r, v) in col {
            out[r] += v * x[c];
        }
    }
    out
}

/// Multiplies `Bᵀ y` (`y` by original row).
fn apply_t(cols: &[Vec<(usize, f64)>], y: &[f64]) -> Vec<f64> {
    cols.iter()
        .map(|col| col.iter().map(|&(r, v)| v * y[r]).sum())
        .collect()
}

fn factors_for(cols: &[Vec<(usize, f64)>]) -> LuFactors {
    let m = cols.len();
    let csc = CsrMatrix::from_rows(m, cols);
    let basis: Vec<usize> = (0..m).collect();
    let mut f = LuFactors::new(m);
    f.factorize(&csc, &basis, &mut LuWorkspace::new(m))
        .expect("matrix is invertible by construction");
    f
}

fn rhs(m: usize, seed: u64) -> Vec<f64> {
    (0..m).map(|r| unit(seed, r, 0xD) * 4.0 - 2.0).collect()
}

const TOL: f64 = 1e-8;

fn assert_close(a: &[f64], b: &[f64], what: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= TOL * (1.0 + x.abs().max(y.abs())),
            "{what}: component {i} differs ({x} vs {y})"
        );
    }
}

/// The proptest FT chain tolerates `ft_update` rejections (the caller's
/// contract is "refactorise on Err"), so this deterministic case pins the
/// success path: the update must be *accepted* and must then agree with a
/// fresh factorisation.
#[test]
fn a_benign_ft_update_is_accepted_and_correct() {
    let mut cols = random_invertible(8, 3, 0x0FF1CE);
    let mut factors = factors_for(&cols);
    let mut ws = LuWorkspace::new(8);
    let pos = 3;
    let pivot_row = cols[pos]
        .iter()
        .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
        .unwrap()
        .0;
    let newcol = vec![(pivot_row, 1.5), ((pivot_row + 1) % 8, 0.1)];
    let mut dirn = vec![0.0; 8];
    for &(r, v) in &newcol {
        dirn[r] = v;
    }
    factors.ftran(&mut dirn, &mut ws);
    cols[pos] = newcol;
    factors
        .ft_update(pos, &mut ws)
        .expect("a strong-pivot replacement column must be accepted");
    assert_eq!(factors.updates_since_refactor(), 1);
    let v = rhs(8, 0xFEED);
    let mut via_update = v.clone();
    factors.ftran(&mut via_update, &mut ws);
    let mut via_fresh = v.clone();
    factors_for(&cols).ftran(&mut via_fresh, &mut ws);
    assert_close(
        &via_update,
        &via_fresh,
        "accepted FT update vs refactorisation",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ftran_matches_the_dense_oracle_and_inverts_b(
        m in 2usize..14,
        extra in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let cols = random_invertible(m, extra, seed);
        let factors = factors_for(&cols);
        let mut ws = LuWorkspace::new(m);
        let v = rhs(m, seed ^ 0x5EED);
        let mut x = v.clone();
        factors.ftran(&mut x, &mut ws);
        assert_close(&apply(&cols, &x), &v, "B·ftran(v) must reproduce v");
        assert_close(&x, &dense_solve(&cols, &v), "ftran vs dense oracle");
    }

    #[test]
    fn btran_solves_the_transposed_system(
        m in 2usize..14,
        extra in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let cols = random_invertible(m, extra, seed);
        let factors = factors_for(&cols);
        let mut ws = LuWorkspace::new(m);
        let v = rhs(m, seed ^ 0xB7);
        let mut y = v.clone();
        factors.btran(&mut y, &mut ws);
        assert_close(&apply_t(&cols, &y), &v, "Bᵀ·btran(v) must reproduce v");
    }

    #[test]
    fn ftran_btran_round_trip_through_both_triangles(
        m in 2usize..14,
        extra in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        // ftran(v) then multiplying by B, and btran(v) then multiplying by
        // Bᵀ, both walk L and U once in each direction — together they
        // exercise every stored non-zero of the factors in both orders.
        let cols = random_invertible(m, extra, seed);
        let factors = factors_for(&cols);
        let mut ws = LuWorkspace::new(m);
        let v = rhs(m, seed ^ 0x70);
        let mut x = v.clone();
        factors.ftran(&mut x, &mut ws);
        let mut y = apply(&cols, &x);
        factors.btran(&mut y, &mut ws);
        // y = B⁻ᵀ B x̂ where x̂ solves B x̂ = v: multiplying back must again
        // close the loop.
        assert_close(&apply_t(&cols, &y), &apply(&cols, &x), "round trip");
    }

    #[test]
    fn forrest_tomlin_update_is_equivalent_to_refactorisation(
        m in 3usize..12,
        extra in 0usize..4,
        seed in 0u64..1_000_000,
        updates in 1usize..4,
    ) {
        let mut cols = random_invertible(m, extra, seed);
        let mut factors = factors_for(&cols);
        let mut ws = LuWorkspace::new(m);
        for step in 0..updates {
            // Replace one basis column with a fresh strong-pivot column (on
            // the leaving column's own pivot row, so the updated matrix
            // stays invertible).
            let pos = (mix(seed, step, 0xC0) as usize) % m;
            let pivot_row = cols[pos]
                .iter()
                .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
                .unwrap()
                .0;
            let mut newcol = vec![(pivot_row, 1.0 + unit(seed, step, 0xC1))];
            let r2 = (mix(seed, step, 0xC2) as usize) % m;
            if r2 != pivot_row {
                newcol.push((r2, (unit(seed, step, 0xC3) - 0.5) * 0.4));
            }
            // FT protocol: ftran the entering column, then splice its spike
            // into the factors at the leaving position.
            let mut dirn = vec![0.0; m];
            for &(r, v) in &newcol {
                dirn[r] = v;
            }
            factors.ftran(&mut dirn, &mut ws);
            cols[pos] = newcol;
            if factors.ft_update(pos, &mut ws).is_err() {
                // A rejected update is a legal outcome (the caller
                // refactorises); it must not be silently wrong, so stop
                // comparing this chain here.
                return Ok(());
            }
            // The updated factors must agree with a from-scratch
            // factorisation of the updated matrix on a random system.
            let v = rhs(m, seed ^ (step as u64) << 8);
            let mut via_update = v.clone();
            factors.ftran(&mut via_update, &mut ws);
            let fresh = factors_for(&cols);
            let mut via_fresh = v.clone();
            fresh.ftran(&mut via_fresh, &mut ws);
            assert_close(&via_update, &via_fresh, "FT update vs refactorisation (ftran)");
            let mut bt_update = v.clone();
            factors.btran(&mut bt_update, &mut ws);
            let mut bt_fresh = v.clone();
            fresh.btran(&mut bt_fresh, &mut ws);
            assert_close(&bt_update, &bt_fresh, "FT update vs refactorisation (btran)");
        }
    }

    #[test]
    fn compact_factors_solve_and_update_bit_identically(
        m in 3usize..12,
        extra in 0usize..4,
        seed in 0u64..1_000_000,
        updates in 1usize..5,
    ) {
        // `compact` repacks the factor arenas; every later FTRAN, BTRAN
        // and update must sum in the same order, so results match bit for
        // bit, not just within a tolerance.
        let mut cols = random_invertible(m, extra, seed);
        let mut factors = factors_for(&cols);
        let mut packed = factors.clone();
        packed.compact();
        let mut ws = LuWorkspace::new(m);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for step in 0..updates {
            let pos = (mix(seed, step, 0xD0) as usize) % m;
            let pivot_row = cols[pos]
                .iter()
                .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
                .unwrap()
                .0;
            let mut newcol = vec![(pivot_row, 1.0 + unit(seed, step, 0xD1))];
            for e in 0..extra {
                let r = (mix(seed, step, 0x200 + e) as usize) % m;
                if newcol.iter().all(|&(rr, _)| rr != r) {
                    newcol.push((r, (unit(seed, step, 0x300 + e) - 0.5) * 0.4));
                }
            }
            let mut dirn = vec![0.0; m];
            for &(r, v) in &newcol {
                dirn[r] = v;
            }
            let mut dirn_packed = dirn.clone();
            factors.ftran(&mut dirn, &mut ws);
            let updated = factors.ft_update(pos, &mut ws);
            packed.ftran(&mut dirn_packed, &mut ws);
            let updated_packed = packed.ft_update(pos, &mut ws);
            prop_assert_eq!(bits(&dirn), bits(&dirn_packed));
            prop_assert_eq!(updated.is_ok(), updated_packed.is_ok());
            if updated.is_err() {
                return Ok(());
            }
            cols[pos] = newcol;
            let v = rhs(m, seed ^ (step as u64) << 12);
            let (mut x, mut x_packed) = (v.clone(), v.clone());
            factors.ftran(&mut x, &mut ws);
            packed.ftran(&mut x_packed, &mut ws);
            prop_assert_eq!(bits(&x), bits(&x_packed));
            let (mut y, mut y_packed) = (v.clone(), v);
            factors.btran(&mut y, &mut ws);
            packed.btran(&mut y_packed, &mut ws);
            prop_assert_eq!(bits(&y), bits(&y_packed));
            // Repack mid-chain too: a donor is compacted after any number
            // of updates.
            packed.compact();
        }
    }

    #[test]
    fn structurally_singular_bases_are_rejected(
        m in 2usize..10,
        extra in 0usize..4,
        seed in 0u64..1_000_000,
        kind in 0usize..3,
    ) {
        let mut cols = random_invertible(m, extra, seed);
        let a = (mix(seed, 0, 0xE0) as usize) % m;
        let b = (mix(seed, 1, 0xE1) as usize) % m;
        prop_assume!(a != b);
        match kind {
            0 => cols[a].clear(),              // zero column
            1 => cols[a] = cols[b].clone(),    // duplicated column
            _ => {
                // cols[a] := cols[a] + cols[b] would stay invertible; make a
                // dependent triple instead: cols[a] = cols[b] + cols[c].
                let c = (a + 1) % m;
                prop_assume!(c != b);
                let mut sum = vec![0.0; m];
                for &(r, v) in cols[b].iter().chain(cols[c].iter()) {
                    sum[r] += v;
                }
                cols[a] = sum
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0.0)
                    .map(|(r, &v)| (r, v))
                    .collect();
            }
        }
        let csc = CsrMatrix::from_rows(m, &cols);
        let basis: Vec<usize> = (0..m).collect();
        let mut f = LuFactors::new(m);
        prop_assert!(
            f.factorize(&csc, &basis, &mut LuWorkspace::new(m)).is_err(),
            "singular basis must be rejected"
        );
    }
}
