//! Golden bit-identity of the filter update's dense kernels.
//!
//! The `*_baseline` functions are the seed `Matrix::matmul`,
//! `Cholesky::factor`, `Cholesky::solve_matrix` and substitutions. The
//! live kernels keep blocks of output columns in registers, build the
//! factor column by column and solve right-hand-side columns in blocks;
//! every entry must still come out bit for bit, and every error must be
//! the same. The inputs cover every size up to 40 (so every block
//! remainder occurs) and 129–131, empty shapes, exact zeros of both signs
//! (the product's zero skip), NaN and infinities, indefinite matrices,
//! pivots below `PIVOT_EPS`, and right-hand sides without columns.
//!
//! NaN results are compared as NaN: Rust leaves a NaN's sign and payload
//! unspecified, so only their positions are part of the contract.

use eudoxus_bench::baseline::{
    backward_substitute_baseline, cholesky_factor_baseline, cholesky_solve_matrix_baseline,
    forward_substitute_baseline, matmul_baseline,
};
use eudoxus_math::solve::PIVOT_EPS;
use eudoxus_math::{Cholesky, MathError, Matrix, Vector};
use eudoxus_sim::SimRng;

/// Entry bits, with every NaN mapped to one value.
fn bits(values: &[f64]) -> Vec<u64> {
    values
        .iter()
        .map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() })
        .collect()
}

fn assert_same(live: Result<Matrix, MathError>, seed: Result<Matrix, MathError>, what: &str) {
    match (live, seed) {
        (Ok(live), Ok(seed)) => {
            assert_eq!(live.shape(), seed.shape(), "{what}: shape");
            assert_eq!(
                bits(live.as_slice()),
                bits(seed.as_slice()),
                "{what}: entries"
            );
        }
        (live, seed) => assert_eq!(live.err(), seed.err(), "{what}: result"),
    }
}

/// What fills a test matrix besides plain values.
#[derive(Debug, Clone, Copy)]
enum Fill {
    /// Values in ±2 only.
    Plain,
    /// A third exact zeros, half of them negative.
    Zeros,
    /// Zeros plus a few NaN, +∞ and −∞ entries.
    NonFinite,
}

fn matrix(rng: &mut SimRng, rows: usize, cols: usize, fill: Fill) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        let zero_share = match fill {
            Fill::Plain => 0.0,
            _ => 0.33,
        };
        if rng.chance(zero_share) {
            return if rng.chance(0.5) { 0.0 } else { -0.0 };
        }
        if matches!(fill, Fill::NonFinite) && rng.chance(0.04) {
            return [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.uniform_usize(0, 3)];
        }
        rng.uniform(-2.0, 2.0)
    })
}

/// A symmetric positive definite `n × n` matrix `B·Bᵀ + δ·I`, where `B`
/// has exact zeros of both signs when `zeros` is set, with noise in the
/// strict upper triangle (only the lower one is read).
fn spd(rng: &mut SimRng, n: usize, zeros: bool) -> Matrix {
    let fill = if zeros { Fill::Zeros } else { Fill::Plain };
    let b = matrix(rng, n, n, fill);
    let mut a = b.outer_gram();
    a.add_diag(rng.uniform(1e-3, 1.0));
    for i in 0..n {
        for j in i + 1..n {
            a[(i, j)] += rng.uniform(-1.0, 1.0);
        }
    }
    a
}

fn sizes() -> impl Iterator<Item = usize> {
    (0..=40).chain(129..=131)
}

#[test]
fn matmul_matches_seed_bitwise() {
    let mut rng = SimRng::seed_from(0xD0_0001);
    let mut cases = 0;
    for n in sizes() {
        // Square, then rectangular with `n` output columns (every column
        // remainder) and with `n` inner products, then empty operands.
        let shapes = [
            (n, n, n),
            ((n * 7) % 13, (n * 5) % 11 + 1, n),
            (3, n, (n * 3) % 19),
            (0, n, 5),
            (n, 0, 7),
        ];
        for (m, k, c) in shapes {
            for fill in [Fill::Plain, Fill::Zeros, Fill::NonFinite] {
                let a = matrix(&mut rng, m, k, fill);
                let b = matrix(&mut rng, k, c, fill);
                let what = format!("{m}x{k} * {k}x{c}, {fill:?}");
                assert_same(a.matmul(&b), matmul_baseline(&a, &b), &what);
                cases += 1;
            }
        }
    }
    // Mismatched inner dimensions fail alike.
    let (a, b) = (Matrix::zeros(2, 3), Matrix::zeros(4, 2));
    assert_same(a.matmul(&b), matmul_baseline(&a, &b), "2x3 * 4x2");
    assert!(cases > 600);
}

#[test]
fn cholesky_factor_matches_seed_bitwise() {
    let mut rng = SimRng::seed_from(0xD0_0002);
    for n in sizes() {
        for zeros in [false, true] {
            let a = spd(&mut rng, n, zeros);
            let live = Cholesky::factor(&a).map(Cholesky::into_l);
            assert!(live.is_ok(), "n {n}: SPD input must factor");
            assert_same(live, cholesky_factor_baseline(&a), &format!("SPD n {n}"));
        }
        if n == 0 {
            continue;
        }
        // Indefinite: a negated diagonal entry in the middle.
        let mut a = spd(&mut rng, n, false);
        a[(n / 2, n / 2)] = -a[(n / 2, n / 2)];
        let live = Cholesky::factor(&a).map(Cholesky::into_l);
        assert_eq!(live.as_ref().err(), Some(&MathError::NotPositiveDefinite));
        assert_same(
            live,
            cholesky_factor_baseline(&a),
            &format!("indefinite n {n}"),
        );
        // Non-finite entries in the lower triangle, and zero and
        // negative-zero pivots.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0] {
            let mut a = spd(&mut rng, n, true);
            let i = rng.uniform_usize(0, n);
            let j = rng.uniform_usize(0, i + 1);
            a[(i, j)] = bad;
            let live = Cholesky::factor(&a).map(Cholesky::into_l);
            assert_same(
                live,
                cholesky_factor_baseline(&a),
                &format!("{bad} at ({i},{j}), n {n}"),
            );
        }
    }
    let a = Matrix::zeros(3, 4);
    assert_same(
        Cholesky::factor(&a).map(Cholesky::into_l),
        cholesky_factor_baseline(&a),
        "rectangular",
    );
}

#[test]
fn cholesky_solves_match_seed_bitwise() {
    let mut rng = SimRng::seed_from(0xD0_0003);
    for n in sizes() {
        let a = spd(&mut rng, n, n % 2 == 1);
        let chol = Cholesky::factor(&a).expect("SPD");
        let l = cholesky_factor_baseline(&a).expect("SPD");
        // Column counts: none, one, and around the column-block edges.
        let widths = [0, 1, 3, n, n + 5, 16, 17, 33];
        for (wi, &cols) in widths.iter().enumerate() {
            let fill = [Fill::Plain, Fill::Zeros, Fill::NonFinite][wi % 3];
            let b = matrix(&mut rng, n, cols, fill);
            let what = format!("n {n}, {cols} columns, {fill:?}");
            assert_same(
                chol.solve_matrix(&b),
                cholesky_solve_matrix_baseline(&l, &b),
                &what,
            );
        }
        let v = Vector::from_vec(matrix(&mut rng, 1, n, Fill::Zeros).into_vec());
        let want = forward_substitute_baseline(&l, &v)
            .and_then(|y| backward_substitute_baseline(&l.transpose(), &y))
            .expect("solvable");
        let got = chol.solve(&v).expect("solvable");
        assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "solve, n {n}");
        let eye = Matrix::identity(n);
        assert_same(
            chol.inverse(),
            cholesky_solve_matrix_baseline(&l, &eye),
            &format!("inverse {n}"),
        );
    }
    // A wrong number of right-hand-side rows fails alike.
    let a = spd(&mut rng, 4, false);
    let chol = Cholesky::factor(&a).expect("SPD");
    let l = cholesky_factor_baseline(&a).expect("SPD");
    let b = Matrix::zeros(5, 2);
    assert_same(
        chol.solve_matrix(&b),
        cholesky_solve_matrix_baseline(&l, &b),
        "5 rows for 4",
    );
}

#[test]
fn pivots_below_the_threshold_fail_alike() {
    // A factor whose pivot `sqrt(1e-30) = 1e-15` passes factorization
    // but not substitution, placed first, in the middle and last.
    let mut rng = SimRng::seed_from(0xD0_0004);
    for n in [1usize, 5, 17, 40] {
        for at in [0, n / 2, n - 1] {
            let mut a = Matrix::identity(n);
            a[(at, at)] = 1e-30;
            let chol = Cholesky::factor(&a).expect("positive pivots factor");
            let l = cholesky_factor_baseline(&a).expect("positive pivots factor");
            assert_eq!(bits(chol.l().as_slice()), bits(l.as_slice()));
            assert!(l[(at, at)] < PIVOT_EPS);
            for cols in [0, 1, 16, 21] {
                let b = matrix(&mut rng, n, cols, Fill::Plain);
                let live = chol.solve_matrix(&b);
                if cols > 0 {
                    assert_eq!(live.as_ref().err(), Some(&MathError::Singular));
                }
                let what = format!("pivot {at} of {n}, {cols} columns");
                assert_same(live, cholesky_solve_matrix_baseline(&l, &b), &what);
            }
        }
    }
}
