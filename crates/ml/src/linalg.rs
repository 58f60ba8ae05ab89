//! Minimal dense linear algebra: solving `A x = b` for the small symmetric
//! systems LDA needs (d ≤ 20 here).

/// Solves `A x = b` by Gaussian elimination with partial pivoting.
/// `a` is row-major `n × n`. Returns `None` for (numerically) singular `A`.
// Gaussian elimination touches two rows of `m` at once; index form avoids
// split-borrow gymnastics.
#[allow(clippy::needless_range_loop)]
pub fn solve(a: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
    let n = b.len();
    assert_eq!(a.len(), n);
    assert!(a.iter().all(|row| row.len() == n));

    let mut m: Vec<Vec<f64>> = a.to_vec();
    let mut rhs = b.to_vec();

    for col in 0..n {
        // Partial pivot.
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                m[i][col]
                    .abs()
                    .partial_cmp(&m[j][col].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty range");
        if m[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot_row);
        rhs.swap(col, pivot_row);

        for row in col + 1..n {
            let factor = m[row][col] / m[col][col];
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                m[row][k] -= factor * m[col][k];
            }
            rhs[row] -= factor * rhs[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = rhs[row];
        for col in row + 1..n {
            sum -= m[row][col] * x[col];
        }
        x[row] = sum / m[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_system() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert_eq!(solve(&a, &[3.0, 4.0]).unwrap(), vec![3.0, 4.0]);
    }

    #[test]
    fn known_system() {
        // 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3.
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn needs_pivoting() {
        // Leading zero forces a row swap.
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve(&a, &[2.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 2.0]);
    }

    #[test]
    fn singular_detected() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn residual_is_small_for_random_spd_system() {
        // A = M Mᵀ + I is symmetric positive definite.
        let n = 12;
        let mut state = 42u64;
        let mut rnd = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 500.0 - 1.0
        };
        let m: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| rnd()).collect()).collect();
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                a[i][j] += m[i].iter().zip(&m[j]).map(|(x, y)| x * y).sum::<f64>();
            }
            a[i][i] += 1.0;
        }
        let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let x = solve(&a, &b).unwrap();
        for i in 0..n {
            let ax: f64 = (0..n).map(|j| a[i][j] * x[j]).sum();
            assert!((ax - b[i]).abs() < 1e-8, "row {i}: {ax} vs {}", b[i]);
        }
    }
}
