//! Level-1 BLAS vector kernels used by the CG solver and the ABFT layers.

/// Dot product `x . y`.
///
/// # Panics
/// Panics if the lengths differ.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = x + beta * y` (the "xpby" update used on the CG search direction).
pub fn xpby(x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
}

/// Euclidean norm.
pub fn nrm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Copy `src` into `dst`.
pub fn copy(src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "copy length mismatch");
    dst.copy_from_slice(src);
}

/// Weighted sum `sum_i w_i x_i` (weighted checksum reduction).
pub fn wsum(w: &[f64], x: &[f64]) -> f64 {
    dot(w, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_orthogonal() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn axpy_updates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn xpby_updates() {
        let mut p = vec![1.0, 2.0];
        xpby(&[10.0, 10.0], 0.5, &mut p);
        assert_eq!(p, vec![10.5, 11.0]);
    }

    #[test]
    fn nrm2_pythagorean() {
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn checksum_reductions() {
        assert_eq!(wsum(&[1.0, 2.0, 3.0], &[1.0, 1.0, 1.0]), 6.0);
    }

    #[test]
    fn copy_copies() {
        let x = vec![3.0, 6.0];
        let mut d = vec![0.0; 2];
        copy(&x, &mut d);
        assert_eq!(d, x);
    }
}
