//! Scalar root finding: Brent's method.
//!
//! Used to solve the paper's Eq. 10 (semi-active conflicting-finalization
//! epoch), which has no closed form.

use core::fmt;

/// Root-finding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootError {
    /// `f(lo)` and `f(hi)` have the same sign — no bracketed root.
    NotBracketed,
    /// The iteration limit was reached before convergence.
    NoConvergence,
}

impl fmt::Display for RootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RootError::NotBracketed => write!(f, "root is not bracketed by the interval"),
            RootError::NoConvergence => write!(f, "root finding did not converge"),
        }
    }
}

impl std::error::Error for RootError {}

/// Finds a root of `f` in `[lo, hi]` by Brent's method (inverse quadratic
/// interpolation with bisection fallback), to absolute tolerance `tol`.
///
/// # Errors
///
/// Returns [`RootError::NotBracketed`] if `f(lo)·f(hi) > 0` and
/// [`RootError::NoConvergence`] after 200 iterations.
pub fn brent<F: Fn(f64) -> f64>(f: F, lo: f64, hi: f64, tol: f64) -> Result<f64, RootError> {
    let mut a = lo;
    let mut b = hi;
    let mut fa = f(a);
    let mut fb = f(b);
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(RootError::NotBracketed);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut e = d;

    for _ in 0..200 {
        if fb.abs() > fc.abs() {
            a = b;
            b = c;
            c = a;
            fa = fb;
            fb = fc;
            fc = fa;
        }
        let tol1 = 2.0 * f64::EPSILON * b.abs() + 0.5 * tol;
        let xm = 0.5 * (c - b);
        if xm.abs() <= tol1 || fb == 0.0 {
            return Ok(b);
        }
        if e.abs() >= tol1 && fa.abs() > fb.abs() {
            // attempt inverse quadratic interpolation
            let s = fb / fa;
            let (mut p, mut q);
            if a == c {
                p = 2.0 * xm * s;
                q = 1.0 - s;
            } else {
                let qq = fa / fc;
                let r = fb / fc;
                p = s * (2.0 * xm * qq * (qq - r) - (b - a) * (r - 1.0));
                q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
            }
            if p > 0.0 {
                q = -q;
            }
            p = p.abs();
            let min1 = 3.0 * xm * q - (tol1 * q).abs();
            let min2 = (e * q).abs();
            if 2.0 * p < min1.min(min2) {
                e = d;
                d = p / q;
            } else {
                d = xm;
                e = d;
            }
        } else {
            d = xm;
            e = d;
        }
        a = b;
        fa = fb;
        if d.abs() > tol1 {
            b += d;
        } else {
            b += tol1 * xm.signum();
        }
        fb = f(b);
        if fb.signum() == fc.signum() {
            c = a;
            fc = fa;
            d = b - a;
            e = d;
        }
    }
    Err(RootError::NoConvergence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bisection, the oracle [`brent`] is checked against: a root of `f`
    /// in `[lo, hi]` to absolute tolerance `tol` on the abscissa.
    fn bisect<F: Fn(f64) -> f64>(
        f: F,
        mut lo: f64,
        mut hi: f64,
        tol: f64,
    ) -> Result<f64, RootError> {
        let flo = f(lo);
        let fhi = f(hi);
        if flo == 0.0 {
            return Ok(lo);
        }
        if fhi == 0.0 {
            return Ok(hi);
        }
        if flo.signum() == fhi.signum() {
            return Err(RootError::NotBracketed);
        }
        let mut flo = flo;
        for _ in 0..20_000 {
            let mid = 0.5 * (lo + hi);
            if hi - lo < tol {
                return Ok(mid);
            }
            let fmid = f(mid);
            if fmid == 0.0 {
                return Ok(mid);
            }
            if fmid.signum() == flo.signum() {
                lo = mid;
                flo = fmid;
            } else {
                hi = mid;
            }
        }
        Err(RootError::NoConvergence)
    }

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert!((r - core::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn brent_finds_sqrt2() {
        let r = brent(|x| x * x - 2.0, 0.0, 2.0, 1e-14).unwrap();
        assert!((r - core::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn brent_handles_transcendental() {
        // x = cos(x) has root ~0.7390851332151607
        let r = brent(|x| x - x.cos(), 0.0, 1.0, 1e-14).unwrap();
        assert!((r - 0.739_085_133_215_160_7).abs() < 1e-12);
    }

    #[test]
    fn unbracketed_is_an_error() {
        assert_eq!(
            bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-9),
            Err(RootError::NotBracketed)
        );
        assert_eq!(
            brent(|x| x * x + 1.0, -1.0, 1.0, 1e-9),
            Err(RootError::NotBracketed)
        );
    }

    #[test]
    fn endpoint_roots_are_returned() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-9), Ok(0.0));
        assert_eq!(brent(|x| x - 1.0, 0.0, 1.0, 1e-9), Ok(1.0));
    }

    proptest! {
        #[test]
        fn prop_brent_matches_bisect(root in -10.0f64..10.0, scale in 0.1f64..5.0) {
            // f(x) = scale * (x - root) on a bracketing interval
            let f = |x: f64| scale * (x - root);
            let rb = bisect(f, root - 3.0, root + 7.0, 1e-10).unwrap();
            let rn = brent(f, root - 3.0, root + 7.0, 1e-12).unwrap();
            prop_assert!((rb - root).abs() < 1e-8);
            prop_assert!((rn - root).abs() < 1e-8);
        }
    }
}
