//! GF(2^8) arithmetic for the chipkill Reed-Solomon codes: log/antilog
//! tables over the primitive polynomial `x^8 + x^4 + x^3 + x^2 + 1`.

/// A GF(2^8) element, over the primitive polynomial `x^8+x^4+x^3+x^2+1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Gf256(pub u8);

/// Multiplicative group order of GF(2^8).
pub const GROUP_ORDER_256: usize = 255;

struct Tables256 {
    exp: [u8; 512],
    log: [u8; 256],
}

fn tables256() -> &'static Tables256 {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables256> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(GROUP_ORDER_256) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= 0x11D; // reduce by x^8 + x^4 + x^3 + x^2 + 1
            }
        }
        for i in GROUP_ORDER_256..512 {
            exp[i] = exp[i - GROUP_ORDER_256];
        }
        Tables256 { exp, log }
    })
}

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);

    /// `α^k` for any exponent.
    pub fn alpha_pow(k: i32) -> Gf256 {
        let k = k.rem_euclid(GROUP_ORDER_256 as i32) as usize;
        Gf256(tables256().exp[k])
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    #[inline]
    fn inv(self) -> Gf256 {
        assert!(self.0 != 0, "inverse of zero in GF(256)");
        let t = tables256();
        Gf256(t.exp[GROUP_ORDER_256 - t.log[self.0 as usize] as usize])
    }

    /// Discrete logarithm base α (None for zero).
    pub fn log(self) -> Option<u8> {
        if self.0 == 0 {
            None
        } else {
            Some(tables256().log[self.0 as usize])
        }
    }
}

/// Addition = XOR.
impl std::ops::Add for Gf256 {
    type Output = Gf256;
    #[expect(
        clippy::suspicious_arithmetic_impl,
        reason = "in characteristic 2, addition is xor, not a typo'd `+`"
    )]
    #[inline]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

/// Multiplication via log tables.
impl std::ops::Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        let t = tables256();
        Gf256(t.exp[t.log[self.0 as usize] as usize + t.log[rhs.0 as usize] as usize])
    }
}

/// Division `self / rhs` (panics on a zero divisor).
impl std::ops::Div for Gf256 {
    type Output = Gf256;
    #[expect(
        clippy::suspicious_arithmetic_impl,
        reason = "field division is defined as multiplication by the inverse"
    )]
    #[inline]
    fn div(self, rhs: Gf256) -> Gf256 {
        self * rhs.inv()
    }
}

#[cfg(test)]
mod tests256 {
    use super::*;

    #[test]
    fn every_nonzero_has_inverse_256() {
        for a in 1..=255u8 {
            assert_eq!(Gf256(a) * Gf256(a).inv(), Gf256::ONE);
        }
    }

    #[test]
    fn alpha_generates_the_group_256() {
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..GROUP_ORDER_256 as i32 {
            seen.insert(Gf256::alpha_pow(k));
        }
        assert_eq!(seen.len(), GROUP_ORDER_256);
        assert_eq!(Gf256::alpha_pow(255), Gf256::ONE);
    }

    #[test]
    fn log_and_alpha_pow_agree_256() {
        for a in 1..=255u8 {
            let l = Gf256(a).log().expect("nonzero") as i32;
            assert_eq!(Gf256::alpha_pow(l), Gf256(a));
        }
        assert_eq!(Gf256::ZERO.log(), None);
    }

    #[test]
    fn associativity_samples_256() {
        for a in [1u8, 7, 100, 200, 255] {
            for b in [2u8, 13, 90, 254] {
                for c in [3u8, 55, 128] {
                    let (a, b, c) = (Gf256(a), Gf256(b), Gf256(c));
                    assert_eq!(a * b * c, a * (b * c));
                    assert_eq!(a * (b + c), a * b + a * c);
                }
            }
        }
    }
}
