//! Finite-field arithmetic for the chipkill Reed-Solomon code.
//!
//! Two fields are provided:
//!
//! * [`Gf16`] — GF(2^4) over `x^4 + x + 1`; a symbol is one nibble, the
//!   data one x4 DRAM chip contributes per transfer beat.
//! * [`Gf256`] — GF(2^8) over `x^8 + x^4 + x^3 + x^2 + 1`; the code-symbol
//!   field actually used by the chipkill RS code. An RS code over GF(2^4)
//!   can span at most 15 symbols, so a 36-chip (two-DIMM lock-stepped)
//!   code word is impossible in GF(16); real x4 chipkill widens each code
//!   symbol to 8 bits by pairing one chip's nibbles from two consecutive
//!   beats, and codes over GF(256) (length 36 <= 255).

/// Field order (16 elements, 15 nonzero).
pub const FIELD_SIZE: usize = 16;
/// Multiplicative group order.
pub const GROUP_ORDER: usize = 15;

/// A GF(2^4) element. Always `< 16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Gf16(pub u8);

/// Log/antilog tables, built at first use.
struct Tables {
    exp: [u8; 32],
    log: [u8; 16],
}

fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 32];
        let mut log = [0u8; 16];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(GROUP_ORDER) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x10 != 0 {
                x ^= 0x13; // reduce by x^4 + x + 1
            }
        }
        // Duplicate so exp[i + 15] == exp[i]; avoids a mod in mul.
        for i in GROUP_ORDER..32 {
            exp[i] = exp[i - GROUP_ORDER];
        }
        Tables { exp, log }
    })
}

impl Gf16 {
    /// The additive identity.
    pub const ZERO: Gf16 = Gf16(0);
    /// The multiplicative identity.
    pub const ONE: Gf16 = Gf16(1);

    /// Construct, asserting the value is a valid nibble.
    #[inline]
    pub fn new(v: u8) -> Self {
        assert!(v < 16, "GF(16) element out of range: {v}");
        Gf16(v)
    }

    /// `α^k` for any exponent (negative handled via the group order); the
    /// primitive element `α` is the polynomial `x`.
    pub fn alpha_pow(k: i32) -> Gf16 {
        let k = k.rem_euclid(GROUP_ORDER as i32) as usize;
        Gf16(tables().exp[k])
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    #[inline]
    pub fn inv(self) -> Gf16 {
        assert!(self.0 != 0, "inverse of zero in GF(16)");
        let t = tables();
        Gf16(t.exp[GROUP_ORDER - t.log[self.0 as usize] as usize])
    }

    /// Discrete logarithm base α (None for zero).
    pub fn log(self) -> Option<u8> {
        if self.0 == 0 {
            None
        } else {
            Some(tables().log[self.0 as usize])
        }
    }
}

/// Addition = XOR in characteristic 2.
impl std::ops::Add for Gf16 {
    type Output = Gf16;
    // In characteristic 2, addition IS xor — not a typo'd `+`.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn add(self, rhs: Gf16) -> Gf16 {
        Gf16(self.0 ^ rhs.0)
    }
}

/// Multiplication via log tables.
impl std::ops::Mul for Gf16 {
    type Output = Gf16;
    #[inline]
    fn mul(self, rhs: Gf16) -> Gf16 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf16::ZERO;
        }
        let t = tables();
        Gf16(t.exp[t.log[self.0 as usize] as usize + t.log[rhs.0 as usize] as usize])
    }
}

/// Division `self / rhs` (panics on a zero divisor).
impl std::ops::Div for Gf16 {
    type Output = Gf16;
    // Field division is defined as multiplication by the inverse.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Gf16) -> Gf16 {
        self * rhs.inv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_nonzero() -> impl Iterator<Item = Gf16> {
        (1u8..16).map(Gf16)
    }

    #[test]
    fn addition_is_xor_and_self_inverse() {
        for a in 0..16u8 {
            for b in 0..16u8 {
                let s = Gf16(a) + Gf16(b);
                assert_eq!(s.0, a ^ b);
                assert_eq!(s + Gf16(b), Gf16(a));
            }
        }
    }

    #[test]
    fn multiplication_matches_polynomial_model() {
        // Reference carry-less multiply mod x^4+x+1.
        fn slow_mul(a: u8, b: u8) -> u8 {
            let mut acc: u16 = 0;
            for i in 0..4 {
                if b >> i & 1 == 1 {
                    acc ^= (a as u16) << i;
                }
            }
            for i in (4..8).rev() {
                if acc >> i & 1 == 1 {
                    acc ^= 0x13 << (i - 4);
                }
            }
            acc as u8
        }
        for a in 0..16u8 {
            for b in 0..16u8 {
                assert_eq!((Gf16(a) * Gf16(b)).0, slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn every_nonzero_has_inverse() {
        for a in all_nonzero() {
            assert_eq!(a * a.inv(), Gf16::ONE);
        }
    }

    #[test]
    fn alpha_generates_the_group() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..GROUP_ORDER as i32 {
            seen.insert(Gf16::alpha_pow(k));
        }
        assert_eq!(seen.len(), GROUP_ORDER);
        assert_eq!(Gf16::alpha_pow(GROUP_ORDER as i32), Gf16::ONE);
        assert_eq!(Gf16::alpha_pow(-1) * Gf16::alpha_pow(1), Gf16::ONE);
    }

    #[test]
    fn alpha_pow_and_log_agree() {
        for a in all_nonzero() {
            let l = a.log().expect("nonzero") as i32;
            assert_eq!(Gf16::alpha_pow(l), a);
        }
        assert_eq!(Gf16::ZERO.log(), None);
    }

    #[test]
    fn distributive_law() {
        for a in 0..16u8 {
            for b in 0..16u8 {
                for c in 0..16u8 {
                    let (a, b, c) = (Gf16(a), Gf16(b), Gf16(c));
                    assert_eq!(a * (b + c), a * b + a * c);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_out_of_range() {
        let _ = Gf16::new(16);
    }
}

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
    pub fn inv(self) -> Gf256 {
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
    // In characteristic 2, addition IS xor — not a typo'd `+`.
    #[allow(clippy::suspicious_arithmetic_impl)]
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
    // Field division is defined as multiplication by the inverse.
    #[allow(clippy::suspicious_arithmetic_impl)]
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
        let mut seen = std::collections::HashSet::new();
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
