//! (72,64) Hsiao SECDED code.
//!
//! Hsiao's construction (IBM JRD 1970) picks the 64 data columns of the
//! parity-check matrix from distinct odd-weight 8-bit vectors (all 56 of
//! weight 3 plus 8 of weight 5) and uses unit vectors for the 8 check bits.
//! Odd-weight columns guarantee that any double-bit error produces an
//! even-weight syndrome, which can never alias a (odd-weight) column —
//! hence single-error correction plus guaranteed double-error detection.

use crate::outcome::EccOutcome;

/// Number of data bits per code word.
pub const DATA_BITS: usize = 64;
/// Number of check bits per code word.
pub const CHECK_BITS: usize = 8;
/// Total code word width.
pub const CODE_BITS: usize = DATA_BITS + CHECK_BITS;

/// A (72,64) code word: 64 data bits + 8 check bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecdedWord {
    /// The data bits.
    pub data: u64,
    /// The check bits.
    pub check: u8,
}

/// Column syndromes for the 64 data-bit positions.
struct Columns {
    cols: [u8; DATA_BITS],
    /// `lookup[syndrome]` = data-bit index + 1, or 0 if no column matches.
    lookup: [u8; 256],
}

fn columns() -> &'static Columns {
    use std::sync::OnceLock;
    static COLS: OnceLock<Columns> = OnceLock::new();
    COLS.get_or_init(|| {
        let mut cols = [0u8; DATA_BITS];
        let mut n = 0;
        // All weight-3 columns first (56 of them) ...
        for v in 1..=255u16 {
            if (v as u8).count_ones() == 3 {
                cols[n] = v as u8;
                n += 1;
            }
        }
        // ... then weight-5 columns until we have 64.
        for v in 1..=255u16 {
            if n == DATA_BITS {
                break;
            }
            if (v as u8).count_ones() == 5 {
                cols[n] = v as u8;
                n += 1;
            }
        }
        assert_eq!(n, DATA_BITS);
        let mut lookup = [0u8; 256];
        for (i, &c) in cols.iter().enumerate() {
            debug_assert_eq!(lookup[c as usize], 0, "duplicate column");
            lookup[c as usize] = (i + 1) as u8;
        }
        Columns { cols, lookup }
    })
}

/// Encode 64 data bits into a (72,64) code word.
pub fn encode(data: u64) -> SecdedWord {
    let cols = &columns().cols;
    let mut check = 0u8;
    let mut d = data;
    let mut i = 0;
    while d != 0 {
        let tz = d.trailing_zeros() as usize;
        i += tz;
        check ^= cols[i];
        d >>= tz;
        d >>= 1; // two shifts: tz may be 63 and tz+1 would overflow the shift
        i += 1;
    }
    SecdedWord { data, check }
}

/// Decode a possibly-corrupted word. Returns the (possibly corrected) data
/// together with the ECC outcome classification.
pub fn decode(word: SecdedWord) -> (u64, EccOutcome) {
    let syndrome = encode(word.data).check ^ word.check;
    if syndrome == 0 {
        return (word.data, EccOutcome::Clean);
    }
    // Single check-bit error: syndrome is a unit vector.
    if syndrome.count_ones() == 1 {
        return (word.data, EccOutcome::Corrected { bits_flipped: 1 });
    }
    let tab = columns();
    let hit = tab.lookup[syndrome as usize];
    if hit != 0 {
        let bit = (hit - 1) as u64;
        return (word.data ^ (1u64 << bit), EccOutcome::Corrected { bits_flipped: 1 });
    }
    (word.data, EccOutcome::DetectedUncorrectable)
}

/// Flip the given bit positions (`0..72`: 0-63 data, 64-71 check) of a word.
pub fn flip_bits(word: SecdedWord, bits: &[usize]) -> SecdedWord {
    let mut w = word;
    for &b in bits {
        assert!(b < CODE_BITS, "bit index {b} out of code word");
        if b < DATA_BITS {
            w.data ^= 1u64 << b;
        } else {
            w.check ^= 1u8 << (b - DATA_BITS);
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_words_decode_clean() {
        for data in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            let w = encode(data);
            let (d, o) = decode(w);
            assert_eq!(d, data);
            assert_eq!(o, EccOutcome::Clean);
        }
    }

    #[test]
    fn corrects_every_single_data_bit() {
        let data = 0xA5A5_5A5A_0123_4567u64;
        let w = encode(data);
        for bit in 0..DATA_BITS {
            let (d, o) = decode(flip_bits(w, &[bit]));
            assert_eq!(d, data, "bit {bit} not corrected");
            assert_eq!(o, EccOutcome::Corrected { bits_flipped: 1 });
        }
    }

    #[test]
    fn corrects_every_single_check_bit() {
        let data = 0x0F0F_F0F0_1122_3344u64;
        let w = encode(data);
        for bit in DATA_BITS..CODE_BITS {
            let (d, o) = decode(flip_bits(w, &[bit]));
            assert_eq!(d, data);
            assert_eq!(o, EccOutcome::Corrected { bits_flipped: 1 });
        }
    }

    #[test]
    fn detects_every_double_bit_error() {
        // Exhaustive over all C(72,2) = 2556 double-bit patterns.
        let data = 0x1234_5678_9ABC_DEF0u64;
        let w = encode(data);
        for a in 0..CODE_BITS {
            for b in a + 1..CODE_BITS {
                let (_, o) = decode(flip_bits(w, &[a, b]));
                assert_eq!(
                    o,
                    EccOutcome::DetectedUncorrectable,
                    "double error ({a},{b}) must be detected, never (mis)corrected"
                );
            }
        }
    }

    #[test]
    fn triple_errors_are_not_guaranteed() {
        // SECDED gives no guarantee beyond 2 bits: at least some triple
        // errors alias a single-bit syndrome (miscorrection). Confirm the
        // code is honest about its limits: find one miscorrecting triple.
        let data = 0u64;
        let w = encode(data);
        let mut miscorrected = 0;
        let mut detected = 0;
        for a in 0..16 {
            for b in a + 1..24 {
                for c in b + 1..32 {
                    let (d, o) = decode(flip_bits(w, &[a, b, c]));
                    match o {
                        EccOutcome::Corrected { .. } if d != data => miscorrected += 1,
                        EccOutcome::DetectedUncorrectable => detected += 1,
                        _ => {}
                    }
                }
            }
        }
        assert!(miscorrected > 0, "expected some triple errors to miscorrect");
        assert!(detected > 0, "expected some triple errors to be detected");
    }

    #[test]
    fn columns_are_odd_weight_and_distinct() {
        let cols = &super::columns().cols;
        let mut seen = std::collections::BTreeSet::new();
        for &c in cols.iter() {
            assert_eq!(c.count_ones() % 2, 1, "column weight must be odd");
            assert!(c.count_ones() >= 3, "columns must differ from unit vectors");
            assert!(seen.insert(c), "columns must be distinct");
        }
    }

    #[test]
    fn encode_is_linear() {
        // Hsiao codes are linear: check(a ^ b) == check(a) ^ check(b).
        let a = 0x00FF_00FF_0102_0304u64;
        let b = 0xFFFF_0000_A0B0_C0D0u64;
        assert_eq!(encode(a ^ b).check, encode(a).check ^ encode(b).check);
    }
}
