//! x8 chipkill-correct — the paper's "our approach easily generalizes to
//! other DRAM chips (e.g., x8 chips)" (Section 3.1), with the 3-check-
//! symbol code whose storage overhead Section 2.2 quotes as 18.75%-37.5%.
//!
//! With x8 devices a chip contributes one byte per beat, so the code
//! symbol is naturally 8 bits and one beat of a 2-channel lock-stepped
//! group carries 16 data chips + 3 check chips = 19 symbols: a shortened
//! RS(19,16) over GF(2^8) with distance 4 — single-chip correct,
//! double-chip detect, at 3/16 = 18.75% storage overhead.

use crate::outcome::EccOutcome;
use crate::rs;

/// Data symbols (= x8 data chips) per code word.
pub const DATA_SYMBOLS: usize = 16;
/// Check symbols (= x8 ECC chips) per code word.
pub const CHECK_SYMBOLS: usize = 3;
/// Total chips on the lock-stepped group.
pub const TOTAL_SYMBOLS: usize = DATA_SYMBOLS + CHECK_SYMBOLS;

/// One encoded x8 beat: 19 byte symbols, symbol `i` = chip `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipkillX8Word {
    /// The 19 symbols (16 data + 3 check).
    pub symbols: [u8; TOTAL_SYMBOLS],
}

/// Encode 16 data bytes (one beat of a 64-byte line quarter).
pub fn encode_word(data: &[u8; DATA_SYMBOLS]) -> ChipkillX8Word {
    let mut symbols = [0u8; TOTAL_SYMBOLS];
    symbols[..DATA_SYMBOLS].copy_from_slice(data);
    rs::encode(&mut symbols, CHECK_SYMBOLS);
    ChipkillX8Word { symbols }
}

/// Decode: correct any single-chip error, detect double-chip errors.
pub fn decode_word(word: &ChipkillX8Word) -> (ChipkillX8Word, EccOutcome) {
    let mut fixed = *word;
    let o = rs::decode_in_place(&mut fixed.symbols, CHECK_SYMBOLS);
    (fixed, o)
}

/// The data payload of a word.
#[expect(clippy::expect_used, reason = "fixed-length split of a const-sized array; infallible")]
pub fn word_data(word: &ChipkillX8Word) -> [u8; DATA_SYMBOLS] {
    word.symbols[..DATA_SYMBOLS].try_into().expect("fixed split")
}

/// Corrupt one chip's byte.
pub fn inject_chip_error(word: &mut ChipkillX8Word, chip: usize, pattern: u8) {
    assert!(chip < TOTAL_SYMBOLS, "chip index out of range");
    assert!(pattern != 0, "pattern must be nonzero");
    word.symbols[chip] ^= pattern;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(seed: u8) -> [u8; DATA_SYMBOLS] {
        let mut d = [0u8; DATA_SYMBOLS];
        for (i, b) in d.iter_mut().enumerate() {
            *b = seed.wrapping_mul(61).wrapping_add((i as u8).wrapping_mul(19));
        }
        d
    }

    #[test]
    fn clean_round_trip() {
        let d = data(1);
        let w = encode_word(&d);
        assert_eq!(word_data(&w), d);
        let (out, o) = decode_word(&w);
        assert_eq!(out, w);
        assert_eq!(o, EccOutcome::Clean);
    }

    #[test]
    fn corrects_every_single_chip_every_pattern() {
        let clean = encode_word(&data(2));
        for chip in 0..TOTAL_SYMBOLS {
            for pattern in 1..=255u8 {
                let mut bad = clean;
                inject_chip_error(&mut bad, chip, pattern);
                let (fixed, o) = decode_word(&bad);
                assert_eq!(fixed, clean, "chip {chip} pattern {pattern:#x}");
                assert!(matches!(o, EccOutcome::Corrected { .. }));
            }
        }
    }

    #[test]
    fn detects_every_double_chip_pair() {
        let clean = encode_word(&data(3));
        for a in 0..TOTAL_SYMBOLS {
            for b in a + 1..TOTAL_SYMBOLS {
                let mut bad = clean;
                inject_chip_error(&mut bad, a, 0xA5);
                inject_chip_error(&mut bad, b, 0x3C);
                let (_, o) = decode_word(&bad);
                assert_eq!(o, EccOutcome::DetectedUncorrectable, "pair ({a},{b})");
            }
        }
    }
}
