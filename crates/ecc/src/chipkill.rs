//! x4 chipkill-correct: Single Symbol Correct / Double Symbol Detect
//! (SSCDSD) Reed-Solomon code.
//!
//! Two 72-bit physical channels run in lock-step, forming a 144-bit logical
//! channel across 36 x4 chips (32 data + 4 ECC). Each transfer beat carries
//! one nibble per chip; a *code symbol* aggregates one chip's nibbles from
//! **two consecutive beats** into 8 bits, so the 36-symbol code word lives
//! in GF(2^8) — an RS code over GF(2^4) spans at most 15 symbols, short of
//! 36 chips. The code is a shortened RS(36,32) with generator roots
//! `α^1..α^4` (minimum distance 5), run on the shared [`crate::rs`] code:
//! any error confined to a single chip — all lengths, up to both nibbles —
//! is corrected, and any two-chip error is detected.
//!
//! One code word covers 32 data bytes; a 64-byte cache line is two words.

use crate::outcome::EccOutcome;
use crate::rs;

/// Data symbols per code word (32 bytes = 256 bits = two 128-bit beats).
pub const DATA_SYMBOLS: usize = 32;
/// Check symbols per code word.
pub const CHECK_SYMBOLS: usize = 4;
/// Total symbols per code word = total x4 chips on the logical channel.
pub const TOTAL_SYMBOLS: usize = DATA_SYMBOLS + CHECK_SYMBOLS;
/// Data bytes per code word.
pub const DATA_BYTES: usize = 32;

/// One encoded chipkill word: 36 byte-wide symbols. Symbol `i` is chip
/// `i`'s contribution over two beats. Symbols `0..32` are data, `32..36`
/// are RS check symbols (stored on the 4 ECC chips).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipkillWord {
    /// The 36 symbols.
    pub symbols: [u8; TOTAL_SYMBOLS],
}

/// Systematically encode one code word of 32 data bytes.
pub fn encode_word(data: &[u8; DATA_BYTES]) -> ChipkillWord {
    let mut symbols = [0u8; TOTAL_SYMBOLS];
    symbols[..DATA_SYMBOLS].copy_from_slice(data);
    rs::encode(&mut symbols, CHECK_SYMBOLS);
    ChipkillWord { symbols }
}

/// Extract the data bytes of a word.
#[expect(clippy::expect_used, reason = "fixed-length split of a const-sized array; infallible")]
pub fn word_data(word: &ChipkillWord) -> [u8; DATA_BYTES] {
    word.symbols[..DATA_SYMBOLS].try_into().expect("fixed split")
}

/// Decode one word: correct any single-symbol (single-chip) error, detect
/// multi-symbol errors. Returns the (possibly corrected) word and outcome.
pub fn decode_word(word: &ChipkillWord) -> (ChipkillWord, EccOutcome) {
    let mut fixed = *word;
    let o = rs::decode_in_place(&mut fixed.symbols, CHECK_SYMBOLS);
    (fixed, o)
}

/// Corrupt symbol `chip` of a word by XORing `pattern` (nonzero byte) into
/// it — models an arbitrary error within one x4 chip across the two beats.
pub fn inject_chip_error(word: &mut ChipkillWord, chip: usize, pattern: u8) {
    assert!(chip < TOTAL_SYMBOLS, "chip index out of range");
    assert!(pattern != 0, "pattern must be nonzero");
    word.symbols[chip] ^= pattern;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(seed: u8) -> [u8; DATA_BYTES] {
        let mut d = [0u8; DATA_BYTES];
        for (i, b) in d.iter_mut().enumerate() {
            *b = seed.wrapping_mul(31).wrapping_add((i as u8).wrapping_mul(17));
        }
        d
    }

    #[test]
    fn clean_word_decodes_clean() {
        let w = encode_word(&sample_data(1));
        let (out, o) = decode_word(&w);
        assert_eq!(out, w);
        assert_eq!(o, EccOutcome::Clean);
    }

    #[test]
    fn encode_is_systematic() {
        let d = sample_data(2);
        assert_eq!(word_data(&encode_word(&d)), d);
    }

    #[test]
    fn corrects_every_single_chip_sampled_patterns() {
        // 36 chips x a spread of byte patterns (includes the full-chip 0xFF).
        let clean = encode_word(&sample_data(7));
        for chip in 0..TOTAL_SYMBOLS {
            for pattern in [1u8, 2, 0x0F, 0x10, 0x55, 0xAA, 0xF0, 0xFF] {
                let mut bad = clean;
                inject_chip_error(&mut bad, chip, pattern);
                let (fixed, o) = decode_word(&bad);
                assert_eq!(fixed, clean, "chip {chip} pattern {pattern:#x}");
                assert_eq!(o, EccOutcome::Corrected { bits_flipped: pattern.count_ones() });
            }
        }
    }

    #[test]
    fn corrects_every_single_chip_every_pattern_exhaustive() {
        // Full sweep: 36 chips x 255 nonzero patterns = 9180 cases.
        let clean = encode_word(&sample_data(3));
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
    fn detects_every_double_chip_error_pair() {
        // A distance-5 code must never miscorrect a weight-2 symbol error.
        let clean = encode_word(&sample_data(5));
        for a in 0..TOTAL_SYMBOLS {
            for b in a + 1..TOTAL_SYMBOLS {
                for (pa, pb) in [(1u8, 1u8), (0xFF, 0x30), (0x80, 0x80)] {
                    let mut bad = clean;
                    inject_chip_error(&mut bad, a, pa);
                    inject_chip_error(&mut bad, b, pb);
                    let (_, o) = decode_word(&bad);
                    assert_eq!(
                        o,
                        EccOutcome::DetectedUncorrectable,
                        "chips ({a},{b}) patterns ({pa:#x},{pb:#x})"
                    );
                }
            }
        }
    }

    /// SplitMix64: the census's seeded stream.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn multi_chip_census_is_pinned() {
        // Beyond one chip the decoder's answer is whatever the syndrome
        // aliases to. Two families per chip count: random chips and
        // patterns (almost always detected), and `chips` symbols of a
        // weight-5 code word (a single data symbol encoded), whose
        // four-symbol truncation sits one symbol from another code word
        // and is miscorrected onto it. Counts of Clean / Corrected /
        // Detected and an FNV-1a digest of every returned word pin the
        // miscorrection profile the SDC study reads.
        let mut rng = 0x5EED_C41F_u64;
        let mut census = Vec::new();
        for chips in 2..=4 {
            for near_codeword in [false, true] {
                let (mut clean, mut corrected, mut detected) = (0u32, 0u32, 0u32);
                let mut digest = 0xCBF2_9CE4_8422_2325_u64;
                for _ in 0..2000 {
                    let mut data = [0u8; DATA_BYTES];
                    for b in data.iter_mut() {
                        *b = splitmix(&mut rng) as u8;
                    }
                    let mut word = encode_word(&data);
                    let mut error = [0u8; TOTAL_SYMBOLS];
                    if near_codeword {
                        let mut unit = [0u8; DATA_BYTES];
                        unit[splitmix(&mut rng) as usize % DATA_BYTES] =
                            (splitmix(&mut rng) % 255) as u8 + 1;
                        let e = encode_word(&unit).symbols;
                        for i in (0..TOTAL_SYMBOLS).filter(|&i| e[i] != 0).take(chips) {
                            error[i] = e[i];
                        }
                    } else {
                        let mut placed = 0;
                        while placed < chips {
                            let chip = splitmix(&mut rng) as usize % TOTAL_SYMBOLS;
                            if error[chip] == 0 {
                                error[chip] = (splitmix(&mut rng) % 255) as u8 + 1;
                                placed += 1;
                            }
                        }
                    }
                    for (chip, &pattern) in error.iter().enumerate().filter(|(_, &p)| p != 0) {
                        inject_chip_error(&mut word, chip, pattern);
                    }
                    let (out, o) = decode_word(&word);
                    match o {
                        EccOutcome::Clean => clean += 1,
                        EccOutcome::Corrected { .. } => corrected += 1,
                        EccOutcome::DetectedUncorrectable => detected += 1,
                    }
                    for &s in &out.symbols {
                        digest = (digest ^ u64::from(s)).wrapping_mul(0x100_0000_01B3);
                    }
                }
                census.push((chips, near_codeword, clean, corrected, detected, digest));
            }
        }
        assert_eq!(
            census,
            [
                (2, false, 0, 0, 2000, 7312532314537732043),
                (2, true, 0, 0, 2000, 6947347634919077505),
                (3, false, 0, 0, 2000, 14053436877164309336),
                (3, true, 0, 0, 2000, 2621459915175611846),
                (4, false, 0, 0, 2000, 10785036080323292361),
                (4, true, 0, 2000, 0, 17748452291100942172),
            ]
        );
    }

    #[test]
    fn wide_scattered_errors_never_silently_fixed_to_clean_data() {
        // The paper's Case 2 example: errors across 33 data symbols
        // overwhelm chipkill. The decoder may claim "corrected" (aliasing)
        // but can never actually restore the true data.
        let data = sample_data(11);
        let clean = encode_word(&data);
        for shift in 1..=16u8 {
            let mut bad = clean;
            for chip in 0..33 {
                inject_chip_error(&mut bad, chip, shift);
            }
            let (fixed, o) = decode_word(&bad);
            if matches!(o, EccOutcome::Clean | EccOutcome::Corrected { .. }) {
                assert_ne!(word_data(&fixed), data, "33-chip error genuinely corrected?!");
            }
        }
    }
}
