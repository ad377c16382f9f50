//! Cache-line (64 B) protection assembled from code words.
//!
//! * **SECDED**: eight (72,64) Hsiao words — one per 64-bit chunk, matching
//!   a 72-bit physical channel burst.
//! * **Chipkill**: two RS(36,32) code words on the lock-stepped logical
//!   channel (each covering two 144-bit beats); a failing chip corrupts the
//!   same symbol position in every word, and each word corrects it
//!   independently.
//! * **None**: stored raw; every error is silent.

use crate::chipkill::{self, ChipkillWord, DATA_BYTES};
use crate::hsiao::{self, SecdedWord};
use crate::outcome::EccOutcome;
use crate::scheme::EccScheme;

/// Bytes per cache line, fixed at 64 as in the paper's Table 3.
pub const LINE_BYTES: usize = 64;

/// A 64-byte cache line as stored in DRAM together with its redundancy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtectedLine {
    /// No redundancy.
    Raw([u8; LINE_BYTES]),
    /// Eight Hsiao words.
    Secded([SecdedWord; 8]),
    /// Two chipkill code words.
    Chipkill([ChipkillWord; 2]),
}

impl ProtectedLine {
    /// Encode a line under the given scheme.
    ///
    /// # Examples
    /// ```
    /// use abft_ecc::{EccOutcome, EccScheme, ProtectedLine};
    ///
    /// let data = [0xA5u8; 64];
    /// let mut line = ProtectedLine::encode(EccScheme::Chipkill, &data);
    /// line.flip_data_bit(77); // a DRAM cell upset
    /// let (decoded, outcome) = line.decode();
    /// assert_eq!(decoded, data);
    /// assert!(matches!(outcome, EccOutcome::Corrected { .. }));
    /// ```
    pub fn encode(scheme: EccScheme, data: &[u8; LINE_BYTES]) -> Self {
        match scheme {
            EccScheme::None => ProtectedLine::Raw(*data),
            EccScheme::Secded => {
                let mut words = [SecdedWord { data: 0, check: 0 }; 8];
                for (w, chunk) in words.iter_mut().zip(data.chunks_exact(8)) {
                    #[expect(
                        clippy::expect_used,
                        reason = "chunks_exact(8) guarantees the length; infallible"
                    )]
                    let v = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                    *w = hsiao::encode(v);
                }
                ProtectedLine::Secded(words)
            }
            EccScheme::Chipkill => {
                let mut words = [ChipkillWord { symbols: [0; chipkill::TOTAL_SYMBOLS] }; 2];
                for (w, chunk) in words.iter_mut().zip(data.chunks_exact(DATA_BYTES)) {
                    #[expect(
                        clippy::expect_used,
                        reason = "chunks_exact(DATA_BYTES) guarantees the length; infallible"
                    )]
                    let chunk = chunk.try_into().expect("32-byte chunk");
                    *w = chipkill::encode_word(chunk);
                }
                ProtectedLine::Chipkill(words)
            }
        }
    }

    /// The scheme this line is stored under.
    pub fn scheme(&self) -> EccScheme {
        match self {
            ProtectedLine::Raw(_) => EccScheme::None,
            ProtectedLine::Secded(_) => EccScheme::Secded,
            ProtectedLine::Chipkill(_) => EccScheme::Chipkill,
        }
    }

    /// Decode the line: returns the (possibly corrected) data and the merged
    /// outcome over all words/beats. Under `None` the outcome is always
    /// `Clean` — errors pass through silently.
    pub fn decode(&self) -> ([u8; LINE_BYTES], EccOutcome) {
        match self {
            ProtectedLine::Raw(d) => (*d, EccOutcome::Clean),
            ProtectedLine::Secded(words) => {
                let mut data = [0u8; LINE_BYTES];
                let mut outcome = EccOutcome::Clean;
                for (w, chunk) in words.iter().zip(data.chunks_exact_mut(8)) {
                    let (v, o) = hsiao::decode(*w);
                    chunk.copy_from_slice(&v.to_le_bytes());
                    outcome = outcome.merge(o);
                }
                (data, outcome)
            }
            ProtectedLine::Chipkill(words) => {
                let mut data = [0u8; LINE_BYTES];
                let mut outcome = EccOutcome::Clean;
                for (w, chunk) in words.iter().zip(data.chunks_exact_mut(DATA_BYTES)) {
                    let (fixed, o) = chipkill::decode_word(w);
                    chunk.copy_from_slice(&chipkill::word_data(&fixed));
                    outcome = outcome.merge(o);
                }
                (data, outcome)
            }
        }
    }

    /// Flip a single stored data bit (`bit < 512`), modelling a DRAM cell
    /// upset. The redundancy bits are *not* re-encoded — that is the point.
    pub fn flip_data_bit(&mut self, bit: usize) {
        assert!(bit < LINE_BYTES * 8, "bit index out of line");
        match self {
            ProtectedLine::Raw(d) => d[bit / 8] ^= 1 << (bit % 8),
            ProtectedLine::Secded(words) => {
                let w = bit / 64;
                words[w].data ^= 1u64 << (bit % 64);
            }
            ProtectedLine::Chipkill(words) => {
                let word = bit / 256;
                let within = bit % 256;
                words[word].symbols[within / 8] ^= 1 << (within % 8);
            }
        }
    }

    /// Model a whole-chip fault for chipkill lines: XOR `pattern` into the
    /// given chip's symbol in every code word.
    pub fn fail_chip(&mut self, chip: usize, pattern: u8) {
        assert!(
            matches!(self, ProtectedLine::Chipkill(_)),
            "fail_chip only applies to chipkill lines"
        );
        if let ProtectedLine::Chipkill(words) = self {
            for w in words.iter_mut() {
                chipkill::inject_chip_error(w, chip, pattern);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(seed: u8) -> [u8; LINE_BYTES] {
        let mut d = [0u8; LINE_BYTES];
        for (i, b) in d.iter_mut().enumerate() {
            *b = seed.wrapping_mul(53).wrapping_add((i as u8).wrapping_mul(29));
        }
        d
    }

    #[test]
    fn round_trip_all_schemes() {
        let d = line(1);
        for scheme in [EccScheme::None, EccScheme::Secded, EccScheme::Chipkill] {
            let p = ProtectedLine::encode(scheme, &d);
            assert_eq!(p.scheme(), scheme);
            let (out, o) = p.decode();
            assert_eq!(out, d, "{scheme:?}");
            assert_eq!(o, EccOutcome::Clean);
        }
    }

    #[test]
    fn secded_corrects_single_bit_anywhere() {
        let d = line(2);
        for bit in (0..512).step_by(37) {
            let mut p = ProtectedLine::encode(EccScheme::Secded, &d);
            p.flip_data_bit(bit);
            let (out, o) = p.decode();
            assert_eq!(out, d, "bit {bit}");
            assert_eq!(o, EccOutcome::Corrected { bits_flipped: 1 });
        }
    }

    #[test]
    fn secded_detects_double_bit_same_word() {
        let d = line(3);
        let mut p = ProtectedLine::encode(EccScheme::Secded, &d);
        p.flip_data_bit(3);
        p.flip_data_bit(40); // same 64-bit word
        let (_, o) = p.decode();
        assert_eq!(o, EccOutcome::DetectedUncorrectable);
    }

    #[test]
    fn secded_corrects_two_bits_in_different_words() {
        let d = line(4);
        let mut p = ProtectedLine::encode(EccScheme::Secded, &d);
        p.flip_data_bit(3); // word 0
        p.flip_data_bit(100); // word 1
        let (out, o) = p.decode();
        assert_eq!(out, d);
        assert_eq!(o, EccOutcome::Corrected { bits_flipped: 2 });
    }

    #[test]
    fn chipkill_survives_whole_chip_failure() {
        let d = line(5);
        for chip in [0usize, 7, 31, 33, 35] {
            let mut p = ProtectedLine::encode(EccScheme::Chipkill, &d);
            p.fail_chip(chip, 0xFF);
            let (out, o) = p.decode();
            assert_eq!(out, d, "chip {chip}");
            assert!(matches!(o, EccOutcome::Corrected { .. }));
        }
    }

    #[test]
    fn chipkill_detects_two_chip_failure() {
        let d = line(6);
        let mut p = ProtectedLine::encode(EccScheme::Chipkill, &d);
        p.fail_chip(4, 0x3);
        p.fail_chip(20, 0x9);
        let (_, o) = p.decode();
        assert_eq!(o, EccOutcome::DetectedUncorrectable);
    }

    #[test]
    fn chipkill_corrects_multibit_within_one_chip_but_secded_cannot() {
        // The error pattern that separates the two schemes: 4 flipped bits
        // confined to one x4 chip's nibble.
        let d = line(7);
        let mut ck = ProtectedLine::encode(EccScheme::Chipkill, &d);
        ck.fail_chip(9, 0xF);
        let (out, o) = ck.decode();
        assert_eq!(out, d);
        assert!(matches!(o, EccOutcome::Corrected { .. }));

        // The same 4 adjacent bits inside one SECDED word: detected at
        // best, never corrected.
        let mut sd = ProtectedLine::encode(EccScheme::Secded, &d);
        for bit in 128..132 {
            sd.flip_data_bit(bit);
        }
        let (_, o) = sd.decode();
        assert_ne!(o, EccOutcome::Clean);
        assert!(!matches!(o, EccOutcome::Corrected { bits_flipped: 4 }));
    }

    #[test]
    fn raw_lines_corrupt_silently() {
        let d = line(8);
        let mut p = ProtectedLine::encode(EccScheme::None, &d);
        p.flip_data_bit(100);
        let (out, o) = p.decode();
        assert_ne!(out, d, "no-ECC lines cannot repair");
        assert_eq!(o, EccOutcome::Clean, "and the corruption is silent");
    }
}
