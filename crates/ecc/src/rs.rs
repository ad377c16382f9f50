//! Generic systematic Reed-Solomon codes over GF(2^8) with
//! single-symbol-correct decoding — the one encoder and decoder behind the
//! x4 and x8 chipkill variants.
//!
//! A code with `check` check symbols and generator roots `α^1..α^check`
//! has minimum distance `check + 1`: with `check >= 3` it corrects any
//! single-symbol error and detects any double-symbol error (SSC-DSD).
//!
//! A word is `[data..., check...]`: check symbol `k` is the coefficient of
//! `x^k` and data symbol `i` the coefficient of `x^(i + check)`. Encoding
//! and decoding work in place on the caller's word with fixed-size scratch,
//! so the per-word path never allocates.

use crate::gf::Gf256;
use crate::outcome::EccOutcome;
use std::sync::OnceLock;

/// The most check symbols a code may carry.
const MAX_CHECK: usize = 8;

/// Every product the per-word loops form is a symbol times a fixed field
/// element, so each is one lookup in a table built once.
struct Tables {
    /// `generator[check][k][x] = x · g_k`, where `g(x) = Σ g_k x^k` is the monic
    /// generator with roots `α^1..α^check`.
    generator: [[[u8; 256]; MAX_CHECK]; MAX_CHECK + 1],
    /// `alpha[j][x] = x · α^(j+1)`: one Horner step of syndrome `S_(j+1)`.
    alpha: [[u8; 256]; MAX_CHECK],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let times = |c: Gf256| -> [u8; 256] { std::array::from_fn(|x| (Gf256(x as u8) * c).0) };
        let mut generator = [[[0u8; 256]; MAX_CHECK]; MAX_CHECK + 1];
        for (check, table) in generator.iter_mut().enumerate() {
            // g(x) = (x - α)(x - α^2)...(x - α^check), low-to-high.
            let mut g = [Gf256::ZERO; MAX_CHECK + 1];
            g[0] = Gf256::ONE;
            for deg in 0..check {
                let root = Gf256::alpha_pow(deg as i32 + 1);
                let mut next = [Gf256::ZERO; MAX_CHECK + 1];
                for d in 0..=deg {
                    next[d + 1] = next[d + 1] + g[d];
                    next[d] = next[d] + g[d] * root;
                }
                g = next;
            }
            for (t, &gk) in table.iter_mut().zip(&g) {
                *t = times(gk);
            }
        }
        let alpha = std::array::from_fn(|j| times(Gf256::alpha_pow(j as i32 + 1)));
        Tables { generator, alpha }
    })
}

/// The data length of a `len`-symbol word carrying `check` check symbols.
fn data_len(len: usize, check: usize) -> usize {
    assert!(len <= 255, "RS over GF(256) caps total length at 255");
    assert!((2..=MAX_CHECK).contains(&check) && check <= len, "bad check-symbol count");
    len - check
}

/// Systematically encode in place: `word[..len - check]` holds the data,
/// and the last `check` symbols are overwritten with
/// `d(x) x^check mod g(x)`, so every `α^1..α^check` is a root of the word.
pub fn encode(word: &mut [u8], check: usize) {
    let data = data_len(word.len(), check);
    let g = &tables().generator[check];
    // LFSR long division by the monic g(x), highest data degree first.
    let mut rem = [0u8; MAX_CHECK];
    for &ds in word[..data].iter().rev() {
        let feedback = usize::from(ds ^ rem[check - 1]);
        for k in (1..check).rev() {
            rem[k] = rem[k - 1] ^ g[k][feedback];
        }
        rem[0] = g[0][feedback];
    }
    word[data..].copy_from_slice(&rem[..check]);
}

/// Syndromes `S_j = c(α^j)`, `j = 1..=check`, by Horner's rule from the
/// highest degree (the last data symbol) down to check symbol 0, all `j`
/// in one pass.
fn syndromes(word: &[u8], check: usize) -> [Gf256; MAX_CHECK] {
    let (data, checks) = word.split_at(word.len() - check);
    let alpha = &tables().alpha[..check];
    let mut acc = [0u8; MAX_CHECK];
    for &c in data.iter().rev().chain(checks.iter().rev()) {
        for (a, times_x) in acc.iter_mut().zip(alpha) {
            *a = times_x[usize::from(*a)] ^ c;
        }
    }
    acc.map(Gf256)
}

/// Decode in place: correct any single-symbol error, detect anything
/// wider (up to the code's distance guarantee).
pub fn decode_in_place(word: &mut [u8], check: usize) -> EccOutcome {
    let data = data_len(word.len(), check);
    let s = syndromes(word, check);
    let s = &s[..check];
    if s.iter().all(|&x| x == Gf256::ZERO) {
        return EccOutcome::Clean;
    }
    if s.contains(&Gf256::ZERO) {
        return EccOutcome::DetectedUncorrectable;
    }
    // Single error of magnitude e at degree d gives S_j = e α^(j d): all
    // consecutive syndrome ratios equal α^d.
    let ratio = s[1] / s[0];
    if s.windows(2).skip(1).any(|w| w[1] / w[0] != ratio) {
        return EccOutcome::DetectedUncorrectable;
    }
    let d = match ratio.log() {
        Some(d) => d as usize,
        None => return EccOutcome::DetectedUncorrectable,
    };
    // Map the degree back to a symbol index; a degree outside the
    // shortened word means the error was not a single symbol.
    let idx = if d < check {
        data + d
    } else if d < check + data {
        d - check
    } else {
        return EccOutcome::DetectedUncorrectable;
    };
    // Magnitude: e = S_1 / α^d.
    let e = s[0] / Gf256::alpha_pow(d as i32);
    word[idx] ^= e.0;
    EccOutcome::Corrected { bits_flipped: e.0.count_ones() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| seed.wrapping_mul(41).wrapping_add((i as u8).wrapping_mul(23))).collect()
    }

    fn codeword(data: &[u8], check: usize) -> Vec<u8> {
        let mut w = data.to_vec();
        w.resize(data.len() + check, 0);
        encode(&mut w, check);
        w
    }

    #[test]
    fn round_trip_various_geometries() {
        for (len, check) in [(16, 3), (32, 4), (8, 2), (64, 5), (250, 5)] {
            let d = data(len, 9);
            let w = codeword(&d, check);
            assert_eq!(&w[..len], &d[..], "systematic");
            assert!(syndromes(&w, check).iter().all(|&s| s == Gf256::ZERO));
            let mut w2 = w.clone();
            assert_eq!(decode_in_place(&mut w2, check), EccOutcome::Clean);
        }
    }

    #[test]
    fn corrects_single_symbol_everywhere() {
        let (len, check) = (16, 3);
        let clean = codeword(&data(len, 3), check);
        for idx in 0..len + check {
            for pat in [1u8, 0x80, 0xFF] {
                let mut w = clean.clone();
                w[idx] ^= pat;
                let o = decode_in_place(&mut w, check);
                assert!(matches!(o, EccOutcome::Corrected { .. }), "idx {idx} pat {pat:#x}");
                assert_eq!(w, clean);
            }
        }
    }

    #[test]
    fn detects_double_symbols_with_three_checks() {
        // distance 4: double errors detected, never miscorrected.
        let (len, check) = (16, 3);
        let clean = codeword(&data(len, 5), check);
        for a in 0..len + check {
            for b in a + 1..len + check {
                let mut w = clean.clone();
                w[a] ^= 0x55;
                w[b] ^= 0x0F;
                assert_eq!(
                    decode_in_place(&mut w, check),
                    EccOutcome::DetectedUncorrectable,
                    "pair ({a},{b})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "caps total length")]
    fn rejects_overlong_codes() {
        encode(&mut [0u8; 256], 4);
    }
}
