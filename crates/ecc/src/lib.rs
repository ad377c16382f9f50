//! # abft-ecc
//!
//! Bit-true error-correcting codes for the cooperative ABFT + ECC
//! reproduction (Li et al., SC 2013):
//!
//! * [`hsiao`] — the (72,64) odd-weight-column SECDED code.
//! * [`chipkill`] — x4 chipkill-correct: a shortened RS(36,32) over
//!   GF(2^8) giving single-symbol correct / double-symbol detect.
//! * [`chipkill_x8`] — the x8 generalization: 3-check-symbol RS(19,16)
//!   at 18.75% storage overhead (Sections 2.2 and 3.1).
//! * [`rs`] — the one Reed-Solomon encoder and decoder both chipkill
//!   variants run on.
//! * `gf` — the underlying GF(2^8) arithmetic.
//! * [`mod@line`] — 64-byte cache-line protection assembled from code words.
//! * [`scheme`] — per-scheme cost/reliability attributes (chips per
//!   access, channels, storage overhead) used by the memory simulator.
//! * [`outcome`] — decode outcome classification, including ground-truth
//!   comparison for silent-corruption accounting.

// Library code returns data and leaves printing to the binaries and the
// reporting layer (`abft-coop-core`); tests included.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod chipkill;
pub mod chipkill_x8;
mod gf;
pub mod hsiao;
pub mod line;
pub mod outcome;
pub mod rs;
pub mod scheme;

pub use line::{ProtectedLine, LINE_BYTES};
pub use outcome::{classify_against_truth, EccOutcome, TruthOutcome};
pub use scheme::EccScheme;
