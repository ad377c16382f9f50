//! The ABFT detection rule (`abft_kernels::checksum`) held to what it
//! promises: it catches most single-bit flips whatever the data's units,
//! and a NaN never passes a check silently. That a clean run trips
//! nothing is `crates/abft/tests/clean_runs.rs`.

use abft_coop::abft_coop_runtime::{ErrorReport, SysfsChannel};
use abft_coop::abft_kernels::cg::{ft_pcg_with, FtCgOptions};
use abft_coop::abft_kernels::cholesky::{ft_cholesky_with, FtCholeskyOptions};
use abft_coop::abft_kernels::dgemm::{ft_dgemm_with, FtDgemmOptions};
use abft_coop::abft_kernels::hpl::{ft_hpl_injected, FtHplOptions};
use abft_coop::abft_kernels::{ColChecksums, VerifyMode};
use abft_coop::abft_linalg::gen::{random_diag_dominant, random_matrix, random_spd};
use abft_coop::abft_linalg::{gemm, matmul, poisson_2d, Matrix, Trans};
use std::collections::BTreeSet;

/// Bit 62 of an element in [1, 2) flipped: the exponent's top bit set on
/// an exponent of all ones below it, a NaN.
fn flipped_to_nan() -> f64 {
    let v = f64::from_bits(1.5f64.to_bits() ^ (1 << 62));
    assert!(v.is_nan());
    v
}

/// A report naming the line of element `e` of allocation `name`.
fn report(name: &str, e: usize) -> ErrorReport {
    ErrorReport {
        vaddr: (e * 8) as u64,
        alloc_vaddr: 0,
        element: e - e % 8,
        name: name.into(),
        time_s: 0.0,
    }
}

/// The (bit, element) pairs `verify_column` detects when each of 64
/// distinct elements per bit position of `m` has that bit flipped, and the
/// number of finite flips.
fn detected_flips(m: &Matrix) -> (BTreeSet<(u32, usize)>, usize) {
    let (rows, cols) = m.shape();
    let chk = ColChecksums::encode(m, rows);
    let mut detected = BTreeSet::new();
    let mut finite = 0;
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    for bit in 0..64 {
        let mut struck_elements = BTreeSet::new();
        while struck_elements.len() < 64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let e = (state % (rows * cols) as u64) as usize;
            if !struck_elements.insert(e) {
                continue;
            }
            let (i, j) = (e % rows, e / rows);
            let mut struck = m.clone();
            struck[(i, j)] = f64::from_bits(m[(i, j)].to_bits() ^ (1 << bit));
            finite += usize::from(struck[(i, j)].is_finite());
            if chk.verify_column(&struck, rows, j).is_some() {
                detected.insert((bit, e));
            }
        }
    }
    (detected, finite)
}

#[test]
fn most_single_bit_flips_are_detected_at_any_scale() {
    let m = random_matrix(384, 16, 7);
    let (base, finite) = detected_flips(&m);
    let finite_detected = base
        .iter()
        .filter(|&&(bit, e)| {
            let (i, j) = (e % 384, e / 384);
            f64::from_bits(m[(i, j)].to_bits() ^ (1 << bit)).is_finite()
        })
        .count();
    let rate = finite_detected as f64 / finite as f64;
    assert!(rate >= 0.65, "{:.1}% of finite single-bit flips detected", 100.0 * rate);

    let value_bits = |set: &BTreeSet<(u32, usize)>| -> BTreeSet<(u32, usize)> {
        set.iter().copied().filter(|&(bit, _)| bit < 52 || bit == 63).collect()
    };
    for k in [-40, -20, 20, 40] {
        let scale = 2f64.powi(k);
        let scaled = Matrix::from_fn(384, 16, |i, j| m[(i, j)] * scale);
        let (set, _) = detected_flips(&scaled);
        assert_eq!(value_bits(&set), value_bits(&base), "sign and mantissa flips at 2^{k}");
        let exponent =
            |s: &BTreeSet<(u32, usize)>| s.iter().filter(|p| (52..63).contains(&p.0)).count();
        assert_eq!(exponent(&set), 11 * 64, "every exponent flip is detected at 2^{k}");
    }
    let exponent = base.iter().filter(|p| (52..63).contains(&p.0)).count();
    assert_eq!(exponent, 11 * 64, "every exponent flip is detected");
}

#[test]
fn a_nan_fails_the_encoded_checksums() {
    let m0 = random_matrix(24, 6, 3);
    let chk = ColChecksums::encode(&m0, 24);
    let mut m = m0.clone();
    m[(9, 4)] = flipped_to_nan();
    assert_eq!(chk.verify(&m, 24).len(), 1);
    let v = chk.verify_column(&m, 24, 4).expect("a NaN is significant");
    // No weighted sum locates a NaN: nothing to correct, not clean.
    assert_eq!(chk.correct(&mut m, 24, &v), None);
}

#[test]
fn a_nan_in_ft_dgemm_is_restored_where_row_and_column_meet_or_a_report_names_it() {
    let (a, b) = (random_matrix(48, 48, 31), random_matrix(48, 48, 32));
    let reference = matmul(&a, &b);
    let full = FtDgemmOptions { panel: 12, verify_interval: 1, mode: VerifyMode::Full };
    let r = ft_dgemm_with(&a, &b, &full, |p, cf| {
        if p == 1 {
            cf[(20, 11)] = flipped_to_nan();
        }
    });
    assert_eq!((r.stats.corrections, r.stats.uncorrectable), (1, 0));
    assert!(r.c.approx_eq(&reference, 1e-9, 1e-9));

    let channel = SysfsChannel::new();
    let tx = channel.clone();
    let assisted = FtDgemmOptions {
        panel: 12,
        verify_interval: 1,
        mode: VerifyMode::HardwareAssisted(channel),
    };
    let r = ft_dgemm_with(&a, &b, &assisted, |p, cf| {
        if p == 1 {
            cf[(5, 3)] = flipped_to_nan();
            tx.publish(report("matrix_c", 3 * 49 + 5));
        }
    });
    assert_eq!((r.stats.corrections, r.stats.uncorrectable), (1, 0));
    assert!(r.c.approx_eq(&reference, 1e-9, 1e-9));
}

fn reconstruct(l: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(l.rows(), l.cols());
    gemm(1.0, l, Trans::No, l, Trans::Yes, 0.0, &mut c);
    c
}

#[test]
fn a_nan_in_ft_cholesky_is_restored_from_a_report_and_flagged_otherwise() {
    let a = random_spd(64, 3);
    for multi_error in [false, true] {
        let opts = FtCholeskyOptions {
            block: 16,
            verify_interval: 1,
            mode: VerifyMode::Full,
            multi_error,
        };
        let r = ft_cholesky_with(&a, &opts, |kt, m| {
            if kt == 1 {
                m[(50, 40)] = flipped_to_nan();
            }
        });
        if let Ok(r) = r {
            assert!(r.stats.uncorrectable > 0, "multi_error {multi_error}: the NaN went unflagged");
        }
    }

    let channel = SysfsChannel::new();
    let tx = channel.clone();
    let opts = FtCholeskyOptions {
        block: 16,
        verify_interval: 1,
        mode: VerifyMode::HardwareAssisted(channel),
        multi_error: false,
    };
    let r = ft_cholesky_with(&a, &opts, |kt, m| {
        if kt == 1 {
            m[(50, 40)] = flipped_to_nan();
            tx.publish(report("matrix_a", 40 * 64 + 50));
        }
    })
    .expect("the repaired matrix factors");
    assert_eq!((r.stats.corrections, r.stats.uncorrectable), (1, 0));
    assert!(reconstruct(&r.l).approx_eq(&a, 1e-8, 1e-8));
}

#[test]
fn a_nan_in_ft_cg_is_restored_from_a_report_and_flagged_otherwise() {
    let a = poisson_2d(16, 16);
    let n = a.rows();
    let b: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
    let full = FtCgOptions { max_iter: 40, verify_interval: 2, ..Default::default() };
    let r = ft_pcg_with(&a, &b, &vec![0.0; n], &full, |it, st| {
        if it == 4 {
            st.x[100] = flipped_to_nan();
        }
    });
    assert!(r.stats.uncorrectable > 0, "recomputation from a NaN iterate repaired nothing");

    let channel = SysfsChannel::new();
    let tx = channel.clone();
    let assisted = FtCgOptions {
        verify_interval: 2,
        mode: VerifyMode::HardwareAssisted(channel),
        ..Default::default()
    };
    let r = ft_pcg_with(&a, &b, &vec![0.0; n], &assisted, |it, st| {
        if it == 4 {
            st.x[100] = flipped_to_nan();
            tx.publish(report("vector_x", 100));
        }
    });
    assert_eq!((r.stats.corrections, r.stats.uncorrectable), (1, 0));
    assert!(r.converged, "residual {}", r.residual_norm);
}

#[test]
fn a_nan_in_ft_hpl_is_flagged() {
    let opts = FtHplOptions { block: 16, ..Default::default() };
    let r = ft_hpl_injected(&random_diag_dominant(64, 6), &opts, &[], |kt, ext| {
        if kt == 0 {
            ext[(40, 50)] = flipped_to_nan();
        }
    });
    if let Ok(r) = r {
        assert!(r.stats.uncorrectable > 0, "the NaN went unflagged");
    }
}

#[test]
fn a_reported_ft_hpl_error_is_restored_where_the_report_names_it() {
    // +1.0 after panel 0 on an entry of the trailing matrix and on a
    // multiplier of panel 0, each with a report naming its line of
    // `matrix_a` (column-major, leading dimension 64): with the location
    // known, the row's checksum restores the first and the archive the
    // second, with no sweep.
    let n = 64;
    let a = random_diag_dominant(n, 6);
    let opts = FtHplOptions { block: 16, ..Default::default() };
    let clean = ft_hpl_injected(&a, &opts, &[], |_, _| {}).unwrap();
    for (i, j) in [(40, 50), (50, 5)] {
        let channel = SysfsChannel::new();
        let opts = FtHplOptions { mode: VerifyMode::HardwareAssisted(channel.clone()), ..opts };
        let r = ft_hpl_injected(&a, &opts, &[], |kt, ext| {
            if kt == 0 {
                ext[(i, j)] += 1.0;
                channel.publish(report("matrix_a", j * n + i));
            }
        })
        .unwrap();
        let s = r.stats;
        assert_eq!((s.corrections, s.uncorrectable), (1, 0), "({i}, {j})");
        let off = r.lu.as_slice().iter().zip(clean.lu.as_slice()).map(|(x, y)| (x - y).abs());
        let off = off.fold(0.0, f64::max);
        assert!(off < 1e-12, "({i}, {j}): the factors are {off} off a clean run's");
    }
    // A report the matrix cannot place is flagged, not dropped.
    let channel = SysfsChannel::new();
    let opts = FtHplOptions { mode: VerifyMode::HardwareAssisted(channel.clone()), ..opts };
    channel.publish(report("rhs_b", 0));
    let r = ft_hpl_injected(&a, &opts, &[], |_, _| {}).unwrap();
    assert_eq!((r.stats.corrections, r.stats.uncorrectable), (0, 1));
}

#[test]
fn a_flipped_ft_hpl_multiplier_is_restored_from_the_broadcast_archive() {
    // The checksum relation reads a factored column's L multipliers as
    // zero, so only the archive's copy can see one move: +1.0 on a
    // multiplier of panel 0, after panel 1.
    let a = random_diag_dominant(64, 6);
    let opts = FtHplOptions { block: 16, ..Default::default() };
    let clean = ft_hpl_injected(&a, &opts, &[], |_, _| {}).unwrap();
    let r = ft_hpl_injected(&a, &opts, &[], |kt, ext| {
        if kt == 1 {
            ext[(50, 5)] += 1.0;
        }
    })
    .unwrap();
    assert_eq!((r.stats.corrections, r.stats.uncorrectable), (1, 0));
    assert!(r.lu.as_slice() == clean.lu.as_slice(), "the factors differ from a clean run's");
}
