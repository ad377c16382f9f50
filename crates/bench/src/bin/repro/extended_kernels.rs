//! The extension kernels beyond the paper's four: FT-LU and FT-QR
//! (fail-continue, from the paper's related work \[9\]\[14\]) and the
//! two-error power-sum checksums — exercised under injected faults.

use abft_coop_core::report::{Report, TextTable};
use abft_kernels::cholesky::{ft_cholesky_with, FtCholeskyOptions};
use abft_kernels::lu::{ft_lu_with, FtLuOptions};
use abft_kernels::qr::{ft_qr_with, FtQrOptions};
use abft_kernels::VerifyMode;
use abft_linalg::gen::{random_diag_dominant, random_matrix, random_spd, random_vector};

pub fn run(out: &mut Report) {
    let n = 128;
    let mut t = TextTable::new(&["kernel", "injected", "corrected", "uncorrectable", "solve ok"]);

    // FT-LU with two strikes.
    {
        let a = random_diag_dominant(n, 1);
        let x_true = random_vector(n, 2);
        let b = a.matvec(&x_true);
        let r = ft_lu_with(
            &a,
            &FtLuOptions { block: 32, verify_interval: 1, mode: VerifyMode::Full },
            |kt, ext| {
                if kt == 1 {
                    ext[(100, 110)] += 250.0;
                    ext[(60, 90)] -= 40.0;
                }
            },
        )
        .expect("factors");
        let x = r.solve(&b);
        let err = x.iter().zip(&x_true).fold(0.0f64, |m, (u, v)| m.max((u - v).abs()));
        t.row(&[
            "FT-LU".into(),
            "2 (trailing)".into(),
            r.stats.corrections.to_string(),
            r.stats.uncorrectable.to_string(),
            (err < 1e-6).to_string(),
        ]);
    }

    // FT-QR with an R-row strike.
    {
        let a = random_matrix(n, n, 3);
        let x_true = random_vector(n, 4);
        let b = a.matvec(&x_true);
        let r = ft_qr_with(&a, &FtQrOptions::default(), |j, w| {
            if j == 40 {
                w[(10, 90)] -= 77.0;
            }
        });
        let x = r.factors.solve(&b);
        let err = x.iter().zip(&x_true).fold(0.0f64, |m, (u, v)| m.max((u - v).abs()));
        t.row(&[
            "FT-QR".into(),
            "1 (R row)".into(),
            r.stats.corrections.to_string(),
            r.stats.uncorrectable.to_string(),
            (err < 1e-6).to_string(),
        ]);
    }

    // Multi-error FT-Cholesky: two strikes in one block column.
    {
        let a = random_spd(n, 5);
        let r = ft_cholesky_with(
            &a,
            &FtCholeskyOptions {
                block: 32,
                verify_interval: 1,
                mode: VerifyMode::Full,
                multi_error: true,
            },
            |kt, m| {
                if kt == 1 {
                    m[(100, 70)] += 12.0;
                    m[(90, 70)] -= 4.5;
                }
            },
        )
        .expect("factors");
        let mut rec = abft_linalg::Matrix::zeros(n, n);
        abft_linalg::gemm(
            1.0,
            &r.l,
            abft_linalg::Trans::No,
            &r.l,
            abft_linalg::Trans::Yes,
            0.0,
            &mut rec,
        );
        t.row(&[
            "FT-Cholesky (4-vector)".into(),
            "2 (same block col)".into(),
            r.stats.corrections.to_string(),
            r.stats.uncorrectable.to_string(),
            rec.approx_eq(&a, 1e-8, 1e-8).to_string(),
        ]);
    }
    write!(out, "{}", t.render());
    writeln!(out, "\nAll three go beyond the paper's headline kernels, per its Section 2.1");
    writeln!(out, "remark that sophisticated checksum vectors widen correction capability");
    writeln!(out, "and its related-work coverage of LU/QR ABFT.");
}
