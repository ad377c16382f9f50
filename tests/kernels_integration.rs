//! Cross-crate integration: the four FT kernels at larger scales, driven
//! by the fault injector, checked against the plain substrates.

use abft_coop::prelude::*;

#[test]
fn ft_dgemm_under_scheduled_faults_matches_reference() {
    let n = 96;
    let a = abft_coop::abft_linalg::gen::random_matrix(n, n, 21);
    let b = abft_coop::abft_linalg::gen::random_matrix(n, n, 22);
    let reference = abft_coop::abft_linalg::matmul(&a, &b);
    let mut inj = Injector::new(7);
    let targets: Vec<(usize, u32)> = (0..4).map(|_| inj.random_target(n * n)).collect();
    let r = ft_dgemm_with(
        &a,
        &b,
        &FtDgemmOptions { panel: 24, verify_interval: 1, mode: VerifyMode::Full },
        |p, cf| {
            if p < targets.len() {
                let (e, _) = targets[p];
                let (i, j) = (e % n, e / n);
                cf[(i, j)] += 1.0 + i as f64;
            }
        },
    );
    assert_eq!(r.stats.corrections, 4);
    assert!(r.c.approx_eq(&reference, 1e-9, 1e-9));
}

#[test]
fn ft_cholesky_under_faults_factors_correctly() {
    let n = 96;
    let a = abft_coop::abft_linalg::gen::random_spd(n, 23);
    let r = ft_cholesky_with(
        &a,
        &FtCholeskyOptions {
            block: 24,
            verify_interval: 1,
            mode: VerifyMode::Full,
            multi_error: false,
        },
        |kt, m| {
            if kt == 1 {
                m[(70, 60)] += 500.0;
            }
            if kt == 2 {
                m[(90, 10)] -= 250.0;
            }
        },
    )
    .expect("factors");
    assert!(r.stats.corrections >= 2);
    let mut rec = Matrix::zeros(n, n);
    abft_coop::abft_linalg::gemm(
        1.0,
        &r.l,
        abft_coop::abft_linalg::Trans::No,
        &r.l,
        abft_coop::abft_linalg::Trans::Yes,
        0.0,
        &mut rec,
    );
    assert!(rec.approx_eq(&a, 1e-8, 1e-8));
}

#[test]
fn ft_hpl_solves_after_double_process_loss() {
    let n = 96;
    let a = abft_coop::abft_linalg::gen::random_diag_dominant(n, 24);
    let x_true = abft_coop::abft_linalg::gen::random_vector(n, 25);
    let b = a.matvec(&x_true);
    let r = ft_hpl_with(
        &a,
        &FtHplOptions { block: 16, process_cols: 2, ..Default::default() },
        &[FailStop { at_step: 1, process: 0 }, FailStop { at_step: 4, process: 1 }],
    )
    .expect("factors");
    assert_eq!(r.recoveries, 2);
    let x = r.solve(&b);
    for i in 0..n {
        assert!((x[i] - x_true[i]).abs() < 1e-6);
    }
}

#[test]
fn ft_cg_full_campaign_with_rotating_targets() {
    let a = poisson_2d(40, 40);
    let nn = a.rows();
    let b: Vec<f64> = (0..nn).map(|i| ((i * 31 % 101) as f64) / 50.0 - 1.0).collect();
    let r = ft_pcg_with(
        &a,
        &b,
        &vec![0.0; nn],
        &FtCgOptions { tol: 1e-10, max_iter: 2000, verify_interval: 4, ..Default::default() },
        |it, st| match it {
            8 => st.x[17] += 1e5,
            16 => st.r[99] -= 44.0,
            24 => st.p[1500] *= 32.0,
            32 => st.q[4] += 9.9e3,
            _ => {}
        },
    );
    assert!(r.converged, "residual {}", r.residual_norm);
    assert!(r.stats.corrections >= 4);
}

#[test]
fn hardware_assisted_verification_uses_sysfs_reports_end_to_end() {
    // Wire a runtime's channel into FT-DGEMM: the runtime reports a
    // corrupted line; assisted verification repairs exactly that line
    // without any checksum sweep.
    let cfg = SystemConfig::default();
    let rt = EccRuntime::new(&cfg);
    let channel = rt.sysfs();

    let n = 48;
    let a = abft_coop::abft_linalg::gen::random_matrix(n, n, 31);
    let b = abft_coop::abft_linalg::gen::random_matrix(n, n, 32);
    let reference = abft_coop::abft_linalg::matmul(&a, &b);

    let tx = channel.clone();
    let r = ft_dgemm_with(
        &a,
        &b,
        &FtDgemmOptions {
            panel: 12,
            verify_interval: 1,
            mode: VerifyMode::HardwareAssisted(channel),
        },
        |p, cf| {
            if p == 1 {
                // Corrupt element (5, 3) and let "the OS" report its line.
                cf[(5, 3)] += 777.0;
                let e = 3 * (n + 1) + 5;
                tx.publish(abft_coop::abft_coop_runtime::ErrorReport {
                    vaddr: (e * 8) as u64,
                    alloc_vaddr: 0,
                    element: e - e % 8,
                    name: "matrix_c".into(),
                    time_s: 0.0,
                });
            }
        },
    );
    assert_eq!(r.stats.corrections, 1);
    assert!(r.c.approx_eq(&reference, 1e-9, 1e-9));
}
