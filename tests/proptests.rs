//! Property-based tests on the core invariants: checksum algebra, ECC
//! code guarantees, the cache model, the frame allocator, and the fault
//! models.

use abft_coop::abft_ecc::{chipkill, hsiao};
use abft_coop::abft_kernels::ColChecksums;
use abft_coop::prelude::*;
use proptest::prelude::*;

mod common;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ----- checksum algebra -------------------------------------------

    #[test]
    fn checksum_locates_any_single_error(
        rows in 2usize..40,
        cols in 1usize..12,
        seed in 0u64..1000,
        magnitude in prop::sample::select(vec![1e-3, 1.0, 64.0, 1e6]),
        r_frac in 0.0f64..1.0,
        c_frac in 0.0f64..1.0,
    ) {
        let m0 = abft_coop::abft_linalg::gen::random_matrix(rows, cols, seed);
        let chk = ColChecksums::encode(&m0, rows);
        let mut m = m0.clone();
        let i = ((rows as f64 - 1.0) * r_frac) as usize;
        let j = ((cols as f64 - 1.0) * c_frac) as usize;
        m[(i, j)] += magnitude;
        let vs = chk.verify(&m, rows);
        prop_assert_eq!(vs.len(), 1);
        prop_assert_eq!(vs[0].index, j);
        prop_assert_eq!(vs[0].locate(rows), Some(i));
        chk.correct(&mut m, rows, &vs[0]);
        prop_assert!(m.approx_eq(&m0, 1e-9, 1e-9));
    }

    // ----- SECDED ------------------------------------------------------

    #[test]
    fn secded_round_trip_and_single_bit(data: u64, bit in 0usize..72) {
        let w = hsiao::encode(data);
        let (d, o) = hsiao::decode(w);
        prop_assert_eq!(d, data);
        prop_assert_eq!(o, abft_coop::abft_ecc::EccOutcome::Clean);
        let (d, o) = hsiao::decode(hsiao::flip_bits(w, &[bit]));
        prop_assert_eq!(d, data);
        let corrected = matches!(o, abft_coop::abft_ecc::EccOutcome::Corrected { .. });
        prop_assert!(corrected);
    }

    #[test]
    fn secded_double_bits_always_detected(data: u64, a in 0usize..72, b in 0usize..72) {
        prop_assume!(a != b);
        let w = hsiao::encode(data);
        let (_, o) = hsiao::decode(hsiao::flip_bits(w, &[a, b]));
        prop_assert_eq!(o, abft_coop::abft_ecc::EccOutcome::DetectedUncorrectable);
    }

    // ----- chipkill ----------------------------------------------------

    #[test]
    fn chipkill_corrects_any_single_chip(
        seed: u8,
        chip in 0usize..36,
        pattern in 1u8..=255,
    ) {
        let mut data = [0u8; 32];
        for (i, d) in data.iter_mut().enumerate() {
            *d = seed.wrapping_mul(97).wrapping_add((i as u8).wrapping_mul(13));
        }
        let clean = chipkill::encode_word(&data);
        let mut bad = clean;
        chipkill::inject_chip_error(&mut bad, chip, pattern);
        let (fixed, o) = chipkill::decode_word(&bad);
        prop_assert_eq!(fixed, clean);
        let corrected = matches!(o, abft_coop::abft_ecc::EccOutcome::Corrected { .. });
        prop_assert!(corrected);
    }

    #[test]
    fn chipkill_detects_any_double_chip(
        seed: u8,
        a in 0usize..36,
        b in 0usize..36,
        pa in 1u8..=255,
        pb in 1u8..=255,
    ) {
        prop_assume!(a != b);
        let mut data = [0u8; 32];
        for (i, d) in data.iter_mut().enumerate() {
            *d = seed.wrapping_add((i as u8).wrapping_mul(29));
        }
        let mut bad = chipkill::encode_word(&data);
        chipkill::inject_chip_error(&mut bad, a, pa);
        chipkill::inject_chip_error(&mut bad, b, pb);
        let (_, o) = chipkill::decode_word(&bad);
        prop_assert_eq!(o, abft_coop::abft_ecc::EccOutcome::DetectedUncorrectable);
    }

    // ----- protected lines through the controller ----------------------

    #[test]
    fn any_single_data_bit_flip_is_repaired_under_real_ecc(
        scheme in prop::sample::select(vec![EccScheme::Secded, EccScheme::Chipkill]),
        elem in 0usize..512,
        bit in 0u32..64,
    ) {
        let cfg = SystemConfig::default();
        let mut rt = EccRuntime::new(&cfg);
        let (id, _) = rt.malloc_ecc("v", 4096, scheme).unwrap();
        let data: Vec<f64> = (0..512).map(|i| i as f64 * 0.25 - 17.0).collect();
        rt.store_f64(id, &data).unwrap();
        rt.inject_element_bit(id, elem, bit);
        let (back, o) = rt.load_f64(id, 512, 0.0).unwrap();
        prop_assert_eq!(back, data);
        let corrected = matches!(o, EccOutcome::Corrected { .. });
        prop_assert!(corrected);
    }

    // ----- frame allocator ---------------------------------------------

    #[test]
    fn frame_allocator_conserves_frames(ops in prop::collection::vec(1u64..64, 1..40)) {
        use abft_coop::abft_coop_runtime::FrameAllocator;
        let total_bytes = 1u64 << 22; // 1024 frames
        let mut alloc = FrameAllocator::new(total_bytes);
        let total = alloc.total_frames();
        let mut live = Vec::new();
        for (k, pages) in ops.iter().enumerate() {
            if k % 3 == 2 && !live.is_empty() {
                let run = live.swap_remove(k % live.len());
                alloc.free(run);
            } else if let Some(run) = alloc.alloc(pages * 4096) {
                live.push(run);
            }
        }
        let live_frames: u64 = live.iter().map(|r| r.frames).sum();
        prop_assert_eq!(alloc.free_frames() + live_frames, total);
        // Runs never overlap.
        let mut spans: Vec<(u64, u64)> =
            live.iter().map(|r| (r.first_frame, r.first_frame + r.frames)).collect();
        spans.sort();
        for w in spans.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlapping runs {:?}", spans);
        }
    }

    // ----- fault models -------------------------------------------------

    #[test]
    fn mttf_monotone_in_rate_capacity_and_nodes(
        fr in 1.0f64..10_000.0,
        mbit in 1.0f64..1e6,
        nodes in 1u64..100_000,
    ) {
        use abft_coop::abft_faultsim::{mttf_seconds};
        let m = mttf_seconds(fr, mbit, 1.0, nodes);
        prop_assert!(m > 0.0);
        prop_assert!(mttf_seconds(fr * 2.0, mbit, 1.0, nodes) < m);
        prop_assert!(mttf_seconds(fr, mbit * 2.0, 1.0, nodes) < m);
        prop_assert!(mttf_seconds(fr, mbit, 1.0, nodes * 2) < m);
    }

    #[test]
    fn threshold_balances_loss_and_benefit(
        tc in 0.01f64..100.0,
        tau_are in 0.0f64..0.2,
        extra in 0.01f64..0.5,
        t0 in 10.0f64..10_000.0,
    ) {
        use abft_coop::abft_faultsim::{mttf_threshold_time, performance_benefit, recovery_time_loss};
        let tau_ase = tau_are + extra;
        let thr = mttf_threshold_time(tc, tau_ase, tau_are);
        let loss = recovery_time_loss(t0, tau_are, thr, tc);
        let benefit = performance_benefit(t0, tau_ase, tau_are);
        prop_assert!((loss - benefit).abs() <= 1e-9 * benefit.abs().max(1.0));
    }

    // ----- packed trace encoding -----------------------------------------

    #[test]
    fn packed_encoding_round_trips_any_kernel_workload(
        kind_idx in 0usize..4,
        tiles in 1usize..4,
        nb in prop::sample::select(vec![32usize, 64]),
        grid in 32usize..80,
        iterations in 1usize..3,
        abft_bit in 0u8..2,
    ) {
        use abft_coop::abft_memsim::workloads::{
            CgParams, CholeskyParams, DgemmParams, HplParams, KernelParams,
        };
        use abft_coop::abft_memsim::{Access, Trace};
        let n = nb * tiles;
        let abft = abft_bit == 1;
        let params = match kind_idx {
            0 => KernelParams::Dgemm(DgemmParams { n, nb, abft, verify_interval: 2 }),
            1 => KernelParams::Cholesky(CholeskyParams { n, nb, abft }),
            2 => KernelParams::Cg(CgParams { grid, iterations, abft, verify_interval: 2 }),
            _ => KernelParams::Hpl(HplParams { n, nb, abft }),
        };
        let built = Trace::from_source(&mut params.stream());
        let packed = std::sync::Arc::new(params.build_packed());
        prop_assert_eq!(packed.len(), built.accesses.len() as u64);
        prop_assert_eq!(packed.instructions(), built.instructions);
        prop_assert!(packed.packed_bytes() <= packed.len() * std::mem::size_of::<Access>() as u64);
        let back = Trace::from_source(&mut packed.replay());
        prop_assert_eq!(&back.accesses, &built.accesses);
        prop_assert_eq!(back.instructions, built.instructions);
        prop_assert_eq!(back.regions.regions(), built.regions.regions());
    }

    // ----- dram address map ---------------------------------------------

    #[test]
    fn address_map_bijective(line in 0u64..100_000_000) {
        use abft_coop::abft_memsim::AddressMap;
        let map = AddressMap::new(&SystemConfig::default());
        let paddr = line * 64;
        prop_assert_eq!(map.encode(&map.decode(paddr)), paddr);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ----- multi-error checksums ----------------------------------------

    #[test]
    fn multichecksum_corrects_any_double_error(
        rows in 8usize..64,
        seed in 0u64..500,
        r1_frac in 0.0f64..1.0,
        r2_frac in 0.0f64..1.0,
        d1 in prop::sample::select(vec![-1e4, -3.5, 0.25, 7.0, 2e3]),
        d2 in prop::sample::select(vec![-50.0, -0.125, 1.0, 9.75, 4e2]),
    ) {
        use abft_coop::abft_kernels::multichecksum::MultiChecksums;
        let r1 = ((rows - 1) as f64 * r1_frac) as usize;
        let r2 = ((rows - 1) as f64 * r2_frac) as usize;
        prop_assume!(r1 != r2);
        let m0 = abft_coop::abft_linalg::gen::random_matrix(rows, 1, seed);
        let chk = MultiChecksums::encode(&m0, rows);
        let mut m = m0.clone();
        m[(r1, 0)] += d1;
        m[(r2, 0)] += d2;
        let (fixed, bad) = chk.examine_and_correct(&mut m);
        prop_assert_eq!(bad, 0);
        prop_assert_eq!(fixed, 2);
        prop_assert!(m.approx_eq(&m0, 1e-7, 1e-7));
    }

    // ----- generic RS codes ----------------------------------------------

    #[test]
    fn rs_corrects_single_symbol_for_any_geometry(
        data_len in 4usize..64,
        check in 3usize..6,
        idx_frac in 0.0f64..1.0,
        pattern in 1u8..=255,
        seed: u8,
    ) {
        use abft_coop::abft_ecc::rs;
        let mut clean: Vec<u8> = (0..data_len)
            .map(|i| seed.wrapping_add((i as u8).wrapping_mul(53)))
            .collect();
        clean.resize(data_len + check, 0);
        rs::encode(&mut clean, check);
        let idx = ((clean.len() - 1) as f64 * idx_frac) as usize;
        let mut bad = clean.clone();
        bad[idx] ^= pattern;
        let o = rs::decode_in_place(&mut bad, check);
        let corrected = matches!(o, abft_coop::abft_ecc::EccOutcome::Corrected { .. });
        prop_assert!(corrected);
        prop_assert_eq!(bad, clean);
    }

    // ----- factorization round trips --------------------------------------

    #[test]
    fn cholesky_reconstructs_for_any_blocking(
        n_blocks in 1usize..6,
        block in prop::sample::select(vec![4usize, 8, 16]),
        seed in 0u64..200,
    ) {
        use abft_coop::abft_linalg::{cholesky_blocked, gemm, Trans, Matrix};
        let n = n_blocks * block;
        let a = abft_coop::abft_linalg::gen::random_spd(n, seed);
        let mut l = a.clone();
        cholesky_blocked(&mut l, block).expect("SPD");
        let mut rec = Matrix::zeros(n, n);
        gemm(1.0, &l, Trans::No, &l, Trans::Yes, 0.0, &mut rec);
        prop_assert!(rec.approx_eq(&a, 1e-8, 1e-8));
    }

    #[test]
    fn lu_solves_for_any_blocking(
        n_blocks in 1usize..6,
        block in prop::sample::select(vec![4usize, 8, 16]),
        seed in 0u64..200,
    ) {
        use abft_coop::abft_linalg::lu_blocked;
        let n = n_blocks * block;
        let a = abft_coop::abft_linalg::gen::random_diag_dominant(n, seed);
        let x_true = abft_coop::abft_linalg::gen::random_vector(n, seed + 1);
        let b = a.matvec(&x_true);
        let f = lu_blocked(a, block).expect("diag dominant");
        let x = f.solve(&b);
        for i in 0..n {
            prop_assert!((x[i] - x_true[i]).abs() < 1e-6, "x[{}]", i);
        }
    }

    // ----- ft-kernels under random single strikes --------------------------

    #[test]
    fn ft_dgemm_survives_any_single_strike(
        seed in 0u64..100,
        panel_hit in 0usize..4,
        elem_frac in 0.0f64..1.0,
        magnitude in prop::sample::select(vec![1e-1, 10.0, 1e6]),
    ) {
        use abft_coop::prelude::*;
        let n = 32;
        let a = abft_coop::abft_linalg::gen::random_matrix(n, n, seed);
        let b = abft_coop::abft_linalg::gen::random_matrix(n, n, seed + 1000);
        let reference = abft_coop::abft_linalg::matmul(&a, &b);
        let e = ((n * n - 1) as f64 * elem_frac) as usize;
        let r = ft_dgemm_with(
            &a,
            &b,
            &FtDgemmOptions { panel: 8, verify_interval: 1, mode: VerifyMode::Full },
            |p, cf| {
                if p == panel_hit {
                    let (i, j) = (e % n, e / n);
                    cf[(i, j)] += magnitude;
                }
            },
        );
        prop_assert!(r.c.approx_eq(&reference, 1e-7, 1e-7));
        prop_assert!(r.stats.corrections >= 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // ----- x8 chipkill -------------------------------------------------

    #[test]
    fn chipkill_x8_single_chip_guarantee(
        seed: u8,
        chip in 0usize..19,
        pattern in 1u8..=255,
    ) {
        use abft_coop::abft_ecc::chipkill_x8 as x8;
        let mut data = [0u8; 16];
        for (i, d) in data.iter_mut().enumerate() {
            *d = seed.wrapping_add((i as u8).wrapping_mul(71));
        }
        let clean = x8::encode_word(&data);
        let mut bad = clean;
        x8::inject_chip_error(&mut bad, chip, pattern);
        let (fixed, o) = x8::decode_word(&bad);
        prop_assert_eq!(fixed, clean);
        let corrected = matches!(o, abft_coop::abft_ecc::EccOutcome::Corrected { .. });
        prop_assert!(corrected);
    }

    // ----- range registers follow the allocation table -------------------

    #[test]
    fn range_registers_follow_any_malloc_assign_free_sequence(
        ops in prop::collection::vec(0u64..3 * 3 * 8 * 8, 1..48),
    ) {
        use abft_coop::abft_coop_runtime::PAGE_BYTES;
        // 96 frames and allocations of 1-8 pages: memory and the eight
        // register pairs both run out, so the `Err` paths are walked too.
        const FRAMES: u64 = 96;
        let cfg = SystemConfig { capacity_bytes: FRAMES * PAGE_BYTES, ..Default::default() };
        let mut rt = EccRuntime::new(&cfg);
        let schemes = [EccScheme::None, EccScheme::Secded, EccScheme::Chipkill];
        let mut live = Vec::new();
        let state = |rt: &EccRuntime, live: &[_]| {
            let schemes: Vec<_> = live.iter().map(|&id| rt.scheme_of(id)).collect();
            (rt.controller.ranges().to_vec(), schemes)
        };
        for op in ops {
            let (kind, scheme) = (op % 3, schemes[(op / 3 % 3) as usize]);
            let (pages, pick) = (op / 9 % 8 + 1, (op / 72) as usize);
            let before = state(&rt, &live);
            let result = match kind {
                0 => rt.malloc_ecc("v", pages * PAGE_BYTES, scheme).map(|(id, _)| live.push(id)),
                _ if live.is_empty() => Ok(()),
                1 => rt.assign_ecc(live[pick % live.len()], scheme),
                _ => {
                    let id = live[pick % live.len()];
                    rt.free_ecc(id).map(|()| live.retain(|&l| l != id))
                }
            };
            if result.is_err() {
                // A failed call leaves no mark.
                prop_assert_eq!(before, state(&rt, &live));
            }
            prop_assert_eq!(common::mc_disagreement(&rt, FRAMES), None);
            for &id in &live {
                let vaddr = rt.vaddr_of(id).expect("live");
                prop_assert_eq!(rt.scheme_of(id), rt.page_table.ecc_of(vaddr));
            }
        }
        // Frame conservation: ends of merged runs first (a middle can need
        // a ninth pair), until everything is free and one allocation can
        // take the whole memory again.
        while !live.is_empty() {
            let n = live.len();
            live.retain(|&id| rt.free_ecc(id).is_err());
            prop_assert!(live.len() < n, "no allocation could be freed");
        }
        prop_assert!(rt.controller.ranges().is_empty());
        prop_assert!(rt.malloc_ecc("all", FRAMES * PAGE_BYTES, EccScheme::Secded).is_ok());
    }

    // ----- checkpoint model ----------------------------------------------

    #[test]
    fn daly_interval_is_locally_optimal(
        c in 10.0f64..600.0,
        r in 0.0f64..1200.0,
        mttf in 600.0f64..1e6,
    ) {
        use abft_coop::abft_analysis::checkpoint::{checkpoint_overhead, daly_interval};
        let opt = daly_interval(c, mttf);
        let at = checkpoint_overhead(c, r, mttf, opt);
        prop_assert!(checkpoint_overhead(c, r, mttf, opt * 1.3) >= at - 1e-12);
        prop_assert!(checkpoint_overhead(c, r, mttf, opt / 1.3) >= at - 1e-12);
    }
}
