//! Quickstart: protect a matrix multiplication with ABFT, relax its memory
//! ECC, survive an injected error, and see the energy math.
//!
//! Run with: `cargo run --release --example quickstart`

use abft_coop::abft_coop_runtime::RuntimeError;
use abft_coop::prelude::*;

fn main() -> Result<(), RuntimeError> {
    println!("== ABFT-coop quickstart ==\n");

    // 1. A fault-tolerant matrix multiplication. FT-DGEMM encodes the
    //    inputs with checksums and periodically verifies the product.
    let n = 256;
    let a = abft_coop::abft_linalg::gen::random_matrix(n, n, 1);
    let b = abft_coop::abft_linalg::gen::random_matrix(n, n, 2);
    let reference = abft_coop::abft_linalg::matmul(&a, &b);

    let result = ft_dgemm_with(
        &a,
        &b,
        &FtDgemmOptions::default(),
        // A cosmic ray strikes C mid-computation ...
        |panel, c| {
            if panel == 2 {
                c[(100, 37)] += 1.0e6;
                println!("  [injected] bit upset in C[100][37] after panel 2");
            }
        },
    );
    assert!(result.c.approx_eq(&reference, 1e-9, 1e-9));
    println!(
        "FT-DGEMM: product correct despite the strike ({} ABFT correction(s)).\n",
        result.stats.corrections
    );

    // 2. The cooperative part: allocate the protected matrix with
    //    `malloc_ecc`, relaxing its ECC because ABFT already covers it.
    let cfg = SystemConfig::default();
    let mut rt = EccRuntime::new(&cfg);
    let (_id, vaddr) = rt.malloc_ecc("matrix_c", (n * n * 8) as u64, EccScheme::None)?;
    println!(
        "malloc_ecc: matrix_c at {vaddr:#x}, pages relaxed to {} (MC range registers in use: {}).",
        EccScheme::None,
        rt.controller.ranges().len()
    );

    // 3. What does that buy? Stream the FT-DGEMM reference sequence through
    //    the simulated node once; whole chipkill and the cooperative setting
    //    are two lanes of that one pass.
    println!("\nSimulating the memory system (this takes a few seconds) ...");
    let params =
        KernelParams::Dgemm(DgemmParams { n: 768, nb: 64, abft: true, verify_interval: 4 });
    let row = run_cells(
        SimInput::Source(&mut params.stream()),
        &cfg,
        &[Strategy::WholeChipkill, Strategy::PartialChipkillSecded],
    );
    let (wck, ours) = (&row[0], &row[1]);
    println!("  whole chipkill : {:.3} J memory, IPC {:.2}", wck.mem_total_j(), wck.ipc());
    println!(
        "  cooperative    : {:.3} J memory, IPC {:.2}  ({:.0}% memory energy saved)",
        ours.mem_total_j(),
        ours.ipc(),
        (1.0 - ours.mem_total_j() / wck.mem_total_j()) * 100.0
    );
    Ok(())
}
