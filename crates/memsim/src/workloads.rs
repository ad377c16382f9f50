//! Kernel trace generators: the stand-in for Pin-instrumented runs.
//!
//! Each generator replays the blocked loop nest of one ABFT kernel at
//! cache-line granularity, tagging every reference with the data structure
//! it belongs to and whether that structure is ABFT protected — the same
//! classification the paper derives from its Pin traces (Table 4). The
//! paper simulates "a few iterations or representative computation phases"
//! of each kernel; these generators do exactly that, at dimensions scaled
//! so the working sets stress the 8 MB L2 the way the paper's 3000x3000
//! (dp) inputs stress theirs.
//!
//! Generators are *streaming*: each kernel is split into a region layout
//! plus a step emitter (one outer-loop iteration — a k-panel for the
//! factorizations, a CG iteration) that writes into any
//! [`AccessSink`]. [`KernelParams::stream`] wraps the steps as a resumable
//! [`AccessSource`] that never materializes more than one step;
//! [`KernelParams::emit_into`] runs the *same* step emitters straight into
//! any sink — the L1 → L2 walker, or packed storage
//! ([`KernelParams::build_packed`]) — so every form produces the same
//! reference sequence by construction (and tests hold them to it).
//!
//! ABFT-protected structures per kernel (Section 2.1):
//! * FT-DGEMM — the encoded matrices `A^c`, `B^c` and the result `C^f`.
//! * FT-Cholesky — the in-place matrix `A` (and thus `L`).
//! * FT-CG — the vectors `r, p, q, x, b` (not the operator `A` or the
//!   preconditioner `M`).
//! * FT-HPL — the in-place matrix `A` (and thus `U`), with row checksums.

use crate::packed::{PackedBuilder, PackedTrace};
use crate::stream::{AccessSink, AccessSource};
use crate::trace::{Access, RegionId, RegionMap};

const LINE: u64 = 64;
const F64: u64 = 8;

/// Effective floating-point operations retired per core cycle when the
/// kernel's inner loops are vectorized (SSE/AVX + FMA on the paper's-era
/// Xeon): flop counts are divided by this to produce the `work`
/// (instruction) annotations of the trace.
pub const FLOPS_PER_CYCLE: u64 = 8;

/// Convert a flop count into trace work-instructions.
#[inline]
fn w(flops: u64) -> u64 {
    flops / FLOPS_PER_CYCLE
}

/// Which of the four paper kernels a trace models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelKind {
    /// Fault-tolerant general matrix multiply (fail-continue).
    Dgemm,
    /// Fault-tolerant Cholesky factorization (fail-continue).
    Cholesky,
    /// Fault-tolerant preconditioned CG (fail-continue).
    Cg,
    /// Fault-tolerant High Performance Linpack (fail-stop).
    Hpl,
}

impl KernelKind {
    /// All four kernels in the paper's presentation order.
    pub const ALL: [KernelKind; 4] =
        [KernelKind::Dgemm, KernelKind::Cholesky, KernelKind::Cg, KernelKind::Hpl];

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Dgemm => "FT-DGEMM",
            KernelKind::Cholesky => "FT-Cholesky",
            KernelKind::Cg => "FT-CG",
            KernelKind::Hpl => "FT-HPL",
        }
    }
}

/// IDs of the ABFT-protected regions in a registry (what `malloc_ecc`
/// covers).
pub fn abft_region_ids(regions: &RegionMap) -> Vec<RegionId> {
    regions
        .regions()
        .iter()
        .enumerate()
        .filter(|(_, r)| r.abft_protected)
        .map(|(i, _)| i as RegionId)
        .collect()
}

// ---------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------

/// Touch the lines of a `rows x cols` tile of a column-major matrix region
/// whose full leading dimension is `ld` elements. `work_total` instructions
/// are spread across the touches.
#[expect(
    clippy::too_many_arguments,
    reason = "a tile is its region, placement, shape and work; a struct would only rename them"
)]
fn touch_tile<S: AccessSink + ?Sized>(
    t: &mut S,
    region: RegionId,
    base: u64,
    ld: u64,
    row0: u64,
    col0: u64,
    rows: u64,
    cols: u64,
    write: bool,
    work_total: u64,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    let lines_per_col = (rows * F64).div_ceil(LINE).max(1);
    let total = lines_per_col * cols;
    let per = (work_total / total) as u32;
    for j in 0..cols {
        let col_addr = base + ((col0 + j) * ld + row0) * F64;
        t.emit_lines(col_addr & !(LINE - 1), region, write, per, lines_per_col);
    }
}

// ---------------------------------------------------------------------
// FT-DGEMM
// ---------------------------------------------------------------------

/// FT-DGEMM trace parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DgemmParams {
    /// Matrix dimension (square).
    pub n: usize,
    /// Tile size.
    pub nb: usize,
    /// Include ABFT checksum/verification traffic.
    pub abft: bool,
    /// Verify the checksum relationship every `verify_interval` k-panels.
    pub verify_interval: usize,
}

impl Default for DgemmParams {
    fn default() -> Self {
        DgemmParams { n: 960, nb: 64, abft: true, verify_interval: 4 }
    }
}

impl DgemmParams {
    /// The paper's Table 3 problem (3000x3000 per task, rounded to the
    /// tile size). The trace runs to ~10^8 references — minutes per
    /// simulation; the scaled default reproduces the same cache pressure
    /// in seconds.
    pub fn paper_scale() -> Self {
        DgemmParams { n: 3008, nb: 64, abft: true, verify_interval: 4 }
    }
}

#[derive(Debug)]
struct DgemmLayout {
    regions: RegionMap,
    ra: RegionId,
    rb: RegionId,
    rc: RegionId,
    re: RegionId,
    rw: RegionId,
    ba: u64,
    bb: u64,
    bc: u64,
    be: u64,
    bw: u64,
}

fn dgemm_layout(p: &DgemmParams) -> DgemmLayout {
    let (n, nb) = (p.n as u64, p.nb as u64);
    assert!(n % nb == 0, "n must be a multiple of nb");
    // A^c is (n+1) x n (column checksum row), B^c is n x (n+1), C^f is
    // (n+1) x (n+1).
    let lda = n + 1;
    let ldc = n + 1;
    let mut rm = RegionMap::new();
    let ra = rm.alloc("matrix_a", lda * n * F64, true);
    let rb = rm.alloc("matrix_b", n * (n + 1) * F64, true);
    let rc = rm.alloc("matrix_c", ldc * (n + 1) * F64, true);
    let re = rm.alloc("checksum_e", (n + 1) * F64, false);
    let rw = rm.alloc("verify_workspace", (n + 1) * F64 * 4, false);
    let (ba, bb, bc, be, bw) =
        (rm.get(ra).base, rm.get(rb).base, rm.get(rc).base, rm.get(re).base, rm.get(rw).base);
    DgemmLayout { regions: rm, ra, rb, rc, re, rw, ba, bb, bc, be, bw }
}

/// One k-panel of the outer-product `C^f = A^c B^c`, with the periodic
/// checksum verification when the panel index hits the interval.
fn dgemm_step<S: AccessSink + ?Sized>(p: &DgemmParams, l: &DgemmLayout, kt: u64, t: &mut S) {
    let (n, nb) = (p.n as u64, p.nb as u64);
    let nt = n / nb;
    let lda = n + 1;
    let ldc = n + 1;
    let tile_flops = 2 * nb * nb * nb;

    for jt in 0..nt {
        // B tile (kt, jt) loaded once per (kt, jt).
        touch_tile(t, l.rb, l.bb, n, kt * nb, jt * nb, nb, nb, false, 0);
        for it in 0..nt {
            // A tile (it, kt); the checksum row rides along in the last
            // row tile.
            let arows = if it == nt - 1 { nb + 1 } else { nb };
            touch_tile(t, l.ra, l.ba, lda, it * nb, kt * nb, arows, nb, false, 0);
            // C tile (it, jt): read-modify-write carries the flops.
            touch_tile(t, l.rc, l.bc, ldc, it * nb, jt * nb, arows, nb, false, w(tile_flops / 2));
            touch_tile(t, l.rc, l.bc, ldc, it * nb, jt * nb, arows, nb, true, w(tile_flops / 2));
        }
    }
    // Periodic verification (the expensive part of fail-continue ABFT):
    // recompute column sums of C and compare with the checksum row.
    if p.abft && (kt + 1).is_multiple_of(p.verify_interval as u64) {
        t.emit_span(l.re, l.be, (n + 1) * F64, false, 0);
        touch_tile(t, l.rc, l.bc, ldc, 0, 0, n + 1, n + 1, false, w(2 * (n + 1) * (n + 1)));
        t.emit_span(l.rw, l.bw, (n + 1) * F64 * 4, true, 0);
        t.emit_span(l.rw, l.bw, (n + 1) * F64 * 4, false, (n + 1) * 2);
    }
}

// ---------------------------------------------------------------------
// FT-Cholesky
// ---------------------------------------------------------------------

/// FT-Cholesky trace parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CholeskyParams {
    /// Matrix dimension.
    pub n: usize,
    /// Panel width.
    pub nb: usize,
    /// Include checksum maintenance + per-step verification traffic.
    pub abft: bool,
}

impl Default for CholeskyParams {
    fn default() -> Self {
        CholeskyParams { n: 1536, nb: 64, abft: true }
    }
}

impl CholeskyParams {
    /// The paper's Table 3 problem size (see [`DgemmParams::paper_scale`]).
    pub fn paper_scale() -> Self {
        CholeskyParams { n: 3008, nb: 64, abft: true }
    }
}

#[derive(Debug)]
struct CholeskyLayout {
    regions: RegionMap,
    ra: RegionId,
    rws: RegionId,
    rinfo: RegionId,
    ba: u64,
    bws: u64,
    binfo: u64,
}

fn cholesky_layout(p: &CholeskyParams) -> CholeskyLayout {
    let (n, nb) = (p.n as u64, p.nb as u64);
    assert!(n % nb == 0, "n must be a multiple of nb");
    let nt = n / nb;
    // Checksums: two extra rows per block column (sum + weighted sum),
    // stored in a strip appended below the matrix.
    let chk_rows = 2 * nt;
    let lda = n + chk_rows;
    let mut rm = RegionMap::new();
    let ra = rm.alloc("matrix_a", lda * n * F64, true);
    // The packed panel every ScaLAPACK-style implementation broadcasts to
    // the process column/row before the trailing update.
    let rws = rm.alloc("panel_broadcast", (nb * n) * F64, false);
    let rinfo = rm.alloc("step_info", 4096, false);
    let (ba, bws, binfo) = (rm.get(ra).base, rm.get(rws).base, rm.get(rinfo).base);
    CholeskyLayout { regions: rm, ra, rws, rinfo, ba, bws, binfo }
}

/// One k-panel of the right-looking blocked factorization (Section 2.1's
/// 4-step iteration: potf2, trsm, syrk update, verify).
fn cholesky_step<S: AccessSink + ?Sized>(
    p: &CholeskyParams,
    l: &CholeskyLayout,
    kt: u64,
    t: &mut S,
) {
    let (n, nb) = (p.n as u64, p.nb as u64);
    let nt = n / nb;
    let chk_rows = 2 * nt;
    let lda = n + chk_rows;

    let k = kt * nb;
    let rest = n - k - nb;
    // (1) potf2 on A11: approximated as 2 read+write sweeps carrying
    // the nb^3/3 flops.
    let potf2_flops = nb * nb * nb / 3;
    touch_tile(t, l.ra, l.ba, lda, k, k, nb, nb, false, w(potf2_flops / 2));
    touch_tile(t, l.ra, l.ba, lda, k, k, nb, nb, true, w(potf2_flops / 2));

    if rest > 0 {
        // (2) TRSM over the panel against L11.
        let trsm_flops = nb * nb * rest;
        touch_tile(t, l.ra, l.ba, lda, k, k, nb, nb, false, 0);
        touch_tile(t, l.ra, l.ba, lda, k + nb, k, rest, nb, false, 0);
        touch_tile(t, l.ra, l.ba, lda, k + nb, k, rest, nb, true, w(trsm_flops));
        // Pack + broadcast the factored panel (write once, read once
        // by the update sweep).
        touch_tile(t, l.ra, l.ba, lda, k + nb, k, rest, nb, false, 0);
        t.emit_span(l.rws, l.bws, (nb * (rest + nb)) * F64, true, 0);
        t.emit_span(l.rws, l.bws, (nb * (rest + nb)) * F64, false, 0);

        // (3) SYRK trailing update, tile by tile (lower triangle).
        let rt = rest / nb;
        let tile_flops = 2 * nb * nb * nb;
        for jt in 0..rt {
            for it in jt..rt {
                touch_tile(t, l.ra, l.ba, lda, k + nb + it * nb, k, nb, nb, false, 0);
                touch_tile(t, l.ra, l.ba, lda, k + nb + jt * nb, k, nb, nb, false, 0);
                let (r0, c0) = (k + nb + it * nb, k + nb + jt * nb);
                touch_tile(t, l.ra, l.ba, lda, r0, c0, nb, nb, false, w(tile_flops / 2));
                touch_tile(t, l.ra, l.ba, lda, r0, c0, nb, nb, true, w(tile_flops / 2));
            }
        }
    }

    if p.abft {
        // Per-step verification: recompute column sums of the current
        // panel and compare against the checksum strip.
        let h = n - k;
        touch_tile(t, l.ra, l.ba, lda, k, k, h, nb, false, w(2 * h * nb));
        touch_tile(t, l.ra, l.ba, lda, n, k, chk_rows, nb, false, 0);
        touch_tile(t, l.ra, l.ba, lda, n, k, chk_rows, nb, true, 0);
        t.emit_span(l.rinfo, l.binfo, 256, true, 64);
    }
}

// ---------------------------------------------------------------------
// FT-CG
// ---------------------------------------------------------------------

/// FT-CG trace parameters (5-point Poisson operator on a `grid x grid`
/// mesh — the low-locality, memory-intensive workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CgParams {
    /// Grid edge; the system dimension is `grid * grid`.
    pub grid: usize,
    /// Iterations to trace.
    pub iterations: usize,
    /// Include the Online-ABFT invariant verification traffic.
    pub abft: bool,
    /// Verify every `verify_interval` iterations.
    pub verify_interval: usize,
}

impl Default for CgParams {
    fn default() -> Self {
        CgParams { grid: 512, iterations: 10, abft: true, verify_interval: 4 }
    }
}

impl CgParams {
    /// A grid matching the paper's 3000x3000-operator memory footprint.
    pub fn paper_scale() -> Self {
        CgParams { grid: 1024, iterations: 10, abft: true, verify_interval: 4 }
    }
}

#[derive(Debug)]
struct CgLayout {
    regions: RegionMap,
    rvals: RegionId,
    rcols: RegionId,
    rm_diag: RegionId,
    rz: RegionId,
    rr: RegionId,
    rp: RegionId,
    rq: RegionId,
    rx: RegionId,
    rb: RegionId,
    bvals: u64,
    bcols: u64,
    bm: u64,
    bz: u64,
    br: u64,
    bp: u64,
    bq: u64,
    bx: u64,
    bb: u64,
}

fn cg_layout(p: &CgParams) -> CgLayout {
    let g = p.grid as u64;
    let n = g * g;
    let nnz = 5 * n; // 5-point stencil upper bound
    let mut rm = RegionMap::new();
    // The operator values and preconditioner are not ECC-relaxed, but
    // errors in them propagate into the checked vectors and are therefore
    // ABFT-*detectable* ("they can also be used to detect errors in M and
    // p", Section 2.1) — the Table 4 classification counts them as blocks
    // with ABFT protection.
    let rvals = rm.alloc_with("csr_values", nnz * F64, false, true);
    let rcols = rm.alloc("csr_colidx", nnz * 4, false);
    let rm_diag = rm.alloc_with("precond_m", n * F64, false, true);
    let rz = rm.alloc("vector_z", n * F64, false);
    let rr = rm.alloc("vector_r", n * F64, true);
    let rp = rm.alloc("vector_p", n * F64, true);
    let rq = rm.alloc("vector_q", n * F64, true);
    let rx = rm.alloc("vector_x", n * F64, true);
    let rb = rm.alloc("vector_b", n * F64, true);
    let b_of = |rm: &RegionMap, id: RegionId| rm.get(id).base;
    let (bvals, bcols, bm, bz, br, bp, bq, bx, bb) = (
        b_of(&rm, rvals),
        b_of(&rm, rcols),
        b_of(&rm, rm_diag),
        b_of(&rm, rz),
        b_of(&rm, rr),
        b_of(&rm, rp),
        b_of(&rm, rq),
        b_of(&rm, rx),
        b_of(&rm, rb),
    );
    CgLayout {
        regions: rm,
        rvals,
        rcols,
        rm_diag,
        rz,
        rr,
        rp,
        rq,
        rx,
        rb,
        bvals,
        bcols,
        bm,
        bz,
        br,
        bp,
        bq,
        bx,
        bb,
    }
}

/// One SpMV: stream vals+cols, gather from `src` along the stencil's
/// three bands (center row with strong locality, +/- grid neighbours),
/// write `dst`.
#[expect(
    clippy::too_many_arguments,
    reason = "one SpMV is its layout, grid, operands and work; a struct would only rename them"
)]
fn cg_spmv<S: AccessSink + ?Sized>(
    t: &mut S,
    l: &CgLayout,
    n: u64,
    g: u64,
    src: RegionId,
    bsrc: u64,
    dst: RegionId,
    bdst: u64,
) {
    let rows_per_line = LINE / F64;
    let mut i = 0u64;
    while i < n {
        let voff = (i * 5 * F64) & !(LINE - 1);
        t.emit_lines(l.bvals + voff, l.rvals, false, 2, 5);
        let coff = (i * 5 * 4) & !(LINE - 1);
        t.emit_lines(l.bcols + coff, l.rcols, false, 0, 3);
        t.emit(bsrc + i * F64, src, false, 2);
        if i >= g {
            t.emit(bsrc + (i - g) * F64, src, false, 2);
        }
        if i + g < n {
            t.emit(bsrc + (i + g) * F64, src, false, 2);
        }
        t.emit(bdst + i * F64, dst, true, 10);
        i += rows_per_line;
    }
}

/// A BLAS-1 pass over one vector region.
fn cg_pass<S: AccessSink + ?Sized>(
    t: &mut S,
    r: RegionId,
    base: u64,
    n: u64,
    write: bool,
    work_per_line: u64,
) {
    t.emit_span(r, base, n * F64, write, work_per_line * (n * F64).div_ceil(LINE));
}

/// One FT-CG iteration following the paper's Figure 1 line by line.
fn cg_step<S: AccessSink + ?Sized>(p: &CgParams, l: &CgLayout, it: u64, t: &mut S) {
    let g = p.grid as u64;
    let n = g * g;

    // line 3: q = A p
    cg_spmv(t, l, n, g, l.rp, l.bp, l.rq, l.bq);
    // line 4: alpha = rho / p.q
    cg_pass(t, l.rp, l.bp, n, false, 4);
    cg_pass(t, l.rq, l.bq, n, false, 4);
    // line 5: x += alpha p
    cg_pass(t, l.rp, l.bp, n, false, 2);
    cg_pass(t, l.rx, l.bx, n, false, 2);
    cg_pass(t, l.rx, l.bx, n, true, 2);
    // line 6: r -= alpha q
    cg_pass(t, l.rq, l.bq, n, false, 2);
    cg_pass(t, l.rr, l.br, n, false, 2);
    cg_pass(t, l.rr, l.br, n, true, 2);
    // line 7: z = M^{-1} r
    cg_pass(t, l.rr, l.br, n, false, 2);
    cg_pass(t, l.rm_diag, l.bm, n, false, 2);
    cg_pass(t, l.rz, l.bz, n, true, 2);
    // line 8: rho = r.z
    cg_pass(t, l.rr, l.br, n, false, 4);
    cg_pass(t, l.rz, l.bz, n, false, 4);
    // line 10: p = z + beta p
    cg_pass(t, l.rz, l.bz, n, false, 2);
    cg_pass(t, l.rp, l.bp, n, false, 2);
    cg_pass(t, l.rp, l.bp, n, true, 2);
    // line 11: convergence check ||r||
    cg_pass(t, l.rr, l.br, n, false, 4);

    // Online-ABFT verification (Equation 1): r + A x =? b — one extra
    // SpMV on x plus passes over r and b.
    if p.abft && (it + 1).is_multiple_of(p.verify_interval as u64) {
        cg_spmv(t, l, n, g, l.rx, l.bx, l.rq, l.bq);
        cg_pass(t, l.rr, l.br, n, false, 2);
        cg_pass(t, l.rb, l.bb, n, false, 2);
    }
}

// ---------------------------------------------------------------------
// FT-HPL
// ---------------------------------------------------------------------

/// FT-HPL trace parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HplParams {
    /// Local matrix dimension (one of the paper's 4 MPI tasks is traced).
    pub n: usize,
    /// Panel width.
    pub nb: usize,
    /// Include row-checksum maintenance traffic.
    pub abft: bool,
}

impl Default for HplParams {
    fn default() -> Self {
        HplParams { n: 1152, nb: 64, abft: true }
    }
}

impl HplParams {
    /// The paper's 8192x8192 HPL problem (one of the 2x2 grid's tasks
    /// holds a 4096-wide share; we trace the full-problem loop nest).
    pub fn paper_scale() -> Self {
        HplParams { n: 4096, nb: 64, abft: true }
    }
}

#[derive(Debug)]
struct HplLayout {
    regions: RegionMap,
    ra: RegionId,
    rpiv: RegionId,
    rws: RegionId,
    ba: u64,
    bpiv: u64,
    bws: u64,
}

fn hpl_layout(p: &HplParams) -> HplLayout {
    let (n, nb) = (p.n as u64, p.nb as u64);
    assert!(n % nb == 0, "n must be a multiple of nb");
    // Row checksums: two extra columns (sum + weighted).
    let ncols = n + 2;
    let lda = n;
    let mut rm = RegionMap::new();
    let ra = rm.alloc("matrix_a", lda * ncols * F64, true);
    let rpiv = rm.alloc("pivot_array", n * 8, false);
    // HPL's panel broadcast buffer: the factored panel is packed, sent and
    // unpacked every step (non-ABFT runtime data).
    let rws = rm.alloc("panel_broadcast", nb * n * F64, false);
    let _rbx = rm.alloc("rhs_b", n * F64, true);
    let (ba, bpiv, bws) = (rm.get(ra).base, rm.get(rpiv).base, rm.get(rws).base);
    HplLayout { regions: rm, ra, rpiv, rws, ba, bpiv, bws }
}

/// One k-panel of blocked LU with partial pivoting and row checksums.
fn hpl_step<S: AccessSink + ?Sized>(p: &HplParams, l: &HplLayout, kt: u64, t: &mut S) {
    let (n, nb) = (p.n as u64, p.nb as u64);
    let ncols = n + 2;
    let lda = n;

    let k = kt * nb;
    let rest = n - k - nb;
    let below = n - k;

    // Panel factorization: per column, pivot search down the column,
    // one row swap across the full (checksummed) width, rank-1 update
    // inside the panel.
    for j in 0..nb {
        let col = k + j;
        touch_tile(t, l.ra, l.ba, lda, col, col, n - col, 1, false, w((n - col) * 2));
        t.emit(l.bpiv + col * 8, l.rpiv, true, 2);
        // Row swap: a row of a column-major matrix touches one line per
        // column; sample every 8th column to keep the trace volume
        // proportional to the real strided cost.
        let mut c = 0;
        while c < ncols {
            let a1 = l.ba + (c * lda + col) * F64;
            t.emit(a1 & !(LINE - 1), l.ra, true, 0);
            c += 8;
        }
        // Rank-1 update of the remaining panel columns.
        let width = k + nb - col - 1;
        if width > 0 {
            touch_tile(
                t,
                l.ra,
                l.ba,
                lda,
                col,
                col + 1,
                n - col,
                width,
                true,
                w((n - col) * width * 2),
            );
        }
    }

    if rest > 0 {
        // Pack + broadcast the factored panel (write, then read on the
        // receiving side), as HPL does between panel and update.
        touch_tile(t, l.ra, l.ba, lda, k, k, n - k, nb, false, 0);
        t.emit_span(l.rws, l.bws, (nb * (n - k)) * F64, true, 0);
        t.emit_span(l.rws, l.bws, (nb * (n - k)) * F64, false, 0);
        // U12 = L11^{-1} A12 over the row panel (incl. checksum cols).
        touch_tile(t, l.ra, l.ba, lda, k, k + nb, nb, rest + 2, false, 0);
        touch_tile(t, l.ra, l.ba, lda, k, k + nb, nb, rest + 2, true, w(nb * nb * (rest + 2)));

        // Trailing GEMM, tile by tile (checksum columns ride in the
        // last column tile via rest+2 above).
        let rt = rest / nb;
        let tile_flops = 2 * nb * nb * nb;
        for jt in 0..rt {
            for it in 0..rt {
                touch_tile(t, l.ra, l.ba, lda, k + nb + it * nb, k, nb, nb, false, 0);
                touch_tile(t, l.ra, l.ba, lda, k, k + nb + jt * nb, nb, nb, false, 0);
                let (r0, c0) = (k + nb + it * nb, k + nb + jt * nb);
                touch_tile(t, l.ra, l.ba, lda, r0, c0, nb, nb, false, w(tile_flops / 2));
                touch_tile(t, l.ra, l.ba, lda, r0, c0, nb, nb, true, w(tile_flops / 2));
            }
        }
    }

    if p.abft {
        // Maintain/verify the row-checksum columns of the trailing rows.
        touch_tile(t, l.ra, l.ba, lda, k, n, below, 2, false, w(below * 2));
        touch_tile(t, l.ra, l.ba, lda, k, n, below, 2, true, 0);
    }
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// Fully-specified workload: kernel + scale, in one hashable value.
///
/// This is the workload half of the process-wide trace cache's keys
/// ([`crate::trace_cache::TraceCache`], [`crate::trace_cache::FilterKey`]):
/// two jobs that name the same `KernelParams` under one cache geometry
/// share one filtered miss stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelParams {
    /// FT-DGEMM at the given scale.
    Dgemm(DgemmParams),
    /// FT-Cholesky at the given scale.
    Cholesky(CholeskyParams),
    /// FT-CG at the given scale.
    Cg(CgParams),
    /// FT-HPL at the given scale.
    Hpl(HplParams),
}

impl KernelParams {
    /// The default (Table-3-scaled) workload for a kernel — the basic
    /// tests' problem.
    pub fn default_for(kind: KernelKind) -> Self {
        match kind {
            KernelKind::Dgemm => KernelParams::Dgemm(DgemmParams::default()),
            KernelKind::Cholesky => KernelParams::Cholesky(CholeskyParams::default()),
            KernelKind::Cg => KernelParams::Cg(CgParams::default()),
            KernelKind::Hpl => KernelParams::Hpl(HplParams::default()),
        }
    }

    /// The paper's full Table 3 problem for a kernel.
    pub fn paper_for(kind: KernelKind) -> Self {
        match kind {
            KernelKind::Dgemm => KernelParams::Dgemm(DgemmParams::paper_scale()),
            KernelKind::Cholesky => KernelParams::Cholesky(CholeskyParams::paper_scale()),
            KernelKind::Cg => KernelParams::Cg(CgParams::paper_scale()),
            KernelKind::Hpl => KernelParams::Hpl(HplParams::paper_scale()),
        }
    }

    /// Which kernel this workload models.
    pub fn kind(self) -> KernelKind {
        match self {
            KernelParams::Dgemm(_) => KernelKind::Dgemm,
            KernelParams::Cholesky(_) => KernelKind::Cholesky,
            KernelParams::Cg(_) => KernelKind::Cg,
            KernelParams::Hpl(_) => KernelKind::Hpl,
        }
    }

    /// The paper's kernel label.
    pub fn label(self) -> &'static str {
        self.kind().label()
    }

    /// Number of outer-loop steps (k-panels for the factorizations, CG
    /// iterations) the generator is split into.
    pub fn steps(self) -> u64 {
        match self {
            KernelParams::Dgemm(p) => (p.n / p.nb) as u64,
            KernelParams::Cholesky(p) => (p.n / p.nb) as u64,
            KernelParams::Cg(p) => p.iterations as u64,
            KernelParams::Hpl(p) => (p.n / p.nb) as u64,
        }
    }

    /// A resumable stream over the kernel's reference sequence that never
    /// materializes more than one outer-loop step (the bounded-memory
    /// path).
    pub fn stream(self) -> KernelStream {
        KernelStream {
            params: self,
            layout: KernelLayout::new(self),
            steps: self.steps(),
            next_step: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// The region registry the workload's accesses refer to.
    pub fn regions(self) -> RegionMap {
        KernelLayout::new(self).regions().clone()
    }

    /// Run the kernel's step emitters, every outer-loop step in order,
    /// straight into `sink` — the whole reference stream with nothing in
    /// between: no step buffer, no chunking, no `Access` record unless the
    /// sink makes one. Into the L1 → L2 walker it is how
    /// [`crate::trace_cache::TraceCache::get_filtered`] filters a workload
    /// without holding its trace; into a [`PackedBuilder`] it is
    /// [`KernelParams::build_packed`].
    pub fn emit_into(self, sink: &mut impl AccessSink) {
        let layout = KernelLayout::new(self);
        for step in 0..self.steps() {
            emit_kernel_step(&self, &layout, step, sink);
        }
    }

    /// Generate straight into packed 8-byte storage without ever holding
    /// `Access` records ([`KernelParams::emit_into`] a
    /// [`PackedBuilder`]). The step emitters write into the packed builder
    /// directly, not through [`KernelParams::stream`]'s step buffer, so
    /// "stream == packed, access for access" checks the chunked generator
    /// against direct emission.
    pub fn build_packed(self) -> PackedTrace {
        let mut b = PackedBuilder::new(self.regions());
        self.emit_into(&mut b);
        b.finish()
    }
}

impl From<DgemmParams> for KernelParams {
    fn from(p: DgemmParams) -> Self {
        KernelParams::Dgemm(p)
    }
}

impl From<CholeskyParams> for KernelParams {
    fn from(p: CholeskyParams) -> Self {
        KernelParams::Cholesky(p)
    }
}

impl From<CgParams> for KernelParams {
    fn from(p: CgParams) -> Self {
        KernelParams::Cg(p)
    }
}

impl From<HplParams> for KernelParams {
    fn from(p: HplParams) -> Self {
        KernelParams::Hpl(p)
    }
}

// ---------------------------------------------------------------------
// Streaming generation
// ---------------------------------------------------------------------

/// A kernel's region layout: the registry plus the per-structure ids and
/// bases the step emitters index into.
#[derive(Debug)]
enum KernelLayout {
    Dgemm(DgemmLayout),
    Cholesky(CholeskyLayout),
    Cg(CgLayout),
    Hpl(HplLayout),
}

impl KernelLayout {
    fn new(p: KernelParams) -> Self {
        match p {
            KernelParams::Dgemm(p) => KernelLayout::Dgemm(dgemm_layout(&p)),
            KernelParams::Cholesky(p) => KernelLayout::Cholesky(cholesky_layout(&p)),
            KernelParams::Cg(p) => KernelLayout::Cg(cg_layout(&p)),
            KernelParams::Hpl(p) => KernelLayout::Hpl(hpl_layout(&p)),
        }
    }

    fn regions(&self) -> &RegionMap {
        match self {
            KernelLayout::Dgemm(l) => &l.regions,
            KernelLayout::Cholesky(l) => &l.regions,
            KernelLayout::Cg(l) => &l.regions,
            KernelLayout::Hpl(l) => &l.regions,
        }
    }
}

/// Emit one outer-loop step of a kernel into a sink.
fn emit_kernel_step<S: AccessSink + ?Sized>(
    p: &KernelParams,
    l: &KernelLayout,
    step: u64,
    sink: &mut S,
) {
    match (p, l) {
        (KernelParams::Dgemm(p), KernelLayout::Dgemm(l)) => dgemm_step(p, l, step, sink),
        (KernelParams::Cholesky(p), KernelLayout::Cholesky(l)) => cholesky_step(p, l, step, sink),
        (KernelParams::Cg(p), KernelLayout::Cg(l)) => cg_step(p, l, step, sink),
        (KernelParams::Hpl(p), KernelLayout::Hpl(l)) => hpl_step(p, l, step, sink),
        _ => unreachable!("kernel layout does not match its params"),
    }
}

/// Resumable streaming generator for one kernel workload: an
/// [`AccessSource`] whose backing store is a single outer-loop step
/// (a few hundred KB) rather than the full trace.
#[derive(Debug)]
pub struct KernelStream {
    params: KernelParams,
    layout: KernelLayout,
    steps: u64,
    next_step: u64,
    buf: Vec<Access>,
    pos: usize,
}

impl KernelStream {
    /// The workload this stream generates.
    pub fn params(&self) -> KernelParams {
        self.params
    }
}

impl AccessSource for KernelStream {
    fn regions(&self) -> &RegionMap {
        self.layout.regions()
    }

    fn fill(&mut self, buf: &mut Vec<Access>, max: usize) -> usize {
        buf.clear();
        while buf.len() < max {
            if self.pos == self.buf.len() {
                if self.next_step == self.steps {
                    break;
                }
                self.buf.clear();
                self.pos = 0;
                emit_kernel_step(&self.params, &self.layout, self.next_step, &mut self.buf);
                self.next_step += 1;
            }
            let take = (max - buf.len()).min(self.buf.len() - self.pos);
            buf.extend_from_slice(&self.buf[self.pos..self.pos + take]);
            self.pos += take;
        }
        buf.len()
    }

    fn reset(&mut self) {
        self.next_step = 0;
        self.buf.clear();
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    /// The workload's whole reference stream, materialized.
    fn trace_of(p: impl Into<KernelParams>) -> Trace {
        Trace::from_source(&mut p.into().stream())
    }

    fn check_addresses_in_regions(t: &Trace) {
        for a in &t.accesses {
            let r = t.regions.get(a.region);
            assert!(
                a.addr >= (r.base & !(LINE - 1)) && a.addr < r.end(),
                "access {:#x} outside region {} [{:#x}, {:#x})",
                a.addr,
                r.name,
                r.base,
                r.end()
            );
        }
    }

    #[test]
    fn paper_scale_params_exceed_basic_defaults() {
        // Table 3 problems must keep each kernel's identity and dominate
        // the quick default problems in outer-loop work.
        for kind in [KernelKind::Dgemm, KernelKind::Cholesky, KernelKind::Cg, KernelKind::Hpl] {
            let paper = KernelParams::paper_for(kind);
            let basic = KernelParams::default_for(kind);
            assert_eq!(paper.kind(), kind);
            assert_ne!(paper, basic, "{kind:?}: Table 3 must differ from the quick default");
            assert!(
                paper.steps() >= basic.steps(),
                "{kind:?}: paper {} vs default {}",
                paper.steps(),
                basic.steps()
            );
        }
    }

    #[test]
    fn dgemm_stream_structure() {
        let t = trace_of(DgemmParams { n: 256, nb: 64, abft: true, verify_interval: 2 });
        assert!(!t.is_empty());
        check_addresses_in_regions(&t);
        assert_eq!(abft_region_ids(&t.regions).len(), 3, "A, B, C");
        let abft_refs: u64 =
            t.accesses.iter().filter(|a| t.regions.get(a.region).abft_protected).count() as u64;
        let other = t.len() as u64 - abft_refs;
        assert!(abft_refs > 50 * other.max(1), "{abft_refs} vs {other}");
    }

    #[test]
    fn cholesky_stream_structure() {
        let t = trace_of(CholeskyParams { n: 256, nb: 64, abft: true });
        check_addresses_in_regions(&t);
        assert_eq!(abft_region_ids(&t.regions).len(), 1);
        assert!(t.instructions > 0);
    }

    #[test]
    fn cg_stream_structure() {
        let t = trace_of(CgParams { grid: 64, iterations: 3, abft: true, verify_interval: 2 });
        check_addresses_in_regions(&t);
        assert_eq!(abft_region_ids(&t.regions).len(), 5, "r, p, q, x, b");
        // CG is the least skewed kernel: non-ABFT operator traffic is a
        // large minority.
        let abft_refs =
            t.accesses.iter().filter(|a| t.regions.get(a.region).abft_protected).count() as f64;
        let ratio = abft_refs / (t.len() as f64 - abft_refs);
        assert!(ratio > 1.0 && ratio < 8.0, "ratio {ratio}");
    }

    #[test]
    fn hpl_stream_structure() {
        let t = trace_of(HplParams { n: 256, nb: 64, abft: true });
        check_addresses_in_regions(&t);
        assert_eq!(abft_region_ids(&t.regions).len(), 2, "matrix + rhs");
    }

    #[test]
    fn abft_off_reduces_traffic() {
        let on = trace_of(DgemmParams { n: 256, nb: 64, abft: true, verify_interval: 1 });
        let off = trace_of(DgemmParams { n: 256, nb: 64, abft: false, verify_interval: 1 });
        assert!(on.len() > off.len());
        assert!(on.instructions > off.instructions);
    }

    #[test]
    fn traces_are_deterministic() {
        let a = trace_of(CgParams { grid: 32, iterations: 2, abft: true, verify_interval: 2 });
        let b = trace_of(CgParams { grid: 32, iterations: 2, abft: true, verify_interval: 2 });
        assert_eq!(a.accesses, b.accesses);
        assert_eq!(a.instructions, b.instructions);
    }

    #[test]
    fn stream_matches_packed_for_every_kernel() {
        let workloads: [KernelParams; 4] = [
            DgemmParams { n: 192, nb: 64, abft: true, verify_interval: 2 }.into(),
            CholeskyParams { n: 192, nb: 64, abft: true }.into(),
            CgParams { grid: 48, iterations: 2, abft: true, verify_interval: 2 }.into(),
            HplParams { n: 192, nb: 64, abft: true }.into(),
        ];
        for w in workloads {
            // Direct emission: the step emitters write into the packed
            // builder, no step buffer and no chunking in between.
            let packed = std::sync::Arc::new(w.build_packed());
            let direct = Trace::from_source(&mut packed.replay());
            assert_eq!(packed.len(), direct.len() as u64);
            // Odd chunk size so chunk boundaries never line up with steps.
            let mut stream = w.stream();
            let mut streamed: Vec<Access> = Vec::new();
            let mut chunk = Vec::new();
            while stream.fill(&mut chunk, 1013) > 0 {
                streamed.extend_from_slice(&chunk);
            }
            assert_eq!(streamed, direct.accesses, "{}", w.label());
            assert_eq!(stream.regions().regions(), direct.regions.regions());
            // A rewound stream replays the identical sequence, and what it
            // retires (counted access by access) is what the builder counted.
            let again = Trace::from_source(&mut stream);
            assert_eq!(again.accesses, direct.accesses);
            assert_eq!(again.instructions, packed.instructions());
        }
    }

    /// `build_packed` hands the packed builder whole sweeps (its own
    /// `emit_lines`); the stream's step buffer takes them line by line (the
    /// provided one) and `from_source` packs access by access.
    fn assert_sweeps_pack_as_lines_do(w: KernelParams) {
        let swept = w.build_packed();
        let by_line = PackedTrace::from_source(&mut w.stream());
        assert!(swept.words().eq(by_line.words()), "{w:?}");
        assert_eq!((swept.len(), swept.instructions()), (by_line.len(), by_line.instructions()));
    }

    #[test]
    fn default_kernels_pack_the_same_words_by_sweep_and_by_line() {
        for kind in KernelKind::ALL {
            assert_sweeps_pack_as_lines_do(KernelParams::default_for(kind));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn sweep_emission_packs_the_words_line_emission_packs(
            tiles in 1usize..4,
            grid in 8usize..40,
            iterations in 1usize..3,
            verify_interval in 1usize..3,
            abft: bool,
        ) {
            let (n, nb) = (64 * tiles, 64);
            assert_sweeps_pack_as_lines_do(DgemmParams { n, nb, abft, verify_interval }.into());
            assert_sweeps_pack_as_lines_do(CholeskyParams { n, nb, abft }.into());
            assert_sweeps_pack_as_lines_do(CgParams { grid, iterations, abft, verify_interval }.into());
            assert_sweeps_pack_as_lines_do(HplParams { n, nb, abft }.into());
        }
    }

    #[test]
    fn paper_scale_presets_match_table3() {
        assert_eq!(DgemmParams::paper_scale().n, 3008);
        assert_eq!(CholeskyParams::paper_scale().n, 3008);
        assert_eq!(CgParams::paper_scale().grid, 1024);
        assert_eq!(HplParams::paper_scale().n, 4096);
        // Paper-scale working sets dwarf the default (scaled) ones.
        let d = DgemmParams::default();
        let p = DgemmParams::paper_scale();
        assert!(p.n * p.n > 9 * d.n * d.n);
    }

    #[test]
    fn default_workloads_have_llc_scale_working_sets() {
        for kind in KernelKind::ALL {
            let t = trace_of(KernelParams::default_for(kind));
            let total_bytes: u64 = t.regions.regions().iter().map(|r| r.bytes).sum();
            assert!(
                total_bytes > 8 * 1024 * 1024,
                "{} working set {} must exceed the 8MB L2",
                kind.label(),
                total_bytes
            );
            assert!(t.len() > 500_000, "{} trace too small: {}", kind.label(), t.len());
        }
    }
}
