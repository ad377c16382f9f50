//! No false positive on clean runs at the larger sizes (the root
//! `tests/abft_detection.rs` covers n = 96 and 192).

mod common {
    pub mod clean;
}

#[test]
fn clean_runs_at_n_384_trip_no_check() {
    common::clean::every_kernel_is_silent(384, 0..20);
}

#[test]
fn clean_runs_at_n_768_trip_no_check() {
    common::clean::every_kernel_is_silent(768, 0..3);
}
