//! Regenerates the committed golden reports under `tests/golden/`.
//!
//! The golden files pin the exact bytes of the x86 `fig6`/`smp`/`faults`
//! and `fig7`/`fig9`/`fig10` reports at reduced (test-suite) sizes, and
//! of the full `ablations` report; `tests/arch_neutrality.rs`
//! regenerates the same grids and byte-diffs against them, proving the
//! arch-layer refactor left the x86 backend's behavior untouched. Run
//! this only when an intentional behavior change lands, and commit the
//! diff alongside the change that caused it:
//!
//! ```sh
//! cargo run -p svt-bench --example golden_gen
//! ```

use svt_arch::ArchId;
use svt_bench::{
    ablations, ablations_report, faults_campaign, faults_report, fig10_report, fig10_rows,
    fig6_report, fig7_report, fig9_report, smp_report, smp_series, FAULTS_DEFAULT_SEED,
    FAULTS_MODES, SERVE_RATE_QPS,
};
use svt_core::SwitchMode;
use svt_workloads::{fig6_grid, fig7, tpcc_tpm, DEFAULT_LANE_SEED};

fn main() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).expect("create tests/golden");

    let fig6 = fig6_report(&fig6_grid(ArchId::X86, 30, 1));
    fig6.write_file(&dir.join("fig6_x86.json")).unwrap();

    let series = smp_series(
        ArchId::X86,
        &[1, 2],
        SERVE_RATE_QPS,
        60,
        DEFAULT_LANE_SEED,
        1,
    );
    let smp = smp_report(ArchId::X86, &series, DEFAULT_LANE_SEED);
    smp.write_file(&dir.join("smp_x86.json")).unwrap();

    let cells = faults_campaign(&FAULTS_MODES, &[0.0, 0.05], 60, FAULTS_DEFAULT_SEED, 1);
    let faults = faults_report(&cells, FAULTS_DEFAULT_SEED);
    faults.write_file(&dir.join("faults_x86.json")).unwrap();

    let ablations = ablations_report(&ablations());
    ablations
        .write_file(&dir.join("ablations_x86.json"))
        .unwrap();

    fig7_report(&fig7(8))
        .write_file(&dir.join("fig7_x86.json"))
        .unwrap();

    let tpm = |mode| tpcc_tpm(mode, 60, DEFAULT_LANE_SEED);
    let fig9 = fig9_report(
        tpm(SwitchMode::Baseline),
        tpm(SwitchMode::SwSvt),
        60,
        DEFAULT_LANE_SEED,
    );
    fig9.write_file(&dir.join("fig9_x86.json")).unwrap();

    fig10_report(&fig10_rows(15), 15)
        .write_file(&dir.join("fig10_x86.json"))
        .unwrap();

    println!("golden reports written to {}", dir.display());
}
