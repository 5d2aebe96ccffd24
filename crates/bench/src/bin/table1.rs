//! Regenerates Table 1: the time breakdown of one `cpuid` in a nested VM.

use svt_bench::{paper_report, print_header, rule, vs_paper, BenchCli, CliSpec, Flag};
use svt_obs::PartRow;

const CLI: CliSpec = CliSpec {
    bin: "table1",
    args: &[],
    flags: &[Flag::Json, Flag::Hostprof],
};

fn main() {
    let cli = BenchCli::parse(&CLI);
    print_header("Table 1 - cpuid breakdown in a nested VM (baseline)");
    let rows = svt_workloads::table1(svt_arch::ArchId::X86, 200);
    println!(
        "{:<4}{:<26}{:>34}   {:>7}",
        "Part", "Stage", "Time [us]", "Perc."
    );
    rule();
    let mut total = 0.0;
    let mut paper_total = 0.0;
    for r in &rows {
        println!(
            "{:<4}{:<26}{:>34}   {:>6.2}%",
            r.part,
            r.label,
            vs_paper(r.time_us, r.paper_us),
            r.percent
        );
        total += r.time_us;
        paper_total += r.paper_us;
    }
    rule();
    println!("{:<30}{:>34}", "Total", vs_paper(total, paper_total));

    let mut report = paper_report(
        "table1",
        "cpuid breakdown in a nested VM (Table 1)",
        svt_workloads::DEFAULT_LANE_SEED,
    );
    for r in &rows {
        report.parts.push(PartRow {
            part: r.part as u32,
            label: r.label.clone(),
            time_us: r.time_us,
            paper_us: Some(r.paper_us),
        });
    }
    cli.emit_report(report);
}
