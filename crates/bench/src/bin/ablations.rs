//! Ablation benches for the design choices DESIGN.md calls out:
//! VMCS shadowing, the SW-SVt channel wait mechanism and placement, and
//! cross-context register access granularity.

use svt_bench::{ablations, ablations_report, print_header, rule, BenchCli, CliSpec, Flag};

const CLI: CliSpec = CliSpec {
    bin: "ablations",
    args: &[],
    flags: &[Flag::Json, Flag::Hostprof],
};

fn main() {
    let cli = BenchCli::parse(&CLI);
    print_header("Ablations");
    let sections = ablations();
    for s in &sections {
        println!("\n{}", s.title);
        rule();
        for (label, us) in &s.rows {
            let note = if label == "Bypass" {
                "   (3.1's level-bypass extension)"
            } else {
                ""
            };
            println!("  {label:<16}{us:>10.2} us/cpuid{note}");
        }
    }
    cli.emit_report(ablations_report(&sections));
}
