//! Table 3 analogue: code-size inventory of this reproduction.
//!
//! The paper's Table 3 reports the prototype's patch sizes (QEMU +654,
//! KVM +2432, other +227 LOC). The reproduction's equivalent is the size
//! of the SVt contribution crate relative to the substrate it modifies.
//! Crate directories resolve against the source tree this binary was
//! built from, so the count does not depend on the working directory.

use std::path::Path;

use svt_bench::{machine_json, print_header, rule, BenchCli, CliSpec, Flag};
use svt_obs::{Json, RunReport};

const CLI: CliSpec = CliSpec {
    bin: "table3",
    args: &[],
    flags: &[Flag::Json],
};

/// Lines of every `.rs` file under `dir`, recursively.
fn count_rust_loc(dir: &Path) -> std::io::Result<usize> {
    let mut acc = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            acc += count_rust_loc(&path)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            acc += std::fs::read_to_string(&path)?.lines().count();
        }
    }
    Ok(acc)
}

fn main() {
    let cli = BenchCli::parse(&CLI);
    // This crate lives at `<root>/crates/bench`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    print_header("Table 3 analogue - lines of code of this reproduction");
    println!("Paper's prototype patch: QEMU +654, Linux/KVM +2432, Linux/other +227");
    rule();
    let crates = [
        ("svt-core (the SVt contribution)", "crates/core"),
        ("svt-hv (KVM-like substrate)", "crates/hv"),
        ("svt-cpu (SMT core model)", "crates/cpu"),
        ("svt-arch (ISA-neutral arch layer)", "crates/arch"),
        ("svt-virtio", "crates/virtio"),
        ("svt-mem", "crates/mem"),
        ("svt-sim", "crates/sim"),
        ("svt-stats", "crates/stats"),
        ("svt-obs", "crates/obs"),
        ("svt-workloads", "crates/workloads"),
        ("svt-bench", "crates/bench"),
    ];
    let mut rows = Vec::new();
    for (name, dir) in crates {
        let loc = count_rust_loc(&root.join(dir)).unwrap_or_else(|e| {
            eprintln!("error: counting lines under {dir} failed: {e}");
            std::process::exit(1);
        });
        println!("{name:<36}{loc:>8} LOC");
        rows.push(Json::obj([
            ("crate", Json::from(name)),
            ("dir", Json::from(dir)),
            ("loc", Json::from(loc as u64)),
        ]));
    }

    let mut report = RunReport::new("table3", "Code-size inventory (Table 3 analogue)");
    report.machine = Some(machine_json());
    // A static inventory; the default seed is recorded so every bench
    // report carries the same reproducibility field.
    report.results.push((
        "seed".to_string(),
        Json::from(svt_workloads::DEFAULT_LANE_SEED),
    ));
    report.results.push(("crates".to_string(), Json::Arr(rows)));
    cli.emit_report(report);
}
