//! Table 3 analogue: code-size inventory of this reproduction.
//!
//! The paper's Table 3 reports the prototype's patch sizes (QEMU +654,
//! KVM +2432, other +227 LOC). The reproduction's equivalent is the size
//! of the SVt contribution crate relative to the substrate it modifies.

use svt_bench::{hostprof_begin, hostprof_finish, machine_json, print_header, rule, BenchCli};
use svt_obs::{Json, RunReport};

fn count_rust_loc(dir: &str) -> usize {
    fn walk(p: &std::path::Path, acc: &mut usize) {
        if let Ok(entries) = std::fs::read_dir(p) {
            for e in entries.flatten() {
                let path = e.path();
                if path.is_dir() {
                    walk(&path, acc);
                } else if path.extension().is_some_and(|x| x == "rs") {
                    if let Ok(s) = std::fs::read_to_string(&path) {
                        *acc += s.lines().count();
                    }
                }
            }
        }
    }
    let mut acc = 0;
    walk(std::path::Path::new(dir), &mut acc);
    acc
}

fn main() {
    let cli = BenchCli::parse();
    cli.handle_help("svt-bench table3 [--json r.json] [--hostprof]");
    hostprof_begin(&cli);
    cli.require_arch_x86("table3");
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
        let loc = count_rust_loc(dir);
        println!("{name:<36}{loc:>8} LOC");
        rows.push(Json::obj([
            ("crate", Json::from(name)),
            ("dir", Json::from(dir)),
            ("loc", Json::from(loc as u64)),
        ]));
    }

    let mut report = RunReport::new("table3", "Code-size inventory (Table 3 analogue)");
    report.machine = Some(machine_json());
    // A static inventory; the seed is recorded so every bench report
    // carries the same reproducibility field.
    report.results.push((
        "seed".to_string(),
        Json::from(cli.seed_or(svt_workloads::DEFAULT_LANE_SEED)),
    ));
    report.results.push(("crates".to_string(), Json::Arr(rows)));
    hostprof_finish(&cli, &mut report);
    cli.emit_report(&report);
}
