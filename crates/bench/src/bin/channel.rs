//! Regenerates the 6.1 channel study: signaling latency by mechanism,
//! placement and surrounding workload size.

use svt_bench::{paper_report, print_header, rule, BenchCli, CliSpec, Flag};
use svt_obs::Json;
use svt_sim::CostModel;
use svt_workloads::{channel_study, default_workloads, simulate_channel_round_ns, Mechanism};

const CLI: CliSpec = CliSpec {
    bin: "channel",
    args: &[],
    flags: &[Flag::Json],
};

fn main() {
    let cli = BenchCli::parse(&CLI);
    print_header("Section 6.1 - SW SVt communication-channel study");
    let cost = CostModel::default();
    let cells = channel_study(&cost, &default_workloads());
    println!(
        "{:<14}{:<14}{:>12}{:>16}{:>16}{:>20}",
        "Mechanism", "Placement", "Workload", "Latency [ns]", "Round [ns]", "Simulated rt [ns]"
    );
    rule();
    let mut cell_rows = Vec::new();
    for c in &cells {
        let simulated = if c.mechanism == Mechanism::FunctionCall {
            f64::NAN
        } else {
            simulate_channel_round_ns(&cost, c.mechanism, c.placement, c.workload_increments)
        };
        println!(
            "{:<14}{:<14}{:>12}{:>16.1}{:>16.1}{:>20.1}",
            c.mechanism.label(),
            c.placement.to_string(),
            c.workload_increments,
            c.latency_ns,
            c.round_ns,
            simulated
        );
        cell_rows.push(Json::obj([
            ("mechanism", Json::from(c.mechanism.label())),
            ("placement", Json::from(c.placement.to_string().as_str())),
            ("workload_increments", Json::from(c.workload_increments)),
            ("latency_ns", Json::Num(c.latency_ns)),
            ("round_ns", Json::Num(c.round_ns)),
            (
                "simulated_round_ns",
                if simulated.is_nan() {
                    Json::Null
                } else {
                    Json::Num(simulated)
                },
            ),
        ]));
    }
    rule();
    println!("Paper conclusions reproduced:");
    println!("  - polling: lowest latency at size 0, overhead grows with workload on SMT");
    println!("  - cross-NUMA placement: order-of-magnitude longer response latency");
    println!("  - mutex: large startup cost amortized at large sizes; mwait slightly better");
    println!("  - SMT + mwait: the compromise SW SVt uses");

    let mut report = paper_report(
        "channel",
        "SW SVt communication-channel study (section 6.1)",
        svt_workloads::DEFAULT_LANE_SEED,
    );
    report
        .results
        .push(("cells".to_string(), Json::Arr(cell_rows)));
    cli.emit_report(report);
}
