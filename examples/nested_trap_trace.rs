//! An annotated walk through Algorithm 1: one nested VM trap, with the
//! paper's Table 1 attribution, its causal events and its stage spans.
//!
//! Run with: `cargo run --example nested_trap_trace`

use svt::core::{nested_machine, SwitchMode};
use svt::hv::{GuestOp, MachineError, OpLoop};
use svt::sim::{CostPart, SimDuration};

fn main() -> Result<(), MachineError> {
    let mut m = nested_machine(SwitchMode::Baseline);

    // Warm up once (the nested bootstrap — vmptrld trap, vmcs01' writes,
    // vmlaunch emulation — is charged at machine construction).
    let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut warm)?;
    m.clock.reset_attribution();
    m.obs.metrics.clear();
    m.obs.causal.enable();

    println!("Executing one cpuid in L2 (Algorithm 1 of the paper):\n");
    let rip_before = m.vcpu2().rip;
    let mut prog = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut prog)?;

    println!("Step-by-step attribution (Table 1 parts):");
    let steps = [
        (CostPart::L2Guest, "0. L2 executes cpuid"),
        (
            CostPart::SwitchL2L0,
            "1. VM trap into L0 + final VM resume of L2",
        ),
        (
            CostPart::Transform,
            "2. vmcs02->vmcs12 and vmcs12->vmcs02 transformations",
        ),
        (
            CostPart::L0Handler,
            "3. L0 handler (route, inject into vmcs12, VMRESUME checks)",
        ),
        (CostPart::SwitchL0L1, "4. World switches L0<->L1"),
        (
            CostPart::L1Handler,
            "5. L1's cpuid handler (incl. its own trap to L0)",
        ),
    ];
    let mut total = SimDuration::ZERO;
    for (part, label) in steps {
        let t = m.clock.part_time(part);
        total += t;
        println!("   {label:<60} {t}");
    }
    println!("   {:<60} {}", "Total", total);

    println!("\nArchitectural events during the trap:");
    for (key, v) in m.obs.metrics.iter_counters_sorted() {
        println!("   {:<60} {v}", key.to_string());
    }

    println!("\nCausal events (oldest first; `run` opens a stage span):");
    for e in m.obs.causal.events() {
        let preds: Vec<u64> = e.preds.iter().map(|p| p.raw()).collect();
        println!(
            "   #{:<3} [{}] {:<8} {:<18} after {preds:?}",
            e.id.raw(),
            e.at,
            e.level.name(),
            e.phase
        );
    }

    println!("\nStage spans (exportable as Chrome trace JSON):");
    let spans = m.obs.causal.spans();
    for s in &spans {
        println!(
            "   {:<8} [{} .. {}] {:<18} {}",
            s.level.name(),
            s.begin,
            s.end,
            s.name,
            s.duration()
        );
    }
    println!(
        "   ({} spans; svt::obs::chrome_trace(spans, flows) renders them for ui.perfetto.dev)",
        spans.len()
    );

    println!("\nState effects:");
    println!(
        "   L2 RIP advanced by the emulated instruction: {:#x} -> {:#x}",
        rip_before,
        m.vcpu2().rip
    );
    println!(
        "   L1's shadow vmcs12 holds the reflected exit reason: code {}",
        m.vmcs12().read(svt::arch::VmcsField::ExitReason)
    );
    Ok(())
}
