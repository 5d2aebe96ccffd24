//! The § 4 hardware walkthrough: configuring SVt contexts, virtualized
//! context ids, and cross-context register access through the shared
//! physical register file.
//!
//! Run with: `cargo run --example svt_lifecycle`

use svt::arch::VmcsField;
use svt::cpu::{CtxId, CtxtLevel, Gpr, SmtCore};

fn main() {
    // A core with three hardware contexts: L0 on ctx0, L1 on ctx1, L2 on
    // ctx2 — the assignment of the paper's running example.
    let mut core = SmtCore::new(3);
    println!(
        "Core with {} SVt contexts; ctx0 active.",
        core.num_contexts()
    );

    // --- Configuring L1 (paper Fig. 4, step A/B) -----------------------
    // L0 programs vmcs01's SVt fields and the VMPTRLD caches them into the
    // per-core micro-registers.
    let mut vmcs01 = svt::arch::Vmcs::new(
        svt::arch::VmcsRole::Host { guest_level: 1 },
        svt::mem::Gpa(0x1000),
    );
    vmcs01.set_svt_ctx(VmcsField::SvtVisor, Some(0));
    vmcs01.set_svt_ctx(VmcsField::SvtVm, Some(1));
    vmcs01.set_svt_ctx(VmcsField::SvtNested, Some(2));
    let micro = core.micro_mut();
    micro.visor = Some(CtxId(0));
    micro.vm = Some(CtxId(1));
    micro.nested = Some(CtxId(2));
    println!("vmcs01 SVt fields: visor=ctx0, vm=ctx1, nested=ctx2 (cached in u-registers).");

    // --- Cross-context register access (first operation of Fig. 3) -----
    // L0 (is_vm == 0) loads L1's initial state with ctxtst, lvl == Guest.
    core.micro_mut().is_vm = false;
    for (i, r) in Gpr::ALL.iter().enumerate() {
        core.ctxtst(CtxtLevel::Guest, *r, 0x1000 + i as u64)
            .expect("ctx1 configured");
    }
    println!(
        "L0 loaded L1's registers via ctxtst: ctx1.RAX = {:#x}",
        core.read_gpr(CtxId(1), Gpr::Rax)
    );

    // --- VM resume: thread stall/resume, not a context switch ----------
    core.switch_to(CtxId(1)).expect("ctx1 exists");
    core.micro_mut().is_vm = true;
    println!(
        "VM resume: fetch switched to {} ({} context running).",
        core.current(),
        core.running_contexts()
    );

    // --- Virtualized context ids (the paper's key indirection) ---------
    // L1 thinks its guest runs in "context 1", but lvl == Guest from a VM
    // (is_vm == 1) resolves through SVt_nested — the physical ctx2.
    core.write_gpr(CtxId(2), Gpr::Rbx, 0xbeef);
    let v = core
        .ctxtld(CtxtLevel::Guest, Gpr::Rbx)
        .expect("virtualized target");
    println!("L1's ctxtld(lvl=1, RBX) transparently read physical ctx2: {v:#x}");

    // Attempting to reach deeper than configured faults into the
    // hypervisor, which can emulate deeper hierarchies.
    let fault = core.ctxtld(CtxtLevel::Nested, Gpr::Rbx).unwrap_err();
    println!("L1's ctxtld(lvl=2) faults for emulation: {fault}");

    // --- Trap back: stall ctx1, resume ctx0 ----------------------------
    core.switch_to(CtxId(0)).expect("ctx0 exists");
    core.micro_mut().is_vm = false;
    println!(
        "VM trap: fetch back on {}; L1's registers still live in its context: ctx1.RAX = {:#x}",
        core.current(),
        core.read_gpr(CtxId(1), Gpr::Rax)
    );
}
