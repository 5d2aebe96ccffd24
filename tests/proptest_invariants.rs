//! Property-based tests on the core data structures and cross-crate
//! invariants.
//!
//! Randomised inputs are driven by the in-tree deterministic PRNG so the
//! cases are reproducible and the suite has no external dependencies.

use svt::arch::{Access, Ept, EptPerms, ExitReason, VmcsField};
use svt::cpu::{CtxId, Gpr, SmtCore};
use svt::mem::{CommandRing, Gpa, GuestMemory, Hpa};
use svt::sim::{DetRng, SimDuration, SimTime};

/// Guest memory: the last write to any byte wins, regardless of the
/// access pattern around it.
#[test]
fn guest_memory_last_write_wins() {
    let mut rng = DetRng::seed(0x1a57_0001);
    for _ in 0..48 {
        let n_writes = rng.range(1, 24) as usize;
        let writes: Vec<(u64, Vec<u8>)> = (0..n_writes)
            .map(|_| {
                let addr = rng.below(60_000);
                let len = rng.range(1, 64) as usize;
                let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                (addr, bytes)
            })
            .collect();
        let mut ram = GuestMemory::new(1 << 16);
        let mut shadow = vec![0u8; 1 << 16];
        for (addr, bytes) in &writes {
            let addr = *addr % ((1 << 16) - bytes.len() as u64);
            ram.write(Hpa(addr), bytes).unwrap();
            shadow[addr as usize..addr as usize + bytes.len()].copy_from_slice(bytes);
        }
        let mut all = vec![0u8; 1 << 16];
        ram.read(Hpa(0), &mut all).unwrap();
        assert_eq!(all, shadow);
    }
}

/// Command rings deliver every payload exactly once, in order, for any
/// interleaving of pushes and pops that respects capacity.
#[test]
fn command_ring_is_fifo() {
    let mut rng = DetRng::seed(0x1a57_0002);
    for _ in 0..48 {
        let n_ops = rng.range(1, 200) as usize;
        let ops: Vec<bool> = (0..n_ops).map(|_| rng.chance(0.5)).collect();
        let mut ram = GuestMemory::new(1 << 20);
        let ring = CommandRing::new(Hpa(0x4000), 64, 8);
        ring.init(&mut ram).unwrap();
        let mut pushed = 0u32;
        let mut popped = 0u32;
        let mut buf = [0u8; 64];
        for &push in &ops {
            if push && !ring.is_full(&ram).unwrap() {
                ring.push(&mut ram, &pushed.to_le_bytes()).unwrap();
                pushed += 1;
            } else if let Some(len) = ring.pop(&mut ram, &mut buf).unwrap() {
                assert_eq!(buf[..len], popped.to_le_bytes());
                popped += 1;
            }
        }
        while let Some(len) = ring.pop(&mut ram, &mut buf).unwrap() {
            assert_eq!(buf[..len], popped.to_le_bytes());
            popped += 1;
        }
        assert_eq!(pushed, popped);
    }
}

/// EPT composition agrees with step-by-step translation wherever both
/// levels map.
#[test]
fn ept_composition_agrees_with_two_step_translation() {
    let mut rng = DetRng::seed(0x1a57_0003);
    for _ in 0..48 {
        let n_inner = rng.range(1, 32) as usize;
        let inner: Vec<(u64, u64)> = (0..n_inner)
            .map(|_| (rng.below(64), rng.below(64)))
            .collect();
        let n_outer = rng.range(1, 32) as usize;
        let outer: Vec<(u64, u64)> = (0..n_outer)
            .map(|_| (rng.below(64), rng.below(64)))
            .collect();
        let probe: Vec<u64> = (0..16).map(|_| rng.below(64)).collect();
        let mut ept12 = Ept::new();
        for (g, t) in inner {
            ept12.map_page(g, t, EptPerms::RWX);
        }
        let mut ept01 = Ept::new();
        for (g, t) in outer {
            ept01.map_page(g, t, EptPerms::RWX);
        }
        let ept02 = ept12.compose(&ept01);
        for page in probe {
            let addr = Gpa(page * svt::mem::PAGE_SIZE + 5);
            let two_step = ept12
                .translate(addr, Access::Read)
                .ok()
                .and_then(|mid| ept01.translate(mid, Access::Read).ok());
            let composed = ept02.translate(addr, Access::Read).ok();
            assert_eq!(two_step, composed);
        }
    }
}

/// Exit reasons survive the VMCS encode/decode round trip for all
/// field/vector/address operands.
#[test]
fn exit_reason_round_trips() {
    let mut rng = DetRng::seed(0x1a57_0004);
    for _ in 0..256 {
        let vector = rng.below(256) as u8;
        let msr = rng.next_u64() as u32;
        let gpa = rng.below(1 << 40);
        let field_idx = rng.below(VmcsField::COUNT as u64) as usize;
        let nr = rng.next_u64();
        let reasons = [
            ExitReason::ExternalInterrupt { vector },
            ExitReason::MsrWrite { msr },
            ExitReason::MsrRead { msr },
            ExitReason::EptMisconfig { gpa: Gpa(gpa) },
            ExitReason::Vmread {
                field: VmcsField::ALL[field_idx],
            },
            ExitReason::Vmwrite {
                field: VmcsField::ALL[field_idx],
            },
            ExitReason::Vmcall { nr },
        ];
        for r in reasons {
            let (code, qual) = r.encode();
            assert_eq!(ExitReason::decode(code, qual), Some(r));
        }
    }
}

/// SMT contexts never alias: writes through one context's rename map
/// are invisible to every other context.
#[test]
fn smt_contexts_are_isolated() {
    let mut rng = DetRng::seed(0x1a57_0005);
    for _ in 0..48 {
        let n_writes = rng.range(1, 100) as usize;
        let writes: Vec<(u8, usize, u64)> = (0..n_writes)
            .map(|_| (rng.below(3) as u8, rng.below(16) as usize, rng.next_u64()))
            .collect();
        let mut core = SmtCore::new(3);
        let mut shadow = [[0u64; 16]; 3];
        for (ctx, reg, val) in writes {
            core.write_gpr(CtxId(ctx), Gpr::ALL[reg], val);
            shadow[ctx as usize][reg] = val;
        }
        for ctx in 0..3u8 {
            for (i, r) in Gpr::ALL.iter().enumerate() {
                assert_eq!(core.read_gpr(CtxId(ctx), *r), shadow[ctx as usize][i]);
            }
        }
        // The invariant the design rests on: exactly one context runs.
        assert_eq!(core.running_contexts(), 1);
    }
}

/// Simulated time arithmetic is consistent: charging durations in any
/// order reaches the same instant.
#[test]
fn time_accumulation_is_order_independent() {
    let mut rng = DetRng::seed(0x1a57_0006);
    for _ in 0..48 {
        let n = rng.range(1, 64) as usize;
        let ns: Vec<u64> = (0..n).map(|_| rng.range(1, 1_000_000)).collect();
        let total: u64 = ns.iter().sum();
        let mut t1 = SimTime::ZERO;
        for &d in &ns {
            t1 += SimDuration::from_ns(d);
        }
        let mut rev = ns.clone();
        rev.reverse();
        let mut t2 = SimTime::ZERO;
        for &d in &rev {
            t2 += SimDuration::from_ns(d);
        }
        assert_eq!(t1, t2);
        assert_eq!(t1, SimTime::ZERO + SimDuration::from_ns(total));
    }
}

/// Percentiles are monotone in p and bounded by min/max.
#[test]
fn percentiles_are_monotone() {
    let mut rng = DetRng::seed(0x1a57_0007);
    for _ in 0..48 {
        let n = rng.range(1, 256) as usize;
        let samples: Vec<f64> = (0..n).map(|_| rng.unit() * 1e9).collect();
        let p50 = svt::stats::percentile(&samples, 50.0);
        let p90 = svt::stats::percentile(&samples, 90.0);
        let p99 = svt::stats::percentile(&samples, 99.0);
        let max = svt::stats::percentile(&samples, 100.0);
        assert!(p50 <= p90 && p90 <= p99 && p99 <= max);
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(p50 >= min);
    }
}

/// The 4-sigma filter never removes more than it keeps on unimodal
/// data and never panics on degenerate inputs.
#[test]
fn outlier_filter_is_conservative() {
    let mut rng = DetRng::seed(0x1a57_0008);
    for _ in 0..48 {
        let n = rng.range(1, 256) as usize;
        let samples: Vec<f64> = (0..n).map(|_| rng.unit() * 1e6).collect();
        let kept = svt::stats::filter_outliers(&samples, 4.0);
        assert!(kept.len() * 2 >= samples.len());
        assert!(kept.len() <= samples.len());
    }
}

/// The SMP scheduler is deterministic: the same guest programs on an
/// identically-configured machine reproduce the exact vCPU interleaving,
/// the same final time, the same step count, and a byte-identical
/// metrics report — for any vCPU count, switch mode and program shape.
#[test]
fn smp_schedule_is_deterministic() {
    use svt::core::{smp_machine, SwitchMode};
    use svt::hv::{GuestOp, GuestProgram, OpLoop};
    let mut rng = DetRng::seed(0x1a57_000a);
    for _ in 0..6 {
        let n = rng.range(2, 4) as usize;
        let mode = SwitchMode::ALL[rng.below(SwitchMode::ALL.len() as u64) as usize];
        let iters: Vec<u64> = (0..n).map(|_| rng.range(3, 25)).collect();
        let gaps: Vec<u64> = (0..n).map(|_| rng.range(1, 400)).collect();
        let run = |iters: &[u64], gaps: &[u64]| {
            let mut m = smp_machine(mode, iters.len());
            m.obs.causal.enable();
            let mut progs: Vec<OpLoop> = iters
                .iter()
                .zip(gaps)
                .map(|(&i, &g)| OpLoop::new(GuestOp::Cpuid, i, g, SimDuration::from_ns(7)))
                .collect();
            let mut refs: Vec<&mut dyn GuestProgram> = progs
                .iter_mut()
                .map(|p| p as &mut dyn GuestProgram)
                .collect();
            let report = m.run_smp(&mut refs, SimTime::MAX).unwrap();
            let switches: Vec<u32> = m
                .obs
                .causal
                .events()
                .filter(|e| e.phase == "sched_switch")
                .map(|e| e.vcpu)
                .collect();
            (
                switches,
                report.steps,
                m.clock.now(),
                m.obs.metrics.to_json().to_string(),
            )
        };
        let a = run(&iters, &gaps);
        let b = run(&iters, &gaps);
        // vCPU 0 starts installed, so scheduling every vCPU takes at
        // least one switch onto each of the others.
        assert!(
            a.0.len() >= iters.len() - 1,
            "every vCPU must be scheduled at least once"
        );
        assert_eq!(a.0, b.0, "vCPU interleaving differs between runs");
        assert_eq!(a.1, b.1, "step count differs between runs");
        assert_eq!(a.2, b.2, "final time differs between runs");
        assert_eq!(a.3, b.3, "metrics report differs between runs");
    }
}

/// The Table 1 calibration holds for any surrounding workload size:
/// the virtualization overhead per cpuid is constant, only part 0
/// grows.
#[test]
fn overhead_is_independent_of_surrounding_workload() {
    use svt::core::{nested_machine, SwitchMode};
    use svt::hv::{GuestOp, OpLoop};
    let mut rng = DetRng::seed(0x1a57_0009);
    for _ in 0..16 {
        let work = rng.below(20_000);
        let mut m = nested_machine(SwitchMode::Baseline);
        let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
        m.run(&mut warm).unwrap();
        let base = m.clock.snapshot();
        let mut prog = OpLoop::new(GuestOp::Cpuid, 10, work, SimDuration::from_ns(1));
        m.run(&mut prog).unwrap();
        let d = m.clock.since_snapshot(&base);
        let guest_ns = d.part_time(svt::sim::CostPart::L2Guest).as_ns() / 10.0;
        let overhead_ns = d.busy_time().as_ns() / 10.0 - guest_ns;
        assert!(
            (overhead_ns - 10_350.0).abs() < 110.0,
            "overhead {overhead_ns}"
        );
        assert!(guest_ns >= work as f64);
    }
}
