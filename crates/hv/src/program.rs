//! Guest programs.
//!
//! Workloads run inside the simulated VMs as [`GuestProgram`] state
//! machines: each step yields one [`GuestOp`] — plain computation or an
//! architectural operation that may trap, exactly mirroring how a real
//! guest's instruction stream interleaves work with privileged operations.

use svt_mem::{Gpa, GuestMemory};
use svt_obs::Obs;
use svt_sim::{SimDuration, SimTime};

/// Execution context handed to a guest program on every callback: the
/// current (virtual) time, the guest's memory (through which real
/// structures like virtqueues are driven), and the machine's
/// observability bundle, so programs can anchor request start/end
/// events in the causal graph.
#[derive(Debug)]
pub struct GuestCtx<'a> {
    /// Current simulated time as the guest's TSC would report it.
    pub now: SimTime,
    /// The guest's physical memory.
    pub mem: &'a mut GuestMemory,
    /// The machine's observability bundle (metrics, spans, causal graph).
    pub obs: &'a mut Obs,
}

/// One operation a guest performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestOp {
    /// Unprivileged computation for the given duration.
    Compute(SimDuration),
    /// `cpuid` — architecturally always exits.
    Cpuid,
    /// `vmcall` hypercall with a call number.
    Vmcall(u64),
    /// MMIO store (e.g. a virtio doorbell kick).
    MmioWrite {
        /// Target guest-physical address.
        gpa: Gpa,
        /// Stored value.
        value: u64,
    },
    /// MMIO load.
    MmioRead {
        /// Source guest-physical address.
        gpa: Gpa,
    },
    /// `wrmsr`.
    MsrWrite {
        /// MSR index.
        msr: u32,
        /// Written value.
        value: u64,
    },
    /// `rdmsr`.
    MsrRead {
        /// MSR index.
        msr: u32,
    },
    /// `hlt` — wait for the next interrupt.
    Hlt,
    /// The program has finished.
    Done,
}

/// A guest workload, stepped by the machine run loop.
///
/// Results of value-producing operations (`Cpuid`, `MmioRead`, `MsrRead`)
/// are delivered through [`GuestProgram::op_result`] before the next
/// `step` call; interrupts through [`GuestProgram::interrupt`].
pub trait GuestProgram {
    /// Produces the next operation.
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> GuestOp;

    /// Delivers the result of the last value-producing operation.
    fn op_result(&mut self, _value: u64, _ctx: &mut GuestCtx<'_>) {}

    /// Delivers an interrupt (after the guest's handler prologue).
    fn interrupt(&mut self, _vector: u8, _ctx: &mut GuestCtx<'_>) {}

    /// Short label for traces.
    fn name(&self) -> &'static str {
        "guest"
    }
}

/// A trivial program that computes for a fixed span and finishes; useful
/// in tests and as a CPU-burner.
#[derive(Debug, Clone)]
pub struct ComputeOnly {
    remaining: SimDuration,
    chunk: SimDuration,
}

impl ComputeOnly {
    /// Runs for `total` simulated time in `chunk`-sized steps.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn new(total: SimDuration, chunk: SimDuration) -> Self {
        assert!(!chunk.is_zero(), "chunk must be positive");
        ComputeOnly {
            remaining: total,
            chunk,
        }
    }
}

impl GuestProgram for ComputeOnly {
    fn step(&mut self, _ctx: &mut GuestCtx<'_>) -> GuestOp {
        if self.remaining.is_zero() {
            return GuestOp::Done;
        }
        let c = self.chunk.min(self.remaining);
        self.remaining -= c;
        GuestOp::Compute(c)
    }

    fn name(&self) -> &'static str {
        "compute-only"
    }
}

/// The paper's micro-benchmark skeleton: a loop of one operation under
/// scrutiny surrounded by dependent register increments simulating a
/// variable surrounding workload (§ 6.1).
#[derive(Debug, Clone)]
pub struct OpLoop {
    op: GuestOp,
    iterations: u64,
    done_iterations: u64,
    surrounding_increments: u64,
    increment_cost: SimDuration,
    phase: OpLoopPhase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpLoopPhase {
    Work,
    Op,
}

impl OpLoop {
    /// A loop executing `op` `iterations` times, with
    /// `surrounding_increments` dependent increments (each costing
    /// `increment_cost`) around every operation.
    pub fn new(
        op: GuestOp,
        iterations: u64,
        surrounding_increments: u64,
        increment_cost: SimDuration,
    ) -> Self {
        OpLoop {
            op,
            iterations,
            done_iterations: 0,
            surrounding_increments,
            increment_cost,
            phase: OpLoopPhase::Work,
        }
    }

    /// Iterations completed so far.
    pub fn completed(&self) -> u64 {
        self.done_iterations
    }
}

impl GuestProgram for OpLoop {
    fn step(&mut self, _ctx: &mut GuestCtx<'_>) -> GuestOp {
        if self.done_iterations == self.iterations {
            return GuestOp::Done;
        }
        match self.phase {
            OpLoopPhase::Work => {
                self.phase = OpLoopPhase::Op;
                if self.surrounding_increments == 0 {
                    // No surrounding workload: fall through to the op.
                    self.done_iterations += 1;
                    return self.op;
                }
                GuestOp::Compute(self.increment_cost * self.surrounding_increments)
            }
            OpLoopPhase::Op => {
                self.phase = OpLoopPhase::Work;
                self.done_iterations += 1;
                self.op
            }
        }
    }

    fn name(&self) -> &'static str {
        "op-loop"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(mem: &'a mut GuestMemory, obs: &'a mut Obs) -> GuestCtx<'a> {
        GuestCtx {
            now: SimTime::ZERO,
            mem,
            obs,
        }
    }

    #[test]
    fn compute_only_consumes_budget() {
        let mut mem = GuestMemory::new(4096);
        let mut obs = Obs::new();
        let mut c = ctx(&mut mem, &mut obs);
        let mut p = ComputeOnly::new(SimDuration::from_ns(100), SimDuration::from_ns(30));
        let mut total = SimDuration::ZERO;
        loop {
            match p.step(&mut c) {
                GuestOp::Compute(d) => total += d,
                GuestOp::Done => break,
                other => panic!("unexpected op {other:?}"),
            }
        }
        assert_eq!(total, SimDuration::from_ns(100));
    }

    #[test]
    #[should_panic(expected = "chunk must be positive")]
    fn compute_only_rejects_zero_chunk() {
        let _ = ComputeOnly::new(SimDuration::from_ns(1), SimDuration::ZERO);
    }

    #[test]
    fn op_loop_interleaves_work_and_ops() {
        let mut mem = GuestMemory::new(4096);
        let mut obs = Obs::new();
        let mut c = ctx(&mut mem, &mut obs);
        let mut p = OpLoop::new(GuestOp::Cpuid, 3, 10, SimDuration::from_ns(1));
        let mut seq = Vec::new();
        loop {
            let op = p.step(&mut c);
            if op == GuestOp::Done {
                break;
            }
            seq.push(op);
        }
        assert_eq!(seq.len(), 6);
        assert_eq!(seq[0], GuestOp::Compute(SimDuration::from_ns(10)));
        assert_eq!(seq[1], GuestOp::Cpuid);
        assert_eq!(p.completed(), 3);
    }

    #[test]
    fn op_loop_zero_workload_is_pure_ops() {
        let mut mem = GuestMemory::new(4096);
        let mut obs = Obs::new();
        let mut c = ctx(&mut mem, &mut obs);
        let mut p = OpLoop::new(GuestOp::Cpuid, 2, 0, SimDuration::from_ns(1));
        assert_eq!(p.step(&mut c), GuestOp::Cpuid);
        assert_eq!(p.step(&mut c), GuestOp::Cpuid);
        assert_eq!(p.step(&mut c), GuestOp::Done);
    }
}
