//! The machine: run loop, trap chains and hypervisor logic.
//!
//! A [`Machine`] executes measured [`GuestProgram`]s at a configurable
//! virtualization level:
//!
//! * **L0 (native)** — operations execute directly;
//! * **L1 (single-level)** — privileged operations trap into L0;
//! * **L2 (nested)** — every trap runs the full Algorithm 1 of the paper:
//!   trap into L0, VMCS transformation, injection into vmcs12, reflection
//!   into L1's handler (which triggers further traps of its own), and the
//!   emulated VMRESUME path back.
//!
//! The machine hosts one or more [`Vcpu`]s, each carrying its own nested
//! VMCS set, APIC and switch engine. [`Machine::run_smp`] interleaves the
//! runnable vCPUs with a deterministic min-local-time scheduler; a
//! single-vCPU run through [`Machine::run`] takes exactly the same code
//! path and is bit-identical to the pre-SMP machine.
//!
//! The *logic* here is shared by all switch engines; the *mechanics* of
//! moving between levels live behind the [`Reflector`] trait.

use svt_arch::{
    Access, ArchId, DeliveryMode, EptFault, ExitReason, IcrCommand, VmcsField, MSR_TSC_DEADLINE,
    MSR_X2APIC_EOI, MSR_X2APIC_ICR, VECTOR_TIMER,
};
use svt_cpu::{Gpr, SmtCore};
use svt_mem::{Gpa, GuestMemory};
use svt_obs::{HostPart, MetricKey, Obs, ObsLevel};
use svt_sim::snapshot::{
    self, from_bytes, load_code, load_nested, load_new, load_shape, save_nested, to_bytes, Sink,
    Snap, SnapDyn, SnapError, SnapReader, SNAP_VERSION,
};
use svt_sim::{
    assign_svt_cores, snap_fields, Clock, CostModel, CostPart, CpuLoc, EventQueue, FaultKind,
    FaultPlan, MachineSpec, SimDuration, SimTime,
};

use crate::device::{Completion, DeviceModel};
use crate::program::{GuestCtx, GuestOp, GuestProgram};
use crate::reflector::{BaselineReflector, Reflector};
use crate::state::{
    program_vmcs02, L0State, L1State, Level, MachineConfig, MachineEvent, VcpuState,
};
use crate::vcpu::Vcpu;

/// Bytes of host RAM every machine models.
const RAM_SIZE: u64 = 1 << 30;

/// Pages identity-mapped in each EPT level.
const MAPPED_PAGES: u64 = 4096;

/// Which VMCS a (charged) access targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmcsId {
    /// L0's descriptor for L1.
    V01,
    /// The shadow of L1's descriptor for L2.
    V12,
    /// L0's real descriptor for L2.
    V02,
}

/// Failure modes of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineError {
    /// The guest halted with no event armed to ever wake it.
    IdleForever,
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::IdleForever => {
                write!(f, "guest halted with no pending event to wake it")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// Outcome of [`Machine::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Guest-program steps executed (summed over all vCPUs).
    pub steps: u64,
}

/// Why a vCPU's scheduling slice ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SliceOutcome {
    /// The vCPU's program returned [`GuestOp::Done`].
    Finished,
    /// The vCPU halted and waits for an event.
    Halted,
    /// The vCPU's local clock passed the run deadline.
    Deadline,
}

/// In-flight MMIO operation data for the L1 device-emulation path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MmioOp {
    pub gpa: Gpa,
    pub write: bool,
    pub value: u64,
}

snap_fields! { MmioOp { gpa, write, value } }

/// L1-side servicing work carried by an interrupt delivery.
#[derive(Debug, Default)]
pub(crate) enum IrqWork {
    /// A device completion: backend work then vector injection.
    Completion {
        device: usize,
        completion: Completion,
    },
    /// The virtualized TSC-deadline timer fired.
    #[default]
    Timer,
    /// A fixed-mode cross-vCPU IPI.
    Ipi,
}

/// Tags 1 (device completion), 2 (timer) and 3 (IPI); 0 is left to the
/// machine's empty work slot.
impl Snap for IrqWork {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        match self {
            IrqWork::Completion { device, completion } => {
                (1u8, *device).save(w);
                completion.save(w);
            }
            IrqWork::Timer => w.u8(2),
            IrqWork::Ipi => w.u8(3),
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = match load_code(r, "pending IRQ-work tag", |t| {
            (1..4).contains(&t).then_some(t)
        })? {
            1 => IrqWork::Completion {
                device: load_new(r)?,
                completion: load_new(r)?,
            },
            2 => IrqWork::Timer,
            _ => IrqWork::Ipi,
        };
        Ok(())
    }
}

/// The simulated machine.
pub struct Machine {
    /// Calibrated primitive costs.
    pub cost: CostModel,
    /// The running vCPU's simulation clock with Table-1 attribution. The
    /// scheduler swaps parked clocks in and out on vCPU switch, so this is
    /// always the clock of the vCPU currently executing.
    pub clock: Clock,
    /// The SMT core hosting the running vCPU's virtualization levels
    /// (swapped like [`Machine::clock`]).
    pub core: SmtCore,
    /// Host physical RAM.
    pub ram: GuestMemory,
    /// Physical machine shape (the paper's platform, Table 4).
    pub spec: MachineSpec,
    /// Physical event queue (device completions, timers, IPIs).
    pub events: EventQueue<MachineEvent>,
    /// L0 hypervisor state shared across vCPUs.
    pub l0: L0State,
    /// L1 guest-hypervisor state shared across vCPUs.
    pub l1: L1State,
    /// Whether hardware VMCS shadowing is enabled.
    pub shadowing: bool,
    /// The ISA backend in effect: selects exit-reason encodings,
    /// profiling tags and the guest-op→trap mapping. All reflection
    /// engines are backend-neutral and consult this.
    pub arch: ArchId,
    /// Structured observability: typed metrics plus the causal event
    /// graph that records trap-stage spans (graph disabled by default;
    /// counters always on).
    pub obs: Obs,
    /// Deterministic fault-injection schedule. [`FaultPlan::none`] by
    /// default: fault-free runs draw nothing and stay bit-identical.
    pub faults: FaultPlan,
    /// When set, [`Machine::run_smp`] appends each scheduled vCPU index to
    /// [`Machine::schedule_trace`] (determinism checks).
    pub record_schedule: bool,
    /// The scheduling order recorded while [`Machine::record_schedule`]
    /// was set.
    pub schedule_trace: Vec<u32>,
    level: Level,
    vcpus: Vec<Vcpu>,
    cur: usize,
    devices: Vec<Option<Box<dyn DeviceModel>>>,
    device_affinity: Vec<usize>,
    pending_mmio: Option<MmioOp>,
    pending_msr: Option<u64>,
    pending_result: Option<u64>,
    pending_work: Option<IrqWork>,
    sentinel: Option<DivergenceSentinel>,
}

/// Periodic state-hash sampler for cross-run divergence detection.
///
/// When enabled, the machine folds its complete state fingerprint every
/// `every` of simulated time (checked at the per-step telemetry hook, so
/// samples land on the first step at or after each boundary). Two runs of
/// the same campaign cell — uninterrupted vs resumed, `--jobs 1` vs
/// `--jobs N` — must produce identical sample trajectories; the first
/// differing entry localizes a nondeterminism to within one window.
#[derive(Debug, Clone, Default)]
struct DivergenceSentinel {
    /// Sampling period in simulated time.
    every: SimDuration,
    /// Next window boundary.
    next: SimTime,
    /// `(boundary picoseconds, state fingerprint)` per crossed window.
    samples: Vec<(u64, u64)>,
}

snap_fields! { DivergenceSentinel { every, next, samples } }

/// The fixed shape (ISA backend, level, shadowing, vCPU and device
/// counts) comes first and is checked on load; devices travel as
/// sub-payloads. The cost model and machine spec are configuration.
impl Snap for Machine {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        let Machine {
            cost: _,
            clock,
            core,
            ram,
            spec: _,
            events,
            l0,
            l1,
            shadowing,
            arch,
            obs,
            faults,
            record_schedule,
            schedule_trace,
            level,
            vcpus,
            cur,
            devices,
            device_affinity,
            pending_mmio,
            pending_msr,
            pending_result,
            pending_work,
            sentinel,
        } = self;
        (*arch, *level, *shadowing, vcpus.len(), devices.len(), *cur).save(w);
        clock.save(w);
        core.save(w);
        ram.save(w);
        events.save(w);
        l0.save(w);
        l1.save(w);
        faults.save(w);
        for v in vcpus {
            v.save(w);
        }
        for a in device_affinity {
            a.save(w);
        }
        for d in devices {
            save_nested(d.as_deref().map(|d| d as &dyn SnapDyn), w);
        }
        (*pending_mmio, *pending_msr, *pending_result).save(w);
        match pending_work {
            Some(work) => work.save(w),
            None => w.u8(0),
        }
        record_schedule.save(w);
        schedule_trace.save(w);
        sentinel.save(w);
        obs.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n_vcpus = self.vcpus.len();
        load_shape(&self.arch, "ISA backend", r)?;
        load_shape(&self.level, "program level", r)?;
        load_shape(&self.shadowing, "VMCS shadowing", r)?;
        load_shape(&n_vcpus, "vCPU count", r)?;
        load_shape(&self.devices.len(), "device count", r)?;
        let in_range = |what, idx: usize| match idx < n_vcpus {
            true => Ok(()),
            false => Err(SnapError::BadValue {
                what,
                got: idx as u64,
            }),
        };
        self.cur.load(r)?;
        in_range("current vCPU", self.cur)?;
        self.clock.load(r)?;
        self.core.load(r)?;
        self.ram.load(r)?;
        self.events.load(r)?;
        self.l0.load(r)?;
        self.l1.load(r)?;
        self.faults.load(r)?;
        for v in &mut self.vcpus {
            v.load(r)?;
        }
        for a in &mut self.device_affinity {
            a.load(r)?;
            in_range("device affinity", *a)?;
        }
        for d in &mut self.devices {
            load_nested(d.as_deref_mut().map(|d| d as &mut dyn SnapDyn), r)?;
        }
        (self.pending_mmio, self.pending_msr, self.pending_result) = load_new(r)?;
        self.pending_work = match r.peek_u8()? {
            0 => r.u8().map(|_| None)?,
            _ => Some(load_new(r)?),
        };
        self.record_schedule.load(r)?;
        self.schedule_trace.load(r)?;
        self.sentinel.load(r)?;
        self.obs.load(r)
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("level", &self.level)
            .field("now", &self.clock.now())
            .field("vcpus", &self.vcpus.len())
            .field("devices", &self.devices.len())
            .finish()
    }
}

impl Machine {
    /// Builds a machine with one vCPU driven by an explicit switch engine.
    pub fn with_reflector(cfg: MachineConfig, reflector: Box<dyn Reflector>) -> Self {
        // Open the host-profiling window before anything allocates:
        // construction and boot (memory, EPT webs, vmcs setup) are
        // attributed to `HostPart::MachineBoot`, and whatever follows
        // until the run loop takes over to `HostPart::WorkloadSetup`.
        let mut hostprof = svt_obs::HostProf::default();
        hostprof.run_begin();
        hostprof.enter(HostPart::MachineBoot);
        let spec = MachineSpec::isca19();
        let smt = spec.smt_per_core.max(3) as usize;
        let loc = assign_svt_cores(&spec, 1)
            .map(|v| v[0])
            .unwrap_or_else(|_| CpuLoc::new(0, 0, 0));
        let mut m = Machine {
            core: SmtCore::new(smt),
            ram: GuestMemory::new(RAM_SIZE),
            l0: L0State::new(MAPPED_PAGES),
            l1: L1State::new(MAPPED_PAGES, cfg.level == Level::L2),
            clock: Clock::new(),
            events: EventQueue::new(),
            cost: cfg.cost,
            spec,
            shadowing: cfg.shadowing,
            arch: cfg.arch,
            obs: Obs::new(),
            faults: FaultPlan::none(),
            record_schedule: false,
            schedule_trace: Vec::new(),
            level: cfg.level,
            vcpus: vec![Vcpu::new(0, loc, smt, reflector)],
            cur: 0,
            devices: Vec::new(),
            device_affinity: Vec::new(),
            pending_mmio: None,
            pending_msr: None,
            pending_result: None,
            pending_work: None,
            sentinel: None,
        };
        m.obs.hostprof = hostprof;
        if m.level == Level::L2 {
            m.boot_nested();
        }
        m.obs.hostprof.end_machine_boot();
        m
    }

    /// Builds a machine with the prevailing single-thread mechanics.
    pub fn baseline(cfg: MachineConfig) -> Self {
        Machine::with_reflector(cfg, Box::new(BaselineReflector::new()))
    }

    /// The level the measured program runs at.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Name of the running vCPU's switch engine.
    pub fn reflector_name(&self) -> &'static str {
        self.vcpus[self.cur].reflector_name()
    }

    // ------------------------------------------------------------------
    // vCPU topology
    // ------------------------------------------------------------------

    /// Number of vCPUs.
    pub fn n_vcpus(&self) -> usize {
        self.vcpus.len()
    }

    /// Index of the vCPU currently installed on [`Machine::clock`].
    pub fn current_vcpu(&self) -> usize {
        self.cur
    }

    /// The vCPUs, indexed by id.
    pub fn vcpus(&self) -> &[Vcpu] {
        &self.vcpus
    }

    /// Adds a vCPU with its own switch engine; returns its index. The new
    /// vCPU is pinned to thread 0 of the next free physical core (its SMT
    /// sibling hosts the engine's SVt contexts) and, on a nested machine,
    /// boots its own vmcs01/vmcs12/vmcs02 web before first use.
    ///
    /// # Panics
    ///
    /// Panics if [`Machine::spec`] has no free SMT core pair left.
    pub fn add_vcpu(&mut self, reflector: Box<dyn Reflector>) -> usize {
        self.obs.hostprof.enter(HostPart::MachineBoot);
        let id = self.vcpus.len();
        let locs =
            assign_svt_cores(&self.spec, id + 1).expect("machine spec cannot host another vCPU");
        let smt = self.spec.smt_per_core.max(3) as usize;
        self.vcpus
            .push(Vcpu::new(id as u32, locs[id], smt, reflector));
        if self.level == Level::L2 {
            let prev = self.cur;
            self.switch_to(id);
            self.boot_nested();
            self.switch_to(prev);
        }
        self.obs.hostprof.exit(HostPart::MachineBoot);
        id
    }

    /// Architectural state of the running vCPU. (Historical name: the
    /// pre-SMP machine had a single hard-wired `vcpu2` field.)
    pub fn vcpu2(&self) -> &VcpuState {
        &self.vcpus[self.cur].state
    }

    /// Mutable architectural state of the running vCPU.
    pub fn vcpu2_mut(&mut self) -> &mut VcpuState {
        &mut self.vcpus[self.cur].state
    }

    fn vstate(&self) -> &VcpuState {
        &self.vcpus[self.cur].state
    }

    fn vstate_mut(&mut self) -> &mut VcpuState {
        &mut self.vcpus[self.cur].state
    }

    /// The running vCPU's vmcs01.
    pub fn vmcs01(&self) -> &svt_arch::Vmcs {
        &self.vcpus[self.cur].vmcs01
    }

    /// The running vCPU's vmcs01, mutably.
    pub fn vmcs01_mut(&mut self) -> &mut svt_arch::Vmcs {
        &mut self.vcpus[self.cur].vmcs01
    }

    /// The running vCPU's vmcs12 shadow.
    pub fn vmcs12(&self) -> &svt_arch::Vmcs {
        &self.vcpus[self.cur].vmcs12
    }

    /// The running vCPU's vmcs12 shadow, mutably.
    pub fn vmcs12_mut(&mut self) -> &mut svt_arch::Vmcs {
        &mut self.vcpus[self.cur].vmcs12
    }

    /// The running vCPU's vmcs02.
    pub fn vmcs02(&self) -> &svt_arch::Vmcs {
        &self.vcpus[self.cur].vmcs02
    }

    /// The running vCPU's vmcs02, mutably.
    pub fn vmcs02_mut(&mut self) -> &mut svt_arch::Vmcs {
        &mut self.vcpus[self.cur].vmcs02
    }

    /// Local simulated time of vCPU `i` (the machine clock for the
    /// running vCPU, its parked clock otherwise).
    pub fn local_now(&self, i: usize) -> SimTime {
        if i == self.cur {
            self.clock.now()
        } else {
            self.vcpus[i].clock.now()
        }
    }

    /// Registers a device on the guest's MMIO bus with completion
    /// interrupts routed to vCPU `vcpu` (per-vCPU queue-to-IRQ affinity).
    /// Its pages are marked misconfigured in the owning EPT (L1's ept12 in
    /// nested mode, L0's ept01 otherwise) so accesses exit for emulation.
    /// Returns the device index.
    pub fn add_device_for(&mut self, dev: Box<dyn DeviceModel>, vcpu: usize) -> usize {
        assert!(vcpu < self.vcpus.len(), "device affinity to unknown vCPU");
        for (base, len) in dev.ranges() {
            let first = base.page();
            let last = (base + (len - 1)).page();
            for p in first..=last {
                if self.level == Level::L2 {
                    self.l1.ept12.mark_mmio(p);
                } else {
                    self.l0.ept01.mark_mmio(p);
                }
            }
        }
        if self.level == Level::L2 {
            // One merge and compose for the whole machine, then the
            // per-vCPU control writes.
            self.l0.merge_and_compose(&self.l1);
            for v in &mut self.vcpus {
                self.l0.write_vmcs02(&mut v.vmcs02);
            }
        }
        self.devices.push(Some(dev));
        self.device_affinity.push(vcpu);
        self.devices.len() - 1
    }

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Serializes the machine's complete mutable state into a sealed,
    /// versioned, checksummed snapshot blob.
    ///
    /// The blob carries everything a deterministic continuation needs:
    /// per-vCPU VMCS webs, engine protocol state, clocks with full cost
    /// attribution, the event queue, guest memory, device state, fault-plan
    /// RNG streams and the observability cursors. Restoring it into a
    /// machine built from the same [`MachineConfig`] (same engines, vCPUs
    /// and devices) and running the same remaining programs is
    /// byte-identical to never having snapshotted — the property the
    /// round-trip tests in `tests/` assert on both ISA backends.
    ///
    /// Call between runs, not from inside a run loop.
    pub fn snapshot(&self) -> Vec<u8> {
        snapshot::seal(SNAP_VERSION, self.state_fingerprint(), to_bytes(self))
    }

    /// Restores a snapshot produced by [`Machine::snapshot`] into this
    /// machine, which must have the same fixed shape (ISA backend, level,
    /// vCPU count, engine kinds, device count).
    ///
    /// The envelope checksum is verified before any state is touched; the
    /// state fingerprint recorded at save time is re-derived from the
    /// restored state and cross-checked afterwards.
    ///
    /// # Errors
    ///
    /// Typed [`svt_sim::SnapError`] on a corrupted or truncated blob, a
    /// version/shape mismatch, or a fingerprint disagreement. On error the
    /// machine may be partially overwritten and must be discarded.
    pub fn restore(&mut self, blob: &[u8]) -> Result<(), SnapError> {
        let (stored, payload) = snapshot::open(blob, SNAP_VERSION)?;
        from_bytes(self, payload)?;
        let computed = self.state_fingerprint();
        if computed != stored {
            return Err(SnapError::FingerprintMismatch { stored, computed });
        }
        Ok(())
    }

    /// FNV fold of everything [`Machine::snapshot`] stores: the same
    /// [`Snap`] traversal, fed into a [`snapshot::Fingerprint`]. Two
    /// machines that would behave identically from here on fold to the
    /// same value; the divergence sentinel and the snapshot envelope both
    /// use it.
    pub fn state_fingerprint(&self) -> u64 {
        snapshot::fingerprint(self)
    }
    /// Enables the divergence sentinel: the machine folds
    /// [`Machine::state_fingerprint`] every `every` of simulated time.
    /// Samples accumulate in [`Machine::sentinel_samples`].
    ///
    /// # Panics
    ///
    /// Panics on a zero period.
    pub fn enable_sentinel(&mut self, every: SimDuration) {
        assert!(every > SimDuration::ZERO, "zero sentinel period");
        self.sentinel = Some(DivergenceSentinel {
            every,
            next: self.clock.now() + every,
            samples: Vec::new(),
        });
    }

    /// The sentinel's `(boundary picoseconds, fingerprint)` samples so
    /// far. Empty when the sentinel was never enabled.
    pub fn sentinel_samples(&self) -> &[(u64, u64)] {
        self.sentinel.as_ref().map_or(&[], |s| &s.samples)
    }

    /// Cold path of the sentinel check: called from the telemetry hook
    /// only when a sentinel is installed.
    #[cold]
    fn sentinel_tick(&mut self) {
        let now = self.clock.now();
        let due = matches!(self.sentinel.as_ref(), Some(s) if now >= s.next);
        if !due {
            return;
        }
        let fp = self.state_fingerprint();
        let s = self.sentinel.as_mut().expect("sentinel just checked");
        let boundary = s.next;
        while s.next <= now {
            s.next += s.every;
        }
        s.samples.push((boundary.as_ps(), fp));
    }

    // ------------------------------------------------------------------
    // Run loops
    // ------------------------------------------------------------------

    /// Runs `prog` on a single-vCPU machine to completion.
    ///
    /// # Errors
    ///
    /// [`MachineError::IdleForever`] if the guest halts with nothing armed
    /// to wake it.
    pub fn run(&mut self, prog: &mut dyn GuestProgram) -> Result<RunReport, MachineError> {
        self.run_until(prog, SimTime::MAX)
    }

    /// Runs `prog` until it finishes or the clock passes `deadline`.
    ///
    /// # Errors
    ///
    /// [`MachineError::IdleForever`] if the guest halts with nothing armed
    /// to wake it.
    ///
    /// # Panics
    ///
    /// Panics on a multi-vCPU machine — use [`Machine::run_smp`] with one
    /// program per vCPU there.
    pub fn run_until(
        &mut self,
        prog: &mut dyn GuestProgram,
        deadline: SimTime,
    ) -> Result<RunReport, MachineError> {
        assert_eq!(
            self.vcpus.len(),
            1,
            "run/run_until drive a single-vCPU machine; use run_smp"
        );
        self.run_smp(&mut [prog], deadline)
    }

    /// Runs one program per vCPU until all finish or `deadline` passes.
    ///
    /// Scheduling is a deterministic discrete-event interleaving: among
    /// the runnable vCPUs (not finished, and not halted with an empty
    /// event inbox), the one with the smallest local clock runs next, ties
    /// broken by lowest index. When every unfinished vCPU is halted, time
    /// jumps to the next machine event, which is routed to its target
    /// vCPU. With one vCPU this reduces exactly to the pre-SMP run loop.
    ///
    /// # Errors
    ///
    /// [`MachineError::IdleForever`] if all unfinished vCPUs halt with no
    /// event armed to wake any of them.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one program per vCPU is supplied.
    pub fn run_smp(
        &mut self,
        progs: &mut [&mut dyn GuestProgram],
        deadline: SimTime,
    ) -> Result<RunReport, MachineError> {
        if !self.obs.hostprof.is_enabled() {
            return self.run_smp_inner(progs, deadline);
        }
        // Host-profiled run: everything between here and `run_end` is
        // attributed to exactly one `HostPart` (Scheduler by default).
        // The construction-time window (if still open) stops charging
        // WorkloadSetup here; a re-run on a finished machine opens a
        // fresh window.
        self.obs.hostprof.end_setup();
        self.obs.hostprof.run_begin();
        let out = self.run_smp_inner(progs, deadline);
        let sim_end = (0..self.vcpus.len())
            .map(|i| self.local_now(i))
            .max()
            .unwrap_or(self.clock.now());
        self.obs.hostprof.run_end(sim_end.as_ns() as u64);
        out
    }

    fn run_smp_inner(
        &mut self,
        progs: &mut [&mut dyn GuestProgram],
        deadline: SimTime,
    ) -> Result<RunReport, MachineError> {
        assert_eq!(
            progs.len(),
            self.vcpus.len(),
            "run_smp needs exactly one program per vCPU"
        );
        let n = self.vcpus.len();
        let mut report = RunReport::default();
        let mut finished = vec![false; n];
        loop {
            if finished.iter().all(|&f| f) {
                self.finish_causal();
                return Ok(report);
            }
            let pick = svt_sim::pick_min_local_time(
                (0..n)
                    .filter(|&i| !finished[i])
                    .filter(|&i| {
                        let v = &self.vcpus[i];
                        !v.state.halted || !v.inbox.is_empty()
                    })
                    .map(|i| (i, self.local_now(i))),
            );
            let Some(i) = pick else {
                // Every unfinished vCPU is halted: sleep to the next event
                // and route it to its target vCPU.
                let Some(t) = self.events.next_deadline() else {
                    return Err(MachineError::IdleForever);
                };
                if t >= deadline {
                    // Nothing left to do inside this run's horizon.
                    for (j, done) in finished.iter().enumerate() {
                        if !done {
                            self.advance_vcpu_clock(j, deadline);
                        }
                    }
                    self.finish_causal();
                    return Ok(report);
                }
                let (t, ev) = self.events.pop_next().expect("deadlined event vanished");
                let target = self.event_vcpu(&ev);
                if finished[target] {
                    continue;
                }
                self.advance_vcpu_clock(target, t);
                let cause = self.obs.causal.route("evt_route", target as u32, t, None);
                self.vcpus[target].inbox.push_back((t, ev, cause));
                continue;
            };
            self.switch_to(i);
            if self.record_schedule {
                self.schedule_trace.push(i as u32);
            }
            let mut r = self.vcpus[i]
                .reflector
                .0
                .take()
                .expect("reflector re-entered");
            let outcome = self.run_slice(&mut *r, &mut *progs[i], deadline, &mut report);
            self.vcpus[i].reflector.0 = Some(r);
            match outcome {
                SliceOutcome::Finished => finished[i] = true,
                SliceOutcome::Halted => {}
                SliceOutcome::Deadline => {
                    self.finish_causal();
                    return Ok(report);
                }
            }
        }
    }

    /// End-of-run telemetry: sweeps the causal graph's stale-entry
    /// watchdogs at the latest local clock and harvests violation counts
    /// into the metrics registry, flushes the timeline's final partial
    /// window, and gives the flight recorder a last look at the watchdog
    /// verdicts. No-op when nothing is enabled.
    fn finish_causal(&mut self) {
        let causal = self.obs.causal.is_enabled();
        let timeline = self.obs.timeline.is_enabled();
        let flight = self.obs.flight.is_enabled();
        if !causal && !timeline && !flight {
            return;
        }
        self.obs.hostprof.enter(HostPart::Causal);
        let now = (0..self.vcpus.len())
            .map(|i| self.local_now(i))
            .max()
            .unwrap_or(self.clock.now());
        if causal {
            self.obs.finish_causal(now);
        }
        if timeline {
            let parts = self.total_part_time();
            self.obs.flush_timeline(now, &parts);
        }
        if flight {
            self.obs.watch_flight(now);
        }
        self.obs.hostprof.exit(HostPart::Causal);
    }

    /// Machine-wide per-[`CostPart`] attribution totals: the active clock
    /// plus every parked vCPU clock. (The parked slot belonging to the
    /// running vCPU holds an untouched placeholder and is skipped.) Each
    /// bucket is monotone in simulated time across vCPU switches, so the
    /// timeline's per-window deltas are non-negative.
    pub fn total_part_time(&self) -> [SimDuration; CostPart::COUNT] {
        let mut parts = [SimDuration::ZERO; CostPart::COUNT];
        for p in CostPart::ALL {
            let mut total = self.clock.part_time(p);
            for (j, v) in self.vcpus.iter().enumerate() {
                if j != self.cur {
                    total += v.clock.part_time(p);
                }
            }
            parts[p as usize] = total;
        }
        parts
    }

    /// The per-step telemetry hook: one timeline-due check (a flag load
    /// and a time compare) on the fast path; sampling and watchdog
    /// polling only run once a window boundary has been crossed.
    #[inline]
    fn telemetry_tick(&mut self) {
        if self.sentinel.is_some() {
            self.sentinel_tick();
        }
        let now = self.clock.now();
        if !self.obs.timeline.due(now) {
            return;
        }
        self.obs.hostprof.enter(HostPart::Telemetry);
        let parts = self.total_part_time();
        self.obs.sample_timeline(now, &parts);
        if self.obs.flight.is_enabled() {
            self.obs.watch_flight(now);
        }
        self.obs.hostprof.exit(HostPart::Telemetry);
    }

    /// Runs the current vCPU until it finishes, halts, or passes the
    /// deadline. This is the pre-SMP run loop body, verbatim.
    fn run_slice(
        &mut self,
        r: &mut dyn Reflector,
        prog: &mut dyn GuestProgram,
        deadline: SimTime,
        report: &mut RunReport,
    ) -> SliceOutcome {
        loop {
            if self.clock.now() >= deadline {
                return SliceOutcome::Deadline;
            }
            self.telemetry_tick();
            self.obs.hostprof.enter(HostPart::EventPump);
            self.drain_inbox(r);
            self.pump(r);
            self.obs.hostprof.exit(HostPart::EventPump);
            if self.vstate().halted {
                return SliceOutcome::Halted;
            }
            self.obs.hostprof.enter(HostPart::GuestStep);
            // Deliver any pending virtual interrupts to the guest program.
            while let Some(v) = self.vstate_mut().apic.ack() {
                self.clock.push_part(self.guest_part());
                self.clock.charge(self.cost.guest_irq_entry);
                self.clock.pop_part(self.guest_part());
                self.obs
                    .metrics
                    .inc(MetricKey::new("irq_delivered").level(self.level.obs()));
                let mut ctx = GuestCtx {
                    now: self.clock.now(),
                    mem: &mut self.ram,
                    obs: &mut self.obs,
                };
                prog.interrupt(v, &mut ctx);
            }
            let op = {
                let mut ctx = GuestCtx {
                    now: self.clock.now(),
                    mem: &mut self.ram,
                    obs: &mut self.obs,
                };
                prog.step(&mut ctx)
            };
            report.steps += 1;
            if op == GuestOp::Done {
                self.obs.hostprof.exit(HostPart::GuestStep);
                return SliceOutcome::Finished;
            }
            self.exec_op(r, prog, op);
            self.obs.hostprof.exit(HostPart::GuestStep);
        }
    }

    /// Swaps vCPU `i`'s clock and SMT core into the machine's active
    /// slots. A no-op when `i` is already running — in particular, a
    /// single-vCPU machine never swaps at all.
    fn switch_to(&mut self, i: usize) {
        if i == self.cur {
            return;
        }
        std::mem::swap(&mut self.clock, &mut self.vcpus[self.cur].clock);
        std::mem::swap(&mut self.core, &mut self.vcpus[self.cur].core);
        std::mem::swap(&mut self.clock, &mut self.vcpus[i].clock);
        std::mem::swap(&mut self.core, &mut self.vcpus[i].core);
        self.cur = i;
        self.obs.causal.sched_switch(i as u32, self.clock.now());
        self.obs.metrics.inc(MetricKey::new("vcpu_switch"));
    }

    fn advance_vcpu_clock(&mut self, i: usize, t: SimTime) {
        if i == self.cur {
            self.clock.advance_to(t);
        } else {
            self.vcpus[i].clock.advance_to(t);
        }
    }

    fn guest_part(&self) -> CostPart {
        match self.level {
            Level::L0 => CostPart::L0Native,
            Level::L1 => CostPart::L1Guest,
            Level::L2 => CostPart::L2Guest,
        }
    }

    // ------------------------------------------------------------------
    // Event pump
    // ------------------------------------------------------------------

    /// Which vCPU a machine event belongs to.
    fn event_vcpu(&self, ev: &MachineEvent) -> usize {
        match ev {
            MachineEvent::DeviceComplete { device, .. } => {
                self.device_affinity.get(*device).copied().unwrap_or(0)
            }
            MachineEvent::PhysTimer { vcpu } => *vcpu,
            MachineEvent::IpiToL1Main => 0,
            MachineEvent::Ipi { to, .. } => *to,
        }
    }

    /// Drains due events: the running vCPU's are handled in place, other
    /// vCPUs' are routed to their inboxes for their next slice.
    fn pump(&mut self, r: &mut dyn Reflector) {
        while let Some((t, ev)) = self.events.pop_due(self.clock.now()) {
            let target = self.event_vcpu(&ev);
            if target == self.cur {
                self.handle_event(r, ev);
            } else {
                let cause = self.obs.causal.route("evt_route", target as u32, t, None);
                self.vcpus[target].inbox.push_back((t, ev, cause));
            }
        }
    }

    /// Handles events the scheduler (or another vCPU's pump) routed to the
    /// running vCPU.
    fn drain_inbox(&mut self, r: &mut dyn Reflector) {
        while let Some((t, ev, cause)) = self.vcpus[self.cur].inbox.pop_front() {
            if self.vstate().halted {
                // The vCPU was idle: its local time jumps to the event.
                self.clock.advance_to(t);
            }
            if cause.is_some() {
                self.obs
                    .causal
                    .route_recv("evt_drain", cause, self.clock.now());
            }
            self.handle_event(r, ev);
        }
    }

    fn handle_event(&mut self, r: &mut dyn Reflector, ev: MachineEvent) {
        match ev {
            MachineEvent::DeviceComplete { device, token } => {
                let mut dev = self.devices[device].take().expect("device re-entered");
                let comp = dev.complete(token, &mut self.ram, self.clock.now());
                self.devices[device] = Some(dev);
                if let Some(c) = comp {
                    for (when, tok) in c.schedule.clone() {
                        self.events
                            .schedule(when, MachineEvent::DeviceComplete { device, token: tok });
                    }
                    self.deliver_irq(
                        r,
                        c.vector,
                        IrqWork::Completion {
                            device,
                            completion: c,
                        },
                    );
                }
            }
            MachineEvent::PhysTimer { vcpu } => {
                self.vcpus[vcpu].timer_event = None;
                self.l0.phys_timer = None;
                if self.vstate().apic.tsc_deadline().is_some() {
                    self.deliver_irq(r, VECTOR_TIMER, IrqWork::Timer);
                }
            }
            MachineEvent::IpiToL1Main => {
                // An IPI for L1's main vCPU arriving while no SVt
                // command is in flight is delivered normally. (IPIs
                // landing *during* a command wait are intercepted by
                // the reflector's SVT_BLOCKED path instead.)
                self.clock.push_part(CostPart::L0Handler);
                let c = self.cost.ipi_deliver + self.cost.guest_irq_entry;
                self.clock.charge(c);
                self.clock.pop_part(CostPart::L0Handler);
                self.l1.apic.inject(svt_arch::VECTOR_IPI);
                let v = self.l1.apic.ack();
                debug_assert_eq!(v, Some(svt_arch::VECTOR_IPI));
                self.l1.apic.eoi();
                self.obs.metrics.inc(MetricKey::new("l1_ipi_direct"));
            }
            MachineEvent::Ipi { to, cmd, seq } => {
                debug_assert_eq!(to, self.cur, "IPI routed to the wrong vCPU");
                // Exactly-once: a redelivered sequence number (an injected
                // duplicate, or the late copy of a delayed IPI) is absorbed
                // here, before the causal graph's receive edge or the APIC
                // ever see it.
                if !self.vcpus[to].ipi_rx_seen.insert(seq) {
                    self.obs
                        .metrics
                        .inc(MetricKey::new("ipi_duplicates_absorbed").vcpu(to as u32));
                    return;
                }
                self.obs.causal.ipi_recv(self.clock.now());
                self.obs
                    .metrics
                    .inc(MetricKey::new("ipi_received").vcpu(to as u32));
                match cmd.mode {
                    DeliveryMode::Fixed => self.deliver_irq(r, cmd.vector, IrqWork::Ipi),
                    DeliveryMode::Init => {
                        // INIT parks the target in wait-for-SIPI.
                        let v = self.vstate_mut();
                        v.halted = true;
                        v.rip = 0;
                    }
                    DeliveryMode::Startup => self.vstate_mut().halted = false,
                }
            }
        }
    }

    /// Arms (or replaces) the running vCPU's physical TSC-deadline timer.
    pub(crate) fn arm_phys_timer(&mut self, t: SimTime) {
        if let Some(id) = self.vcpus[self.cur].timer_event.take() {
            self.events.cancel(id);
        }
        let at = t.max(self.clock.now());
        let ev = self
            .events
            .schedule(at, MachineEvent::PhysTimer { vcpu: self.cur });
        self.vcpus[self.cur].timer_event = Some(ev);
        self.l0.phys_timer = Some(at);
    }

    /// Puts a cross-vCPU IPI on the interconnect from a raw x2APIC ICR
    /// write. Malformed commands and out-of-range destinations are dropped
    /// (and counted), as hardware would.
    pub fn send_ipi(&mut self, icr: u64) {
        let Some(cmd) = IcrCommand::decode(icr) else {
            self.obs.metrics.inc(MetricKey::new("ipi_bad_icr"));
            return;
        };
        let to = cmd.dest as usize;
        if to >= self.vcpus.len() {
            self.obs.metrics.inc(MetricKey::new("ipi_dropped"));
            return;
        }
        let seq = self.vcpus[to].ipi_tx_seq;
        self.vcpus[to].ipi_tx_seq += 1;
        let at = self.clock.now() + self.cost.ipi_deliver;
        if self.roll_fault(FaultKind::IpiDrop) {
            // The interconnect loses the message; the (modeled) sender-side
            // retry redelivers the same sequence number one deliver-latency
            // later, so exactly-once survives and the causal edge resolves.
            let redeliver = at + self.cost.ipi_deliver;
            self.events
                .schedule(redeliver, MachineEvent::Ipi { to, cmd, seq });
            self.obs
                .metrics
                .inc(MetricKey::new("ipi_retransmits").vcpu(self.cur as u32));
        } else {
            self.events.schedule(at, MachineEvent::Ipi { to, cmd, seq });
            if self.roll_fault(FaultKind::IpiDuplicate) {
                // A spurious second copy with the same sequence number; the
                // receiver's exactly-once check will absorb it.
                self.events.schedule(
                    at + self.cost.ipi_deliver,
                    MachineEvent::Ipi { to, cmd, seq },
                );
            }
        }
        self.obs.causal.ipi_send(to as u32, self.clock.now());
        self.obs
            .metrics
            .inc(MetricKey::new("ipi_sent").vcpu(self.cur as u32));
    }

    /// Rolls the machine's fault plan for `kind` at the current simulated
    /// instant. On a hit the injection is counted in the metrics registry
    /// (dimension: fault kind); fault-free plans never draw from the RNG.
    pub fn roll_fault(&mut self, kind: FaultKind) -> bool {
        self.obs.hostprof.enter(HostPart::Faults);
        let hit = self.faults.roll_at(self.clock.now(), kind);
        if hit {
            self.obs.hostprof.shape_fold(0xFA00 | kind as u64);
            self.obs
                .metrics
                .inc(MetricKey::new("fault_injected").exit(kind.name()));
        }
        self.obs.hostprof.exit(HostPart::Faults);
        hit
    }

    // ------------------------------------------------------------------
    // Interrupt delivery chains
    // ------------------------------------------------------------------

    fn deliver_irq(&mut self, r: &mut dyn Reflector, vector: u8, work: IrqWork) {
        self.obs
            .metrics
            .inc(MetricKey::new("irq_raised").level(self.level.obs()));
        match self.level {
            Level::L0 => {
                // Native: the handler cost is charged at ack time.
                if let IrqWork::Completion { device, completion } = &work {
                    self.clock.charge_as(CostPart::Device, completion.service);
                    let _ = device;
                }
                if matches!(work, IrqWork::Timer) {
                    let now = self.clock.now();
                    let _ = self.vstate_mut().apic.poll_timer(now);
                } else {
                    self.vstate_mut().apic.inject(vector);
                }
                self.vstate_mut().halted = false;
            }
            Level::L1 => self.deliver_irq_single(vector, work),
            Level::L2 => self.deliver_irq_nested(r, vector, work),
        }
    }

    /// Single-level delivery: L0 services the backend and injects into the
    /// guest.
    fn deliver_irq_single(&mut self, vector: u8, work: IrqWork) {
        let was_halted = self.vstate().halted;
        self.clock.push_tag("EXTERNAL_INTERRUPT");
        if !was_halted {
            // Interrupt exits the running guest.
            self.classic_leave_l1();
        }
        self.clock.push_part(CostPart::L0Handler);
        let c = self.cost.l0_exit_decode + self.cost.l0_run_loop;
        self.clock.charge(c);
        match work {
            IrqWork::Completion { completion, .. } => {
                self.clock.push_part(CostPart::Device);
                self.clock.charge(completion.service);
                self.clock.pop_part(CostPart::Device);
                self.vstate_mut().apic.inject(vector);
            }
            IrqWork::Timer => {
                let now = self.clock.now();
                let _ = self.vstate_mut().apic.poll_timer(now);
            }
            IrqWork::Ipi => {
                self.vstate_mut().apic.inject(vector);
            }
        }
        let c = self.cost.l0_irq_inject + self.cost.l0_entry_prep;
        self.clock.charge(c);
        self.clock.pop_part(CostPart::L0Handler);
        self.classic_enter_l1();
        self.clock.pop_tag("EXTERNAL_INTERRUPT");
        self.vstate_mut().halted = false;
    }

    /// Nested delivery: the full L0→L1→L2 injection chain.
    fn deliver_irq_nested(&mut self, r: &mut dyn Reflector, vector: u8, work: IrqWork) {
        let was_halted = self.vstate().halted;
        self.pending_work = Some(work);
        let reason = ExitReason::ExternalInterrupt { vector };
        self.clock.push_tag("EXTERNAL_INTERRUPT");
        if !was_halted {
            r.l2_trap(self);
        } else {
            // L0 wakes from its idle loop: host IRQ entry plus the
            // scheduler waking the vCPU thread.
            self.clock.push_part(CostPart::L0Handler);
            let c = self.cost.l0_run_loop + self.cost.mutex_wake;
            self.clock.charge(c);
            self.clock.pop_part(CostPart::L0Handler);
        }
        r.reflect(self, reason);
        r.l2_resume(self);
        self.clock.pop_tag("EXTERNAL_INTERRUPT");
        self.vstate_mut().halted = false;
        // The first entry after an event injection immediately exits with
        // an interrupt-window exit that must also be reflected — the extra
        // hop that makes nested interrupt delivery notoriously expensive.
        self.nested_reflect(r, ExitReason::InterruptWindow);
    }

    // ------------------------------------------------------------------
    // Guest operation execution
    // ------------------------------------------------------------------

    fn exec_op(&mut self, r: &mut dyn Reflector, prog: &mut dyn GuestProgram, op: GuestOp) {
        match self.level {
            Level::L0 => self.exec_native(op),
            Level::L1 => self.exec_single(op),
            Level::L2 => self.exec_nested(r, op),
        }
        if let Some(v) = self.pending_result.take() {
            let mut ctx = GuestCtx {
                now: self.clock.now(),
                mem: &mut self.ram,
                obs: &mut self.obs,
            };
            prog.op_result(v, &mut ctx);
        }
    }

    fn exec_native(&mut self, op: GuestOp) {
        self.clock.push_part(CostPart::L0Native);
        match op {
            GuestOp::Compute(d) => self.clock.charge(d),
            GuestOp::Cpuid => {
                let c = self.cost.cpuid_exec;
                self.clock.charge(c);
                self.pending_result = Some(cpuid_value(0));
            }
            GuestOp::MsrWrite { msr, value } => self.l0_wrmsr(msr, value),
            GuestOp::MsrRead { .. } => {
                let c = self.cost.l0_msr_emulate;
                self.clock.charge(c);
                self.pending_result = Some(0);
            }
            GuestOp::MmioWrite { gpa, value } => self.l0_device_access(MmioOp {
                gpa,
                write: true,
                value,
            }),
            GuestOp::MmioRead { gpa } => self.l0_device_access(MmioOp {
                gpa,
                write: false,
                value: 0,
            }),
            GuestOp::Vmcall(_) => {
                let c = self.cost.l0_exit_decode;
                self.clock.charge(c);
            }
            GuestOp::Hlt => self.vstate_mut().halted = true,
            GuestOp::Done => {}
        }
        self.clock.pop_part(CostPart::L0Native);
    }

    /// L0 emulates a `wrmsr` of a guest it runs directly: the
    /// TSC-deadline arms the physical timer, an x2APIC EOI completes the
    /// in-service interrupt, an ICR write sends the IPI.
    fn l0_wrmsr(&mut self, msr: u32, value: u64) {
        let c = self.cost.l0_msr_emulate;
        self.clock.charge(c);
        if msr == MSR_TSC_DEADLINE {
            let t = SimTime::from_ps(value);
            self.vstate_mut().apic.set_tsc_deadline(Some(t));
            self.arm_phys_timer(t);
        } else if msr == MSR_X2APIC_EOI {
            self.vstate_mut().apic.eoi();
        } else if msr == MSR_X2APIC_ICR {
            self.send_ipi(value);
        }
    }

    /// L0 serves a device access of a guest it runs directly: the
    /// backend's service time (part Device), its completions on the event
    /// queue, and a read's value as the op's result.
    fn l0_device_access(&mut self, op: MmioOp) {
        let Some(idx) = self.device_at(op.gpa) else {
            return;
        };
        let out = if op.write {
            self.with_device(idx, |d, mem, now| d.mmio_write(op.gpa, op.value, mem, now))
        } else {
            let (v, out) = self.with_device(idx, |d, mem, now| d.mmio_read(op.gpa, mem, now));
            self.pending_result = Some(v);
            out
        };
        self.clock.push_part(CostPart::Device);
        self.clock.charge(out.service);
        self.clock.pop_part(CostPart::Device);
        for (when, tok) in out.schedule {
            self.events.schedule(
                when,
                MachineEvent::DeviceComplete {
                    device: idx,
                    token: tok,
                },
            );
        }
    }

    // ---- Single-level (program at L1) ---------------------------------

    fn exec_single(&mut self, op: GuestOp) {
        match op {
            GuestOp::Compute(d) => {
                self.clock.push_part(CostPart::L1Guest);
                self.clock.charge(d);
                self.clock.pop_part(CostPart::L1Guest);
            }
            GuestOp::Cpuid => {
                self.clock.push_part(CostPart::L1Guest);
                let c = self.cost.cpuid_exec;
                self.clock.charge(c);
                self.clock.pop_part(CostPart::L1Guest);
                let reason = self.arch.cpuid_exit();
                self.single_exit(reason, 0);
            }
            GuestOp::MsrWrite { msr, value } => {
                if self.l0.policy01.msr_exits(msr) {
                    self.single_exit(ExitReason::MsrWrite { msr }, value);
                }
            }
            GuestOp::MsrRead { msr } => {
                if self.l0.policy01.msr_exits(msr) {
                    self.single_exit(ExitReason::MsrRead { msr }, 0);
                }
            }
            GuestOp::MmioWrite { gpa, value } => {
                if let Err(EptFault::Misconfig { .. }) = self.l0.ept01.translate(gpa, Access::Write)
                {
                    self.pending_mmio = Some(MmioOp {
                        gpa,
                        write: true,
                        value,
                    });
                    self.single_exit(ExitReason::EptMisconfig { gpa }, value);
                }
            }
            GuestOp::MmioRead { gpa } => {
                if let Err(EptFault::Misconfig { .. }) = self.l0.ept01.translate(gpa, Access::Read)
                {
                    self.pending_mmio = Some(MmioOp {
                        gpa,
                        write: false,
                        value: 0,
                    });
                    self.single_exit(ExitReason::EptMisconfig { gpa }, 0);
                }
            }
            GuestOp::Vmcall(nr) => {
                let reason = self.arch.hypercall_exit(nr);
                self.single_exit(reason, 0);
            }
            GuestOp::Hlt => {
                self.single_exit(ExitReason::Hlt, 0);
                self.vstate_mut().halted = true;
            }
            GuestOp::Done => {}
        }
    }

    /// One single-level exit round: guest → L0 → guest.
    fn single_exit(&mut self, reason: ExitReason, value: u64) {
        let tag = self.arch.tag(reason);
        self.obs.hostprof.enter(HostPart::Reflection);
        self.obs.hostprof.trap_begin();
        self.obs.hostprof.shape_fold_str("single");
        self.obs.hostprof.shape_fold_str(tag);
        self.obs
            .metrics
            .inc(MetricKey::new("vm_exit").level(ObsLevel::L1).exit(tag));
        let trap_begin = self.clock.now();
        self.clock.push_tag(tag);
        self.classic_leave_l1();

        self.clock.push_part(CostPart::L0Handler);
        let c = self.cost.l0_exit_decode + self.cost.l0_run_loop + self.cost.l0_mmu_sync;
        self.clock.charge(c);
        match reason {
            ExitReason::Cpuid | ExitReason::VirtInstr => {
                let c = self.cost.l0_cpuid_emulate;
                self.clock.charge(c);
                self.pending_result = Some(cpuid_value(self.vstate().gprs.get(Gpr::Rax)));
            }
            ExitReason::MsrWrite { msr } => self.l0_wrmsr(msr, value),
            ExitReason::MsrRead { .. } => {
                let c = self.cost.l0_msr_emulate;
                self.clock.charge(c);
                self.pending_result = Some(0);
            }
            ExitReason::EptMisconfig { .. } => {
                let c = self.cost.l0_mmio_route;
                self.clock.charge(c);
                if let Some(op) = self.pending_mmio.take() {
                    self.l0_device_access(op);
                }
            }
            ExitReason::Hlt | ExitReason::Vmcall { .. } | ExitReason::SbiCall { .. } => {
                let c = self.cost.l0_exit_decode;
                self.clock.charge(c);
            }
            _ => {}
        }
        let c = self.cost.l0_entry_prep;
        self.clock.charge(c);
        self.clock.pop_part(CostPart::L0Handler);
        self.classic_enter_l1();
        self.clock.pop_tag(tag);
        self.obs.hostprof.trap_end();
        self.obs.hostprof.exit(HostPart::Reflection);
        self.obs.hostprof.enter(HostPart::Metrics);
        let now = self.clock.now();
        self.obs.metrics.observe(
            MetricKey::new("trap_latency_ps")
                .level(ObsLevel::L1)
                .exit(tag),
            now.saturating_since(trap_begin).as_ps(),
        );
        self.obs.hostprof.exit(HostPart::Metrics);
    }

    // ---- Nested (program at L2) ----------------------------------------

    fn exec_nested(&mut self, r: &mut dyn Reflector, op: GuestOp) {
        match op {
            GuestOp::Compute(d) => {
                self.clock.push_part(CostPart::L2Guest);
                self.clock.charge(d);
                self.clock.pop_part(CostPart::L2Guest);
            }
            GuestOp::Cpuid => {
                self.clock.push_part(CostPart::L2Guest);
                let c = self.cost.cpuid_exec;
                self.clock.charge(c);
                self.clock.pop_part(CostPart::L2Guest);
                let reason = self.arch.cpuid_exit();
                self.nested_reflect(r, reason);
            }
            GuestOp::Vmcall(nr) => {
                let reason = self.arch.hypercall_exit(nr);
                self.nested_reflect(r, reason);
            }
            GuestOp::MsrWrite { msr, value } => {
                if self.l0.policy02.msr_exits(msr) {
                    self.pending_msr = Some(value);
                    self.nested_reflect(r, ExitReason::MsrWrite { msr });
                }
            }
            GuestOp::MsrRead { msr } => {
                if self.l0.policy02.msr_exits(msr) {
                    self.nested_reflect(r, ExitReason::MsrRead { msr });
                }
            }
            GuestOp::MmioWrite { gpa, value } => self.nested_mmio(r, gpa, true, value),
            GuestOp::MmioRead { gpa } => self.nested_mmio(r, gpa, false, 0),
            GuestOp::Hlt => {
                self.nested_reflect(r, ExitReason::Hlt);
                self.vstate_mut().halted = true;
            }
            GuestOp::Done => {}
        }
    }

    fn nested_mmio(&mut self, r: &mut dyn Reflector, gpa: Gpa, write: bool, value: u64) {
        let access = if write { Access::Write } else { Access::Read };
        match self.l0.ept02.translate(gpa, access) {
            Ok(_) => {} // plain RAM: cost folded into Compute steps
            Err(EptFault::Misconfig { .. }) => {
                self.pending_mmio = Some(MmioOp { gpa, write, value });
                self.nested_reflect(r, ExitReason::EptMisconfig { gpa });
            }
            Err(EptFault::Violation { .. }) => {
                // L0 handles EPT violations itself: lazy ept02 fill from
                // ept12 ∘ ept01 — no L1 involvement (the case full nested
                // hardware support would also need).
                self.nested_l0_direct(r, ExitReason::EptViolation { gpa, write });
                // Retry: now either mapped or MMIO.
                if self.l0.ept02.translate(gpa, access).is_err() {
                    self.pending_mmio = Some(MmioOp { gpa, write, value });
                    self.nested_reflect(r, ExitReason::EptMisconfig { gpa });
                }
            }
        }
    }

    /// A nested exit L0 handles without reflecting to L1.
    fn nested_l0_direct(&mut self, r: &mut dyn Reflector, reason: ExitReason) {
        let tag = self.arch.tag(reason);
        self.obs.hostprof.enter(HostPart::Reflection);
        self.obs.hostprof.trap_begin();
        self.obs.hostprof.shape_fold_str("l0-direct");
        self.obs.hostprof.shape_fold_str(tag);
        self.obs.hostprof.shape_fold_str(r.name());
        self.obs.metrics.inc(
            MetricKey::new("l0_direct_exit")
                .level(ObsLevel::L2)
                .exit(tag)
                .reflector(r.name()),
        );
        self.clock.push_tag(tag);
        r.l2_trap(self);
        self.clock.push_part(CostPart::L0Handler);
        let c = self.cost.l0_exit_decode + self.cost.l0_run_loop + self.cost.l0_mmu_sync;
        self.clock.charge(c);
        if !r.elides_lazy_sync() {
            let c = self.cost.l0_lazy_sync;
            self.clock.charge(c);
        }
        if let ExitReason::EptViolation { gpa, .. } = reason {
            // Compose the single missing translation.
            let page = gpa.page();
            if let Ok(g1) = self.l1.ept12.translate(gpa, Access::Read) {
                if self.l0.ept01.translate(g1, Access::Read).is_ok() {
                    self.l0
                        .ept02
                        .map_page(page, g1.page(), svt_arch::EptPerms::RWX);
                } else if matches!(
                    self.l0.ept01.translate(g1, Access::Read),
                    Err(EptFault::Misconfig { .. })
                ) {
                    self.l0.ept02.mark_mmio(page);
                }
            } else if matches!(
                self.l1.ept12.translate(gpa, Access::Read),
                Err(EptFault::Misconfig { .. })
            ) {
                self.l0.ept02.mark_mmio(page);
            }
            let c = self.cost.l0_mmu_sync;
            self.clock.charge(c);
        }
        let c = self.cost.l0_entry_prep;
        self.clock.charge(c);
        self.clock.pop_part(CostPart::L0Handler);
        r.l2_resume(self);
        self.clock.pop_tag(tag);
        self.obs.hostprof.trap_end();
        self.obs.hostprof.exit(HostPart::Reflection);
    }

    /// The full Algorithm 1 chain for one reflected nested exit.
    pub(crate) fn nested_reflect(&mut self, r: &mut dyn Reflector, reason: ExitReason) {
        let tag = self.arch.tag(reason);
        self.obs.hostprof.enter(HostPart::Reflection);
        self.obs.hostprof.trap_begin();
        self.obs.hostprof.shape_fold_str("reflect");
        self.obs.hostprof.shape_fold_str(tag);
        self.obs.hostprof.shape_fold_str(r.name());
        self.obs.hostprof.shape_fold_str(r.health());
        self.obs.metrics.inc(
            MetricKey::new("vm_exit")
                .level(ObsLevel::L2)
                .exit(tag)
                .reflector(r.name()),
        );
        let trap_begin = self.clock.now();
        self.clock.push_tag(tag);
        r.l2_trap(self); // part 1 (first half)
        self.obs
            .causal
            .span_close("l2_exit", ObsLevel::L2, trap_begin, self.clock.now());
        r.reflect(self, reason); // parts 2 + 3 + 4 + 5
        let resume_begin = self.clock.now();
        r.l2_resume(self); // part 1 (second half)
        self.clock.pop_tag(tag);
        self.obs.hostprof.trap_end();
        self.obs.hostprof.exit(HostPart::Reflection);
        self.obs.hostprof.enter(HostPart::Metrics);
        let now = self.clock.now();
        self.obs
            .causal
            .span_close("l2_resume", ObsLevel::L2, resume_begin, now);
        self.obs.metrics.observe(
            MetricKey::new("trap_latency_ps")
                .level(ObsLevel::L2)
                .exit(tag)
                .reflector(r.name()),
            now.saturating_since(trap_begin).as_ps(),
        );
        self.obs.hostprof.exit(HostPart::Metrics);
    }

    /// L0's first leg: decode the exit and decide to reflect (Algorithm 1
    /// lines 2–3 prologue). `elide_lazy_sync` skips the lazily-synced
    /// context state (the HW SVt elision).
    pub fn l0_leg_a(&mut self, elide_lazy_sync: bool) {
        let begin = self.clock.now();
        self.clock.push_part(CostPart::L0Handler);
        let c = self.cost.l0_exit_decode + self.cost.l0_run_loop + self.cost.l0_mmu_sync;
        self.clock.charge(c);
        if !elide_lazy_sync {
            let c = self.cost.l0_lazy_sync;
            self.clock.charge(c);
        }
        let c = self.cost.l0_nested_route;
        self.clock.charge(c);
        self.clock.pop_part(CostPart::L0Handler);
        self.obs
            .causal
            .span_close("l0_leg_a", ObsLevel::L0, begin, self.clock.now());
    }

    /// L0's second leg: validate L1's emulated VMRESUME (Algorithm 1
    /// line 12–13). `elide_lazy_sync` skips the lazily-synced context
    /// state (the HW SVt elision).
    pub fn l0_leg_b(&mut self, elide_lazy_sync: bool) {
        let begin = self.clock.now();
        self.clock.push_part(CostPart::L0Handler);
        let c = self.cost.l0_exit_decode + self.cost.l0_run_loop + self.cost.l0_mmu_sync;
        self.clock.charge(c);
        if !elide_lazy_sync {
            let c = self.cost.l0_lazy_sync;
            self.clock.charge(c);
        }
        let c = self.cost.l0_vmresume_checks;
        self.clock.charge(c);
        if !elide_lazy_sync {
            // Consistency checks read the entry-relevant fields plus the
            // control pair from vmcs12.
            for f in VmcsField::ENTRY_FIELDS {
                let _ = self.vm_read(VmcsId::V12, f);
            }
            let _ = self.vm_read(VmcsId::V12, VmcsField::ProcBasedControls);
            let _ = self.vm_read(VmcsId::V12, VmcsField::PinBasedControls);
        }
        self.clock.pop_part(CostPart::L0Handler);
        self.obs
            .causal
            .span_close("l0_leg_b", ObsLevel::L0, begin, self.clock.now());
    }

    /// L0's entry preparation right before resuming L2.
    pub fn l0_entry_finish(&mut self) {
        let begin = self.clock.now();
        self.clock.push_part(CostPart::L0Handler);
        let c = self.cost.l0_entry_prep;
        self.clock.charge(c);
        self.clock.pop_part(CostPart::L0Handler);
        self.obs
            .causal
            .span_close("l0_entry_finish", ObsLevel::L0, begin, self.clock.now());
    }

    // ------------------------------------------------------------------
    // VMCS plumbing
    // ------------------------------------------------------------------

    fn vmcs_mut_internal(&mut self, id: VmcsId) -> &mut svt_arch::Vmcs {
        let v = &mut self.vcpus[self.cur];
        match id {
            VmcsId::V01 => &mut v.vmcs01,
            VmcsId::V12 => &mut v.vmcs12,
            VmcsId::V02 => &mut v.vmcs02,
        }
    }

    /// A charged `vmread`.
    pub fn vm_read(&mut self, id: VmcsId, f: VmcsField) -> u64 {
        self.obs
            .hostprof
            .shape_fold_vmcs(id as u64, f.index(), false);
        let c = self.cost.vmread;
        self.clock.charge(c);
        self.vmcs_mut_internal(id).read(f)
    }

    /// A charged `vmwrite`.
    pub fn vm_write(&mut self, id: VmcsId, f: VmcsField, v: u64) {
        self.obs
            .hostprof
            .shape_fold_vmcs(id as u64, f.index(), true);
        let c = self.cost.vmwrite;
        self.clock.charge(c);
        self.vmcs_mut_internal(id).write(f, v);
    }

    /// Hardware autosave of L2 state into vmcs02 at exit (uncharged: part
    /// of the hardware exit cost).
    pub fn hw_exit_autosave(&mut self) {
        let v = &mut self.vcpus[self.cur];
        let rip = v.state.rip;
        v.vmcs02.write(VmcsField::GuestRip, rip);
    }

    /// Hardware load of L2 state from vmcs02 at entry, including any
    /// event injection programmed in `VmEntryIntrInfo`.
    pub fn hw_entry_load(&mut self) {
        let v = &mut self.vcpus[self.cur];
        v.state.rip = v.vmcs02.read(VmcsField::GuestRip);
        let info = v.vmcs02.read(VmcsField::VmEntryIntrInfo);
        if info & 0x8000_0000 != 0 {
            v.state.apic.inject(info as u8);
            v.vmcs02.write(VmcsField::VmEntryIntrInfo, 0);
        }
    }

    /// The forward transformation (Algorithm 1 line 3): reflect L2's
    /// lazily-synced state from vmcs02 into vmcs12.
    pub fn forward_transform(&mut self) {
        let begin = self.clock.now();
        self.clock.push_part(CostPart::Transform);
        let c = self.cost.transform_fixed;
        self.clock.charge(c);
        self.obs
            .metrics
            .inc(MetricKey::new("transform_fwd").level(ObsLevel::L0));
        for f in VmcsField::SYNC_FIELDS {
            let v = self.vm_read(VmcsId::V02, f);
            self.vm_write(VmcsId::V12, f, v);
        }
        self.clock.pop_part(CostPart::Transform);
        self.obs
            .causal
            .span_close("forward_transform", ObsLevel::L0, begin, self.clock.now());
    }

    /// The backward transformation (Algorithm 1 line 14): apply L1's
    /// changes from vmcs12 into vmcs02 before resuming L2.
    pub fn backward_transform(&mut self) {
        let begin = self.clock.now();
        self.clock.push_part(CostPart::Transform);
        let c = self.cost.transform_fixed;
        self.clock.charge(c);
        self.obs
            .metrics
            .inc(MetricKey::new("transform_bwd").level(ObsLevel::L0));
        for f in VmcsField::ENTRY_FIELDS {
            let v = self.vm_read(VmcsId::V12, f);
            self.vm_write(VmcsId::V02, f, v);
        }
        self.clock.pop_part(CostPart::Transform);
        self.obs
            .causal
            .span_close("backward_transform", ObsLevel::L0, begin, self.clock.now());
    }

    /// Injects the exit information into vmcs12 (Algorithm 1 line 5).
    pub fn inject_into_vmcs12(&mut self, reason: ExitReason) {
        let begin = self.clock.now();
        self.clock.push_part(CostPart::L0Handler);
        let c = self.cost.l0_inject_fixed;
        self.clock.charge(c);
        let (code, qual) = self.arch.encode(reason);
        let values = [code, qual, 0, 0, 0, 0, 2, 0];
        for (f, v) in VmcsField::INJECT_FIELDS.iter().zip(values) {
            self.vm_write(VmcsId::V12, *f, v);
        }
        let c = self.cost.l0_entry_prep;
        self.clock.charge(c);
        self.clock.pop_part(CostPart::L0Handler);
        self.obs
            .causal
            .span_close("inject_vmcs12", ObsLevel::L0, begin, self.clock.now());
    }

    // ------------------------------------------------------------------
    // Classic single-thread switch mechanics (the baseline reflector's,
    // and every other engine's wherever it falls back to them)
    // ------------------------------------------------------------------

    /// World-switch extra cost of crossing into or out of L1: only a
    /// hypervisor-capable L1 carries the heavy MSR/FPU state.
    fn world_extra(&self) -> SimDuration {
        if self.l1.is_hypervisor {
            self.cost.world_switch_extra
        } else {
            SimDuration::ZERO
        }
    }

    /// The classic L2 exit (Table 1 part ①, first half): the hardware VM
    /// exit and the register spill, then the hardware autosave of L2's
    /// state into vmcs02.
    pub fn classic_l2_exit(&mut self) {
        self.clock.push_part(CostPart::SwitchL2L0);
        let c = self.cost.vm_exit_hw + self.cost.gpr_thunk();
        self.clock.charge(c);
        self.clock.pop_part(CostPart::SwitchL2L0);
        self.hw_exit_autosave();
    }

    /// The classic L2 entry (part ①, second half): the register reload
    /// and the hardware VM entry, which loads L2's state from vmcs02.
    pub fn classic_l2_entry(&mut self) {
        self.clock.push_part(CostPart::SwitchL2L0);
        let c = self.cost.gpr_thunk() + self.cost.vm_entry_hw;
        self.clock.charge(c);
        self.clock.pop_part(CostPart::SwitchL2L0);
        self.hw_entry_load();
    }

    /// The world switch from L0 into L1 (part ④): hardware entry,
    /// register reload and the world extra, recorded as the `l1_entry`
    /// span.
    pub fn classic_enter_l1(&mut self) {
        let begin = self.clock.now();
        self.clock.push_part(CostPart::SwitchL0L1);
        let c = self.cost.vm_entry_hw + self.cost.gpr_thunk() + self.world_extra();
        self.clock.charge(c);
        self.clock.pop_part(CostPart::SwitchL0L1);
        self.obs
            .causal
            .span_close("l1_entry", ObsLevel::L1, begin, self.clock.now());
    }

    /// The world switch from L1 back into L0 (part ④): hardware exit,
    /// register spill and the world extra, recorded as the `l1_exit`
    /// span.
    pub fn classic_leave_l1(&mut self) {
        let begin = self.clock.now();
        self.clock.push_part(CostPart::SwitchL0L1);
        let c = self.cost.vm_exit_hw + self.cost.gpr_thunk() + self.world_extra();
        self.clock.charge(c);
        self.clock.pop_part(CostPart::SwitchL0L1);
        self.obs
            .causal
            .span_close("l1_exit", ObsLevel::L1, begin, self.clock.now());
    }

    /// One privileged operation of L1 trapping into L0 and back on a
    /// single hardware thread (Algorithm 1 lines 8–10): both world
    /// switches, charged under the caller's part (Table 1 folds them
    /// into part ⑤). Returns the result for reads.
    pub fn classic_l1_trap(&mut self, exit: ExitReason, value: u64) -> u64 {
        let c = self.cost.vm_exit_hw + self.cost.gpr_thunk() + self.world_extra();
        self.clock.charge(c);
        let result = self.l0_handle_l1_exit(exit, value);
        let c = self.cost.vm_entry_hw + self.cost.gpr_thunk() + self.world_extra();
        self.clock.charge(c);
        result
    }

    // ------------------------------------------------------------------
    // L1 guest-hypervisor handler (runs via Reflector::run_l1)
    // ------------------------------------------------------------------

    /// L1's VM-exit handler for a reflected L2 trap (Algorithm 1 lines
    /// 7–11), charged to part ⑤.
    pub fn l1_handle_exit<R: Reflector + ?Sized>(&mut self, r: &mut R, exit: ExitReason) {
        self.clock.push_part(CostPart::L1Handler);
        let handler_begin = self.clock.now();
        let c = self.cost.l1_exit_decode;
        self.clock.charge(c);
        // Learn the exit information (vmcs01' reads, or the SW-SVt ring
        // command payload).
        let (code, qual) = r.l1_read_exit_info(self);
        let decoded = self.arch.decode(code, qual);
        debug_assert_eq!(decoded, Some(exit), "exit info round trip");

        match exit {
            ExitReason::Cpuid | ExitReason::VirtInstr => {
                let leaf = r.l2_gpr_read(self, Gpr::Rax);
                let c = self.cost.cpuid_emulate;
                self.clock.charge(c);
                let v = cpuid_value(leaf);
                r.l2_gpr_write(self, Gpr::Rax, v);
                r.l2_gpr_write(self, Gpr::Rbx, v ^ 0x1);
                r.l2_gpr_write(self, Gpr::Rcx, v ^ 0x2);
                r.l2_gpr_write(self, Gpr::Rdx, v ^ 0x3);
                self.pending_result = Some(v);
                self.l1_advance_rip(r);
                self.l1_folded_control_write(r);
            }
            ExitReason::MsrWrite { msr } => {
                let value = self.pending_msr.take().unwrap_or(0);
                let c = self.cost.l1_msr_emulate;
                self.clock.charge(c);
                if msr == MSR_TSC_DEADLINE {
                    let t = SimTime::from_ps(value);
                    self.l1.l2_deadline = Some(t);
                    self.vstate_mut().apic.set_tsc_deadline(Some(t));
                    // L1 reprograms the physical timer: its own wrmsr traps
                    // into L0 (one of the "many more traps").
                    r.l1_exit_roundtrip(
                        self,
                        ExitReason::MsrWrite {
                            msr: MSR_TSC_DEADLINE,
                        },
                        value,
                    );
                } else if msr == MSR_X2APIC_EOI {
                    // L1 completes the virtual EOI, then EOIs its own APIC,
                    // which traps again.
                    self.vstate_mut().apic.eoi();
                    r.l1_exit_roundtrip(
                        self,
                        ExitReason::MsrWrite {
                            msr: MSR_X2APIC_EOI,
                        },
                        0,
                    );
                } else if msr == MSR_X2APIC_ICR {
                    // L1 relays the guest's IPI: its own ICR write traps
                    // into L0, which puts it on the interconnect.
                    r.l1_exit_roundtrip(
                        self,
                        ExitReason::MsrWrite {
                            msr: MSR_X2APIC_ICR,
                        },
                        value,
                    );
                }
                self.l1_advance_rip(r);
            }
            ExitReason::MsrRead { .. } => {
                let c = self.cost.l1_msr_emulate;
                self.clock.charge(c);
                self.pending_result = Some(0);
                self.l1_advance_rip(r);
            }
            ExitReason::EptMisconfig { gpa } => {
                let c = self.cost.l1_mmio_route;
                self.clock.charge(c);
                let op = self.pending_mmio.take();
                if let (Some(idx), Some(op)) = (self.device_at(gpa), op) {
                    self.l1_device_access(r, idx, op);
                }
                self.l1_advance_rip(r);
                self.l1_folded_control_write(r);
            }
            ExitReason::ExternalInterrupt { vector } => {
                let work = self.pending_work.take();
                match work {
                    Some(IrqWork::Completion { device, completion }) => {
                        self.clock.push_part(CostPart::Device);
                        self.clock.charge(completion.service);
                        self.clock.pop_part(CostPart::Device);
                        for _ in 0..completion.backend_l1_exits {
                            r.l1_exit_roundtrip(
                                self,
                                ExitReason::IoInstruction {
                                    port: 0,
                                    write: true,
                                },
                                0,
                            );
                        }
                        let _ = device;
                        self.l1_inject_to_l2(r, vector);
                    }
                    Some(IrqWork::Timer) => {
                        let c = self.cost.l1_msr_emulate;
                        self.clock.charge(c);
                        let now = self.clock.now();
                        let _ = self.vstate_mut().apic.poll_timer(now);
                        self.l1_inject_to_l2_raw(r);
                    }
                    Some(IrqWork::Ipi) | None => {
                        self.l1_inject_to_l2(r, vector);
                    }
                }
            }
            ExitReason::InterruptWindow => {
                // Injection bookkeeping: the pending event is now delivered.
                let c = self.cost.l0_irq_inject;
                self.clock.charge(c);
                self.l1_vmwrite(r, VmcsField::VmEntryIntrInfo, 0);
            }
            ExitReason::Hlt => {
                // L1 blocks the vCPU; scheduling bookkeeping only.
                let c = self.cost.l1_msr_emulate;
                self.clock.charge(c);
                self.l1_advance_rip(r);
            }
            ExitReason::Vmcall { .. } | ExitReason::SbiCall { .. } => {
                let c = self.cost.cpuid_emulate;
                self.clock.charge(c);
                self.pending_result = Some(0);
                self.l1_advance_rip(r);
                self.l1_folded_control_write(r);
            }
            _ => {
                let c = self.cost.l1_exit_decode;
                self.clock.charge(c);
            }
        }
        // I/O-class handlers touch several unshadowable fields while
        // injecting events and driving their backends — each access is a
        // genuine nested trap (the "many more traps" of § 2.3).
        if matches!(
            exit,
            ExitReason::EptMisconfig { .. }
                | ExitReason::ExternalInterrupt { .. }
                | ExitReason::InterruptWindow
                | ExitReason::Hlt
        ) {
            for i in 0..IO_HANDLER_EXTRA_TRAPS {
                if i % 2 == 0 {
                    self.l1_vmwrite(r, VmcsField::PinBasedControls, 0);
                } else {
                    let _ = self.l1_vmread(r, VmcsField::MsrBitmap);
                }
            }
        }
        let c = self.cost.l1_run_loop;
        self.clock.charge(c);
        self.obs
            .causal
            .span_close("l1_handler", ObsLevel::L1, handler_begin, self.clock.now());
        self.obs.metrics.inc(
            MetricKey::new("l1_handler_runs")
                .level(ObsLevel::L1)
                .exit(self.arch.tag(exit)),
        );
        self.clock.pop_part(CostPart::L1Handler);
    }

    /// L1 services a device access for L2 (its QEMU/vhost backend).
    fn l1_device_access<R: Reflector + ?Sized>(&mut self, r: &mut R, idx: usize, op: MmioOp) {
        let outcome = if op.write {
            self.with_device(idx, |d, mem, now| d.mmio_write(op.gpa, op.value, mem, now))
        } else {
            let (v, out) = self.with_device(idx, |d, mem, now| d.mmio_read(op.gpa, mem, now));
            self.pending_result = Some(v);
            out
        };
        self.clock.push_part(CostPart::Device);
        self.clock.charge(outcome.service);
        self.clock.pop_part(CostPart::Device);
        for _ in 0..outcome.backend_l1_exits {
            r.l1_exit_roundtrip(
                self,
                ExitReason::IoInstruction {
                    port: 0,
                    write: true,
                },
                0,
            );
        }
        for (when, tok) in outcome.schedule {
            self.events.schedule(
                when,
                MachineEvent::DeviceComplete {
                    device: idx,
                    token: tok,
                },
            );
        }
    }

    /// L1 injects a virtual interrupt into L2 via the entry-interruption
    /// field of vmcs01' (shadow-writable).
    fn l1_inject_to_l2<R: Reflector + ?Sized>(&mut self, r: &mut R, vector: u8) {
        self.vstate_mut().apic.inject(vector);
        self.obs
            .metrics
            .inc(MetricKey::new("irq_injected").level(ObsLevel::L1));
        self.l1_inject_to_l2_raw(r);
    }

    fn l1_inject_to_l2_raw<R: Reflector + ?Sized>(&mut self, r: &mut R) {
        let c = self.cost.l0_irq_inject;
        self.clock.charge(c);
        self.l1_vmwrite(r, VmcsField::VmEntryIntrInfo, 0);
    }

    fn l1_advance_rip<R: Reflector + ?Sized>(&mut self, r: &mut R) {
        let rip = self.vcpus[self.cur].vmcs12.read(VmcsField::GuestRip);
        self.l1_vmwrite(r, VmcsField::GuestRip, rip + 2);
    }

    /// The one unshadowable control-field write every L1 handler performs
    /// (interrupt-window update) — the nested trap "folded into ⑤" of
    /// Table 1.
    fn l1_folded_control_write<R: Reflector + ?Sized>(&mut self, r: &mut R) {
        let v = self.vcpus[self.cur]
            .vmcs12
            .read(VmcsField::ProcBasedControls);
        self.l1_vmwrite(r, VmcsField::ProcBasedControls, v);
    }

    /// An L1 `vmread` of vmcs01': shadow-satisfied when possible,
    /// otherwise a real trap into L0.
    pub fn l1_vmread<R: Reflector + ?Sized>(&mut self, r: &mut R, f: VmcsField) -> u64 {
        if self.shadowing && f.shadow_readable() {
            let c = self.cost.vmread;
            self.clock.charge(c);
            self.vcpus[self.cur].vmcs12.read(f)
        } else {
            r.l1_exit_roundtrip(self, ExitReason::Vmread { field: f }, 0)
        }
    }

    /// An L1 `vmwrite` of vmcs01': shadow-satisfied when possible,
    /// otherwise a real trap into L0.
    pub fn l1_vmwrite<R: Reflector + ?Sized>(&mut self, r: &mut R, f: VmcsField, v: u64) {
        if self.shadowing && f.shadow_writable() {
            let c = self.cost.vmwrite;
            self.clock.charge(c);
            self.vcpus[self.cur].vmcs12.write(f, v);
        } else {
            r.l1_exit_roundtrip(self, ExitReason::Vmwrite { field: f }, v);
        }
    }

    // ------------------------------------------------------------------
    // L0's handling of exits taken *by* L1 (Algorithm 1 lines 8–10)
    // ------------------------------------------------------------------

    /// L0-side work of one L1 exit. Returns the result value for reads.
    pub fn l0_handle_l1_exit(&mut self, exit: ExitReason, value: u64) -> u64 {
        let tag = self.arch.tag(exit);
        self.obs.hostprof.shape_fold_str(tag);
        self.obs
            .metrics
            .inc(MetricKey::new("l1_exit").level(ObsLevel::L1).exit(tag));
        match exit {
            ExitReason::Vmread { field } => {
                let c = self.cost.l0_exit_decode + self.cost.l0_vmrw_emulate;
                self.clock.charge(c);
                self.vcpus[self.cur].vmcs12.read(field)
            }
            ExitReason::Vmwrite { field } => {
                let c = self.cost.l0_exit_decode + self.cost.l0_vmrw_emulate;
                self.clock.charge(c);
                if field.is_address() {
                    let c = self.cost.transform_addr_translate;
                    self.clock.charge(c);
                }
                self.vcpus[self.cur].vmcs12.write(field, value);
                0
            }
            ExitReason::MsrWrite { msr } => {
                let c = self.cost.l0_exit_decode + self.cost.l0_run_loop + self.cost.l0_msr_emulate;
                self.clock.charge(c);
                if msr == MSR_TSC_DEADLINE {
                    self.arm_phys_timer(SimTime::from_ps(value));
                } else if msr == MSR_X2APIC_ICR {
                    self.send_ipi(value);
                }
                0
            }
            ExitReason::IoInstruction { .. } => {
                let c = self.cost.l0_exit_decode + self.cost.l0_run_loop + self.cost.l0_mmio_route;
                self.clock.charge(c);
                0
            }
            ExitReason::Vmcall { .. } | ExitReason::SbiCall { .. } => {
                let c = self.cost.l0_exit_decode + self.cost.l0_run_loop;
                self.clock.charge(c);
                0
            }
            _ => {
                let c = self.cost.l0_exit_decode + self.cost.l0_run_loop;
                self.clock.charge(c);
                0
            }
        }
    }

    // ------------------------------------------------------------------
    // Devices
    // ------------------------------------------------------------------

    /// Harvests every registered device's [`DeviceModel::obs_counters`]
    /// into the metrics registry as machine-level gauges. Values are
    /// absolute totals, so calling this repeatedly is idempotent.
    pub fn harvest_device_metrics(&mut self) {
        for slot in &self.devices {
            let Some(dev) = slot.as_ref() else { continue };
            for (name, v) in dev.obs_counters() {
                self.obs
                    .metrics
                    .set_gauge(MetricKey::new(name).level(ObsLevel::Machine), v as f64);
            }
        }
    }

    fn device_at(&self, gpa: Gpa) -> Option<usize> {
        self.devices.iter().position(|d| {
            d.as_ref()
                .is_some_and(|d| crate::device::device_claims(d.as_ref(), gpa))
        })
    }

    fn with_device<T>(
        &mut self,
        idx: usize,
        f: impl FnOnce(&mut dyn DeviceModel, &mut GuestMemory, SimTime) -> T,
    ) -> T {
        let mut dev = self.devices[idx].take().expect("device re-entered");
        let out = f(dev.as_mut(), &mut self.ram, self.clock.now());
        self.devices[idx] = Some(dev);
        out
    }

    // ------------------------------------------------------------------
    // Nested bootstrap
    // ------------------------------------------------------------------

    /// The scripted nested bootstrap: L1 creates vmcs01', L0 shadows it
    /// into vmcs12 and builds vmcs02 (§ 2.1 and Fig. 2), all on the
    /// running vCPU's descriptor set. Costs are charged but typically
    /// excluded from measurements via [`Clock::reset_attribution`].
    fn boot_nested(&mut self) {
        let mut r = self.vcpus[self.cur]
            .reflector
            .0
            .take()
            .expect("reflector re-entered");
        // L1's vmptrld of vmcs01' traps; L0 starts shadowing (full copy).
        let c = self.cost.vmptrld;
        self.clock.charge(c);
        let region = self.vcpus[self.cur].vmcs12.region();
        r.l1_exit_roundtrip(self, ExitReason::Vmptrld { region }, 0);
        // L1 programs the guest-state and control fields of vmcs01'; the
        // unshadowable ones each trap into L0.
        let fields: Vec<VmcsField> = VmcsField::ALL
            .iter()
            .copied()
            .filter(|f| {
                matches!(
                    f.group(),
                    svt_arch::FieldGroup::Guest | svt_arch::FieldGroup::Control
                )
            })
            .collect();
        for f in fields {
            self.l1_vmwrite(&mut *r, f, 0x1000 + f.index() as u64);
        }
        // L1's vmlaunch traps; L0 transforms the full vmcs12 into vmcs02,
        // translating address-bearing fields through ept01.
        r.l1_exit_roundtrip(self, ExitReason::Vmlaunch, 0);
        let addr_fields: Vec<VmcsField> = VmcsField::address_fields().collect();
        for f in addr_fields {
            let v = self.vm_read(VmcsId::V12, f);
            let c = self.cost.transform_addr_translate;
            self.clock.charge(c);
            self.vm_write(VmcsId::V02, f, v);
        }
        self.backward_transform();
        {
            let cur = self.cur;
            let Machine { l0, l1, vcpus, .. } = self;
            program_vmcs02(l0, l1, &mut vcpus[cur].vmcs02);
        }
        self.vcpus[self.cur].vmcs02.set_launched();
        self.vcpus[self.cur].vmcs12.set_launched();
        self.vcpus[self.cur].reflector.0 = Some(r);
    }
}

/// Extra L1→L0 traps per reflected I/O-class exit. The cpuid handler of
/// Table 1 is the paper's explicit best case — "L1 handlers for other
/// types of traps trigger many more traps into L0" (§ 2.3): interrupt
/// injection, APIC emulation and queue processing touch several
/// unshadowable VMCS fields each.
pub const IO_HANDLER_EXTRA_TRAPS: u32 = 4;

/// Synthetic CPUID result for a leaf.
pub fn cpuid_value(leaf: u64) -> u64 {
    0x5654_0000 | (leaf & 0xffff)
}
