//! One virtual CPU of the simulated machine.
//!
//! The SMP refactor extracts everything that was per-guest state in the
//! original single-vCPU machine into [`Vcpu`]: the architectural vCPU
//! state, the full per-vCPU nested VMCS set of the paper's Fig. 2
//! (`vmcs01`/`vmcs12`/`vmcs02` — each vCPU of an SMP guest runs on its own
//! descriptor web), the switch engine ([`Reflector`]) bound to the vCPU's
//! physical core, and the scheduling bookkeeping the discrete-event vCPU
//! scheduler needs (a parked [`Clock`], the parked SMT core, and an inbox
//! of machine events routed to this vCPU while another one was running).

use std::collections::VecDeque;

use svt_arch::{Vmcs, VmcsRole};
use svt_cpu::SmtCore;
use svt_mem::Gpa;
use svt_obs::CausalEventId;
use svt_sim::snapshot::{
    load_nested, load_shape, save_nested, Sink, Snap, SnapDyn, SnapError, SnapReader,
};
use svt_sim::{snap_fields, Clock, CpuLoc, EventId, SimTime};

use crate::reflector::Reflector;
use crate::state::{MachineEvent, VcpuState};

/// Stride between consecutive vCPUs' VMCS guest-physical regions. vCPU 0
/// keeps the historical `0x1000/0x2000/0x3000` addresses so single-vCPU
/// traces are bit-identical to the pre-SMP machine.
pub const VMCS_REGION_STRIDE: u64 = 0x10000;

/// One virtual CPU: architectural state plus its private nested stack.
pub struct Vcpu {
    /// The vCPU index (also its x2APIC id for IPI addressing).
    pub id: u32,
    /// The physical hardware thread this vCPU is pinned to. Its SMT
    /// sibling (thread 1 of the same core) hosts the vCPU's SVt contexts.
    pub loc: CpuLoc,
    /// Architectural vCPU state (APIC, GPRs, halted flag, RIP).
    pub state: VcpuState,
    /// Descriptor running this vCPU's L1 thread.
    pub vmcs01: Vmcs,
    /// Shadow of L1's descriptor for this vCPU's L2 thread.
    pub vmcs12: Vmcs,
    /// The descriptor this vCPU's L2 thread actually runs on.
    pub vmcs02: Vmcs,
    /// Parked clock while the vCPU is not the one installed in
    /// `Machine::clock` (the scheduler swaps it in on switch).
    pub(crate) clock: Clock,
    /// Parked SMT core, swapped like `clock`.
    pub(crate) core: SmtCore,
    /// The vCPU's switch engine (one SVt context pair per physical core).
    pub(crate) reflector: Engine,
    /// Handle of this vCPU's armed physical timer event, if any.
    pub(crate) timer_event: Option<EventId>,
    /// Events routed to this vCPU while another vCPU was executing; each
    /// entry carries the instant the event was due plus the causal-graph
    /// id of the routing hop (None when causal tracing is disabled).
    pub(crate) inbox: VecDeque<(SimTime, MachineEvent, Option<CausalEventId>)>,
    /// Next interconnect sequence number for IPIs *to* this vCPU
    /// (incremented by the sender).
    pub(crate) ipi_tx_seq: u64,
    /// Sequence numbers of IPIs this vCPU has already accepted; a
    /// redelivery (injected duplicate) is absorbed by this exactly-once
    /// check before it reaches the APIC.
    pub(crate) ipi_rx_seen: std::collections::BTreeSet<u64>,
}

impl Vcpu {
    /// A fresh vCPU pinned to `loc` with its own VMCS set and engine.
    pub(crate) fn new(
        id: u32,
        loc: CpuLoc,
        smt_contexts: usize,
        reflector: Box<dyn Reflector>,
    ) -> Self {
        let base = 0x1000 + u64::from(id) * VMCS_REGION_STRIDE;
        Vcpu {
            id,
            loc,
            state: VcpuState::default(),
            vmcs01: Vmcs::new(VmcsRole::Host { guest_level: 1 }, Gpa(base)),
            vmcs12: Vmcs::new(VmcsRole::Shadow, Gpa(base + 0x1000)),
            vmcs02: Vmcs::new(VmcsRole::Host { guest_level: 2 }, Gpa(base + 0x2000)),
            clock: Clock::new(),
            core: SmtCore::new(smt_contexts),
            reflector: Engine(Some(reflector)),
            timer_event: None,
            inbox: VecDeque::new(),
            ipi_tx_seq: 0,
            ipi_rx_seen: std::collections::BTreeSet::new(),
        }
    }

    /// Name of this vCPU's switch engine.
    pub fn reflector_name(&self) -> &'static str {
        self.reflector.name()
    }
}

/// A vCPU's switch-engine slot, empty while the engine runs (the run
/// loop takes it out).
pub(crate) struct Engine(pub(crate) Option<Box<dyn Reflector>>);

impl Engine {
    fn name(&self) -> &'static str {
        self.0.as_ref().map_or("(taken)", |r| r.name())
    }
}

/// The engine's name (a shape), then its protocol state as a
/// length-prefixed sub-payload, so engines evolve independently.
impl Snap for Engine {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        self.name().save(w);
        save_nested(self.0.as_deref().map(|e| e as &dyn SnapDyn), w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        load_shape(&self.name(), "switch-engine kind", r)?;
        load_nested(self.0.as_deref_mut().map(|e| e as &mut dyn SnapDyn), r)
    }
}

snap_fields! {
    Vcpu {
        #[shape = "vCPU id"] id, state, vmcs01, vmcs12, vmcs02, clock, core, reflector, timer_event,
        inbox, ipi_tx_seq, ipi_rx_seen
    } skip { loc }
}

impl std::fmt::Debug for Vcpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vcpu")
            .field("id", &self.id)
            .field("loc", &self.loc)
            .field("halted", &self.state.halted)
            .field("inbox", &self.inbox.len())
            .finish()
    }
}
