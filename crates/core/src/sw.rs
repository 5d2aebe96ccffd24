//! The SW-SVt software-only prototype.
//!
//! Implements the paper's § 5.2/§ 5.3 prototype on the *existing* SMT
//! hardware model: L2 keeps running on the same hardware thread as L0
//! (the pre-existing VM-trap path is unchanged), but L1's trap handling
//! runs on an **SVt-thread** pinned to the SMT sibling. L0 and the
//! SVt-thread exchange `CMD_VM_TRAP`/`CMD_VM_RESUME` commands over two
//! unidirectional shared-memory rings — real byte-level rings in
//! simulated guest memory — and wait for each other with
//! `monitor`/`mwait` on the ring doorbell line.
//!
//! # Hardened protocol
//!
//! The channel is treated as unreliable: commands carry sequence numbers
//! and an FNV-1a checksum, every `mwait` is bounded by a TSC-deadline
//! ([`svt_sim::CostModel::mwait_timeout`]), and each leg retries with a
//! fresh sequence number until it succeeds or the [`DegradeFsm`] decides
//! the channel is broken. A broken channel never hangs the trap: the
//! reflector *falls back per-trap* to the baseline engine
//! ([`BaselineReflector`]) and keeps probing the ring so a healed
//! channel is re-promoted. Every injected fault, retry, timeout and state
//! transition is counted in the metrics registry and visible on the
//! causal graph.

use svt_arch::ExitReason;
use svt_hv::{BaselineReflector, Machine, MachineEvent, Reflector};
use svt_mem::{CommandRing, Hpa};
use svt_obs::{HostPart, MetricKey, ObsLevel};
use svt_sim::snapshot::{load_code, load_new, Sink, Snap, SnapError, SnapReader};
use svt_sim::{CostPart, FaultKind, Placement, SimDuration};

use crate::commands::{Command, ProtocolError, CMD_VM_RESUME, CMD_VM_TRAP, PAYLOAD_LEN};
use crate::degrade::{transition_label, DegradeFsm, SvtHealth, Transition};

/// How a waiting side detects new commands (the § 6.1 channel study).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitMode {
    /// `monitor`/`mwait` on the doorbell cache line (the prototype's
    /// choice: low latency without stealing cycles from the sibling).
    Mwait,
    /// Busy polling: near-instant detection, but the polling sibling
    /// steals execution cycles from the working thread.
    Poll,
    /// Kernel futex: no stolen cycles, but a scheduler wake-up.
    Mutex,
}

/// Fraction of the worker's cycles a busy-polling SMT sibling steals
/// (§ 6.1: "overheads increase with the workload in SMT because the
/// waiting thread consumes execution cycles from the computing thread").
/// The engine's `WaitMode::Poll` and the § 6.1 channel study both charge
/// it.
pub const POLL_STEAL_RATIO: f64 = 0.18;

/// Bytes of ivshmem region reserved per vCPU's ring pair. vCPU 0 keeps
/// the historical `0x10_0000` base so single-vCPU runs are bit-identical
/// to the pre-SMP machine; each further vCPU's rings live one stride up,
/// so two vCPUs trapping back-to-back never touch each other's rings.
const SVT_RING_STRIDE: u64 = 0x1_0000;

/// Upper bound on channel attempts per leg. A backstop only: the
/// [`DegradeFsm`] (K = 4) normally aborts the leg first.
const MAX_ATTEMPTS: u32 = 8;

/// The software-only SVt engine.
///
/// # Examples
///
/// ```
/// use svt_core::{nested_machine, SwitchMode};
/// use svt_hv::{GuestOp, OpLoop};
/// use svt_sim::SimDuration;
///
/// let mut m = nested_machine(SwitchMode::SwSvt);
/// let mut prog = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
/// let t0 = m.clock.now();
/// m.run(&mut prog)?;
/// // Between the baseline (10.4us) and the hardware design.
/// let t = m.clock.now().since(t0).as_us();
/// assert!(t > 7.0 && t < 10.0, "{t}");
/// # Ok::<(), svt_hv::MachineError>(())
/// ```
#[derive(Debug)]
pub struct SwSvtReflector {
    wait: WaitMode,
    placement: Placement,
    rings: Rings,
    last_cmd: Option<Command>,
    /// Next command sequence number (shared across both rings; strictly
    /// increasing, so any stale ring entry sorts below the live one).
    next_seq: u64,
    /// The degradation policy deciding ring vs. fallback per trap.
    fsm: DegradeFsm,
}

/// The command and response rings, created together on first use.
#[derive(Debug, Default)]
struct Rings {
    cmd: Option<CommandRing>,
    resp: Option<CommandRing>,
}

/// A presence byte, then both rings' geometry.
impl Snap for Rings {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        match (self.cmd, self.resp) {
            (Some(cmd), Some(resp)) => (1u8, cmd, resp).save(w),
            _ => w.u8(0),
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = Rings::default();
        if load_code(r, "SW-SVt ring tag", |t| (t < 2).then_some(t == 1))? {
            let (cmd, resp) = load_new(r)?;
            (self.cmd, self.resp) = (Some(cmd), Some(resp));
        }
        Ok(())
    }
}

impl SwSvtReflector {
    /// The prototype configuration: SMT-sibling placement with mwait.
    pub fn new() -> Self {
        SwSvtReflector::with_channel(WaitMode::Mwait, Placement::SmtSibling)
    }

    /// Ablation constructor: alternative wait mechanism and thread
    /// placement.
    ///
    /// # Panics
    ///
    /// Panics on [`Placement::SameThread`] — the prototype needs two
    /// hardware threads.
    pub fn with_channel(wait: WaitMode, placement: Placement) -> Self {
        assert!(
            placement != Placement::SameThread,
            "SW SVt needs a second hardware thread"
        );
        SwSvtReflector {
            wait,
            placement,
            rings: Rings::default(),
            last_cmd: None,
            next_seq: 0,
            fsm: DegradeFsm::new(),
        }
    }

    fn ensure_init(&mut self, m: &mut Machine) {
        if self.rings.cmd.is_some() {
            return;
        }
        // Rings live in an ivshmem-like region of host RAM; "pairing" the
        // vCPU threads is a one-time hypercall to L0. Each vCPU owns a
        // disjoint slice of the region.
        let base = 0x10_0000 + m.current_vcpu() as u64 * SVT_RING_STRIDE;
        let cmd = CommandRing::new(Hpa(base), 256, 16);
        let resp = CommandRing::new(Hpa(base + cmd.footprint()), 256, 16);
        cmd.init(&mut m.ram).expect("ring region in RAM");
        resp.init(&mut m.ram).expect("ring region in RAM");
        self.rings.cmd = Some(cmd);
        self.rings.resp = Some(resp);
        let c = m.cost.l0_exit_decode + m.cost.l0_run_loop;
        m.clock.charge(c); // the pairing hypercall
    }

    /// Detection latency for one command at this channel configuration.
    fn wake_cost(&self, m: &Machine) -> SimDuration {
        match self.wait {
            WaitMode::Mwait => m.cost.monitor_arm + m.cost.mwait_wake(self.placement),
            WaitMode::Poll => m.cost.poll_iter + m.cost.cacheline(self.placement),
            WaitMode::Mutex => m.cost.mutex_spin_grace + m.cost.mutex_wake,
        }
    }

    /// What one expired bounded wait costs: the TSC-deadline window plus
    /// (under mwait) re-arming the monitor for the retry.
    fn timeout_cost(&self, m: &Machine) -> SimDuration {
        let rearm = match self.wait {
            WaitMode::Mwait => m.cost.monitor_arm,
            WaitMode::Poll | WaitMode::Mutex => SimDuration::ZERO,
        };
        m.cost.mwait_timeout + rearm
    }

    /// Causal-graph key of this vCPU's command or response ring.
    fn ring_key(m: &Machine, ring_is_cmd: bool) -> u64 {
        ((m.current_vcpu() as u64) << 1) | u64::from(ring_is_cmd)
    }

    fn ring(&self, ring_is_cmd: bool) -> CommandRing {
        if ring_is_cmd {
            self.rings.cmd.expect("initialized")
        } else {
            self.rings.resp.expect("initialized")
        }
    }

    /// Pushes one command through a ring, charging the payload's
    /// cache-line transfers at the configured placement. A full ring is
    /// *backpressure*, not a panic: the oldest (necessarily stale) entry
    /// is discarded to make room; if the ring is still full the leg
    /// reports [`ProtocolError::RingFull`] and the retry logic takes
    /// over.
    fn send(
        &mut self,
        m: &mut Machine,
        ring_is_cmd: bool,
        cmd: &Command,
    ) -> Result<(), ProtocolError> {
        let ring = self.ring(ring_is_cmd);
        let payload = cmd.encode();
        let (enq, deq) = if ring_is_cmd {
            ("svt_cmd_enqueue", "svt_cmd_dequeue")
        } else {
            ("svt_resp_enqueue", "svt_resp_dequeue")
        };
        let key = Self::ring_key(m, ring_is_cmd);
        if ring.push(&mut m.ram, &payload).is_err() {
            m.obs
                .metrics
                .inc(MetricKey::new("svt_ring_full").reflector("sw-svt"));
            // Every queued entry is from an earlier, already-failed
            // attempt (the protocol is lockstep); discard the oldest.
            match ring.pop(&mut m.ram, &mut []) {
                Ok(Some(_)) => {
                    m.obs.causal.ring_dequeue(deq, key, m.clock.now());
                }
                _ => return Err(ProtocolError::RingFull),
            }
            if ring.push(&mut m.ram, &payload).is_err() {
                return Err(ProtocolError::RingFull);
            }
        }
        let c = m.cost.cacheline(self.placement) * (cmd.cache_lines() + 1);
        m.clock.charge(c);
        m.obs.causal.ring_enqueue(enq, key, m.clock.now());
        Ok(())
    }

    /// Pops until the command with sequence `want_seq` arrives, validating
    /// length, checksum and kind on the way. Stale entries (lower
    /// sequence numbers left behind by failed attempts, or injected
    /// duplicates) are dropped and counted; a malformed, corrupt or
    /// wrong-kind head entry fails the attempt.
    fn try_recv(
        &mut self,
        m: &mut Machine,
        ring_is_cmd: bool,
        want_kind: u32,
        want_seq: u64,
    ) -> Result<Command, ProtocolError> {
        let ring = self.ring(ring_is_cmd);
        let phase = if ring_is_cmd {
            "svt_cmd_dequeue"
        } else {
            "svt_resp_dequeue"
        };
        let key = Self::ring_key(m, ring_is_cmd);
        let mut payload = [0u8; PAYLOAD_LEN];
        loop {
            let len = match ring.pop(&mut m.ram, &mut payload) {
                Ok(Some(len)) => len,
                Ok(None) => return Err(ProtocolError::Empty),
                Err(_) => return Err(ProtocolError::Malformed),
            };
            m.obs.causal.ring_dequeue(phase, key, m.clock.now());
            let Some(cmd) = payload.get(..len).and_then(Command::decode) else {
                return Err(ProtocolError::Malformed);
            };
            if !cmd.verify() {
                return Err(ProtocolError::Corrupt);
            }
            if cmd.seq < want_seq {
                // Leftover from a failed attempt, or a duplicate of an
                // already-accepted command: drop and keep looking.
                m.obs
                    .metrics
                    .inc(MetricKey::new("svt_duplicates_dropped").reflector("sw-svt"));
                continue;
            }
            if cmd.kind != want_kind {
                return Err(ProtocolError::BadKind {
                    got: cmd.kind,
                    want: want_kind,
                });
            }
            // Accepted. Drain any residual entries (duplicates of this
            // very command) so the ring is empty between legs and the
            // ring-deadline watchdog never sees a lingering entry.
            self.drain_ring(m, ring_is_cmd);
            return Ok(cmd);
        }
    }

    /// Empties a ring, counting each discarded entry. The lockstep
    /// protocol requires an empty ring between legs; this restores that
    /// invariant after duplicates or an aborted leg.
    fn drain_ring(&mut self, m: &mut Machine, ring_is_cmd: bool) {
        let ring = self.ring(ring_is_cmd);
        let phase = if ring_is_cmd {
            "svt_cmd_dequeue"
        } else {
            "svt_resp_dequeue"
        };
        let key = Self::ring_key(m, ring_is_cmd);
        while let Ok(Some(_)) = ring.pop(&mut m.ram, &mut []) {
            m.obs.causal.ring_dequeue(phase, key, m.clock.now());
            m.obs
                .metrics
                .inc(MetricKey::new("svt_duplicates_dropped").reflector("sw-svt"));
        }
    }

    /// Pushes this lane's current protocol state (ring occupancy, blocked
    /// flag, degradation health) to the timeline sampler and flight
    /// recorder. Early-returns on their shared enabled check, so plain
    /// runs pay two flag loads here and nothing else.
    fn push_protocol(&self, m: &mut Machine, blocked: bool) {
        if !m.obs.protocol_enabled() {
            return;
        }
        let mut depth = 0;
        for ring in [self.rings.cmd, self.rings.resp].into_iter().flatten() {
            depth += ring.len(&m.ram).unwrap_or(0);
        }
        let vcpu = m.current_vcpu() as u32;
        m.obs
            .note_protocol(vcpu, depth, blocked, self.fsm.state().name());
    }

    /// Records a degradation-policy transition in the metrics registry
    /// and on the causal graph. Entering `FallenBack` — the channel
    /// written off — is a crash-dump moment: it trips the flight
    /// recorder so the causal tail leading up to the failure survives.
    fn note_transition(&mut self, m: &mut Machine, t: Transition) {
        let label = transition_label(t);
        m.obs.metrics.inc(
            MetricKey::new("svt_state_transition")
                .exit(label)
                .reflector("sw-svt"),
        );
        let now = m.clock.now();
        m.obs
            .causal
            .span_close("svt_degrade", ObsLevel::Machine, now, now);
        self.push_protocol(m, false);
        if t == (SvtHealth::Degraded, SvtHealth::FallenBack) && m.obs.flight.is_enabled() {
            m.obs.flight_trip("forced_fallback", now);
        }
    }

    /// One failed channel attempt: feed the policy, surface the
    /// transition if one was taken.
    fn note_failure(&mut self, m: &mut Machine) {
        if let Some(t) = self.fsm.on_failure() {
            self.note_transition(m, t);
        }
    }

    /// One reliable command transfer: send-with-doorbell, bounded wait,
    /// validated receive — retrying with fresh sequence numbers until the
    /// command lands or the degradation policy gives up. The fault-free
    /// path charges *exactly* the costs of the original lockstep
    /// protocol: one payload transfer, one wake, in that order.
    fn xfer(
        &mut self,
        m: &mut Machine,
        ring_is_cmd: bool,
        want_kind: u32,
        code: u64,
        qual: u64,
        steal: SimDuration,
    ) -> Result<Command, ProtocolError> {
        let begin = m.clock.now();
        m.clock.push_part(CostPart::Channel);
        m.obs.hostprof.enter(HostPart::RingProtocol);
        m.obs
            .hostprof
            .shape_fold(0x5256 << 8 | (ring_is_cmd as u64) << 4 | want_kind as u64);
        if steal > SimDuration::ZERO {
            // A busy-polling L0 sibling stole cycles from the handler.
            m.clock.charge(steal);
        }
        let mut outcome = Err(ProtocolError::Empty);
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                m.obs
                    .metrics
                    .inc(MetricKey::new("svt_retransmits").reflector("sw-svt"));
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let cmd = Command::new(want_kind, seq, code, qual, m.vcpu2().gprs);

            // -- sender side -------------------------------------------
            let dropped = m.roll_fault(FaultKind::CmdDrop);
            if dropped {
                // The store leaves the sender's cache but never lands in
                // the ring: the transfer cost is paid, nothing arrives.
                let c = m.cost.cacheline(self.placement) * (cmd.cache_lines() + 1);
                m.clock.charge(c);
            } else {
                if let Err(e) = self.send(m, ring_is_cmd, &cmd) {
                    outcome = Err(e);
                    self.note_failure(m);
                    if self.fsm.state() == SvtHealth::FallenBack {
                        break;
                    }
                    continue;
                }
                if m.roll_fault(FaultKind::CmdCorrupt) {
                    let ring = self.ring(ring_is_cmd);
                    let byte = (seq as usize).wrapping_mul(31) % PAYLOAD_LEN;
                    let _ = ring.corrupt_newest(&mut m.ram, byte);
                }
                if m.roll_fault(FaultKind::CmdDuplicate) {
                    // A spurious second copy with the same sequence
                    // number; the receiver's sequence check absorbs it.
                    let _ = self.ring(ring_is_cmd).push(&mut m.ram, &cmd.encode());
                    let key = Self::ring_key(m, ring_is_cmd);
                    let enq = if ring_is_cmd {
                        "svt_cmd_enqueue"
                    } else {
                        "svt_resp_enqueue"
                    };
                    m.obs.causal.ring_enqueue(enq, key, m.clock.now());
                }
            }

            // -- waiter side -------------------------------------------
            if m.roll_fault(FaultKind::DoorbellSpurious) {
                // A premature wake: pay the wake, find no doorbell,
                // re-arm and go back to waiting.
                let c = self.wake_cost(m);
                m.clock.charge(c);
                m.obs
                    .metrics
                    .inc(MetricKey::new("svt_spurious_wakeups").reflector("sw-svt"));
            }
            let doorbell_lost = dropped || m.roll_fault(FaultKind::DoorbellLost);
            if doorbell_lost {
                // The monitor never fires; the armed TSC-deadline bounds
                // the wait and the waiter re-arms for a retry.
                let c = self.timeout_cost(m);
                m.clock.charge(c);
                m.obs
                    .metrics
                    .inc(MetricKey::new("svt_timeouts").reflector("sw-svt"));
                outcome = Err(ProtocolError::Empty);
                self.note_failure(m);
                if self.fsm.state() == SvtHealth::FallenBack {
                    break;
                }
                continue;
            }
            let c = self.wake_cost(m);
            m.clock.charge(c);
            match self.try_recv(m, ring_is_cmd, want_kind, seq) {
                Ok(received) => {
                    outcome = Ok(received);
                    break;
                }
                Err(e) => {
                    m.obs.metrics.inc(
                        MetricKey::new("svt_protocol_errors")
                            .exit(e.name())
                            .reflector("sw-svt"),
                    );
                    outcome = Err(e);
                    self.note_failure(m);
                    if self.fsm.state() == SvtHealth::FallenBack {
                        break;
                    }
                }
            }
        }
        if outcome.is_err() {
            // Leave nothing behind for the fallback path to trip over.
            self.drain_ring(m, ring_is_cmd);
        }
        m.obs.hostprof.exit(HostPart::RingProtocol);
        m.clock.pop_part(CostPart::Channel);
        self.push_protocol(m, false);
        let span_name = if ring_is_cmd {
            "svt_cmd_ring"
        } else {
            "svt_resp_ring"
        };
        m.obs
            .causal
            .span_close(span_name, ObsLevel::Machine, begin, m.clock.now());
        if outcome.is_ok() {
            m.obs
                .metrics
                .inc(MetricKey::new("svt_commands").reflector("sw-svt"));
        }
        outcome
    }

    /// The § 5.3 deadlock-avoidance check: while waiting for the
    /// SVt-thread's response, L0 must service interrupts destined for
    /// L1's main vCPU, injecting a synthetic `SVT_BLOCKED` trap so the
    /// guest enables interrupts and yields back.
    fn check_blocked_ipis(&mut self, m: &mut Machine) {
        // Drain any IPI events that became due while we wait.
        let now = m.clock.now();
        let mut requeue = Vec::new();
        while let Some((at, ev)) = m.events.pop_due(now) {
            if matches!(ev, MachineEvent::IpiToL1Main) {
                let blocked_begin = m.clock.now();
                m.obs.causal.blocked_enter(blocked_begin);
                self.push_protocol(m, true);
                m.obs
                    .metrics
                    .inc(MetricKey::new("svt_blocked").reflector("sw-svt"));
                m.clock.push_part(CostPart::L0Handler);
                // Inject SVT_BLOCKED into L1's main vCPU, let its interrupt
                // handler run, and take the immediate yield back.
                let c = m.cost.l0_irq_inject
                    + m.cost.vm_entry_hw
                    + m.cost.gpr_thunk()
                    + m.cost.ipi_deliver
                    + m.cost.guest_irq_entry
                    + m.cost.vm_exit_hw
                    + m.cost.gpr_thunk();
                m.clock.charge(c);
                m.clock.pop_part(CostPart::L0Handler);
                m.l1.apic.inject(svt_arch::VECTOR_IPI);
                let v = m.l1.apic.ack();
                debug_assert_eq!(v, Some(svt_arch::VECTOR_IPI));
                m.l1.apic.eoi();
                // The blocked window is bounded by the fixed inject+yield
                // cost; the histogram lets tests assert that bound.
                let window = m.clock.now().since(blocked_begin);
                m.obs.causal.blocked_exit(m.clock.now());
                self.push_protocol(m, false);
                m.obs.metrics.observe(
                    MetricKey::new("svt_blocked_window_ps").reflector("sw-svt"),
                    window.as_ps(),
                );
            } else {
                requeue.push((at, ev));
            }
        }
        for (at, ev) in requeue {
            m.events.schedule(at, ev);
        }
    }

    /// L1's handling of one trap over the command ring (Fig. 5): L0
    /// sends `CMD_VM_TRAP`, the SVt-thread runs L1's handler on the
    /// sibling, and L0 wakes on its `CMD_VM_RESUME`. Returns `false` when
    /// the trap fell back mid-flight and must finish through the classic
    /// exit path.
    fn ring_round_trip(&mut self, m: &mut Machine, exit: ExitReason) -> bool {
        // A trap is clean for healing only if none of its attempts
        // failed: only failures raise the count, and only this trap's
        // own clean finish resets it.
        let failures_before = self.fsm.consecutive_failures();
        let (code, qual) = m.arch.encode(exit);

        // L0 sends CMD_VM_TRAP with the registers and trap id (Fig. 5,
        // step 2), then monitors the response ring.
        match self.xfer(m, true, CMD_VM_TRAP, code, qual, SimDuration::ZERO) {
            Ok(received) => self.last_cmd = Some(received),
            Err(_) => {
                // The SVt-thread never saw the trap; its handler has not
                // run. Serve this trap's middle the classic way.
                m.obs
                    .metrics
                    .inc(MetricKey::new("svt_trap_fallback").reflector("sw-svt"));
                m.inject_into_vmcs12(exit);
                BaselineReflector.run_l1(m, exit);
                return false;
            }
        }

        // The SVt-thread (L1_1) handles the trap on the sibling thread —
        // unless the scheduler stole or delayed the sibling first.
        if m.roll_fault(FaultKind::SiblingDelay) {
            let d = m.faults.delay();
            m.clock.charge_as(CostPart::L1Handler, d);
            m.obs
                .metrics
                .inc(MetricKey::new("svt_sibling_delays").reflector("sw-svt"));
        }
        let before = m.clock.now();
        m.l1_handle_exit(self, exit);
        let handling = m.clock.now().since(before);

        // While waiting, L0 services IPIs for L1's main vCPU (§ 5.3).
        self.check_blocked_ipis(m);

        // SVt-thread responds CMD_VM_RESUME with updated registers
        // (Fig. 5, step 3); L0 wakes and applies them.
        let steal = if self.wait == WaitMode::Poll {
            // A busy-polling L0 sibling steals cycles from the handler.
            SimDuration::from_ns_f64(handling.as_ns() * POLL_STEAL_RATIO)
        } else {
            SimDuration::ZERO
        };
        match self.xfer(m, false, CMD_VM_RESUME, code, qual, steal) {
            Ok(resp) => {
                m.vcpu2_mut().gprs = resp.gprs;
                m.obs
                    .metrics
                    .inc(MetricKey::new("svt_trap_ring").reflector("sw-svt"));
                if self.fsm.consecutive_failures() == failures_before {
                    if let Some(t) = self.fsm.on_clean() {
                        self.note_transition(m, t);
                    }
                }
                true
            }
            Err(_) => {
                // The handler already ran on the SVt-thread and the
                // register state is coherent in memory; only the resume
                // doorbell is gone. L0's bounded wait expired — finish
                // through the classic exit path.
                m.obs
                    .metrics
                    .inc(MetricKey::new("svt_resume_fallback").reflector("sw-svt"));
                false
            }
        }
    }
}

impl Default for SwSvtReflector {
    fn default() -> Self {
        SwSvtReflector::new()
    }
}

impl Reflector for SwSvtReflector {
    fn name(&self) -> &'static str {
        "sw-svt"
    }

    fn health(&self) -> &'static str {
        self.fsm.state().name()
    }

    // L2 runs on the same hardware thread as L0: the pre-existing VM trap
    // path, identical to the baseline. The first trap of any kind pairs
    // the threads.
    fn l2_trap(&mut self, m: &mut Machine) {
        self.ensure_init(m);
        m.classic_l2_exit();
    }

    fn reflect(&mut self, m: &mut Machine, exit: ExitReason) {
        self.ensure_init(m);
        if !self.fsm.use_ring() {
            // The channel is written off: the whole trap takes the
            // baseline engine's path, no ring touched.
            m.obs
                .metrics
                .inc(MetricKey::new("svt_trap_fallback").reflector("sw-svt"));
            BaselineReflector.reflect(m, exit);
            return;
        }
        // L0 still runs its exit prologue and keeps vmcs12 coherent (KVM
        // syncs the shadow regardless), but the command ring replaces the
        // vmcs12 event injection, the world switches into/out of L1 and
        // the emulated-VMRESUME exit.
        m.l0_leg_a(self.elides_lazy_sync());
        m.forward_transform();
        if !self.ring_round_trip(m, exit) {
            // The ring gave up mid-trap; the classic injection and world
            // switches already ran where needed, so the trap finishes
            // through the classic exit path.
            m.l0_leg_b(self.elides_lazy_sync());
            m.backward_transform();
            m.l0_entry_finish();
            return;
        }
        // Post-wake: L0's vcpu loop performs its usual pre-entry
        // bookkeeping and applies the response payload to vmcs02.
        m.clock.push_part(CostPart::L0Handler);
        let c = m.cost.l0_run_loop + m.cost.l0_mmu_sync;
        m.clock.charge(c);
        m.clock.pop_part(CostPart::L0Handler);
        m.clock.push_part(CostPart::Transform);
        let c = m.cost.transform_fixed;
        m.clock.charge(c);
        for f in svt_arch::VmcsField::ENTRY_FIELDS {
            let v = m.vmcs12().read(f);
            let c = m.cost.vmwrite;
            m.clock.charge(c);
            m.vmcs02_mut().write(f, v);
        }
        m.clock.pop_part(CostPart::Transform);
        m.l0_entry_finish();
    }

    // The SVt-thread's own privileged ops trap into the L0 instance on
    // *its* thread (L0_1) at the full single-thread cost (§ 5.2: such
    // traps are "captured by L0_1"), so `l1_exit_roundtrip` keeps the
    // classic default. L2's registers arrived in the CMD_VM_TRAP payload,
    // so the default local-copy GPR access is free beyond the
    // already-charged transfer. Only the exit information differs.
    fn l1_read_exit_info(&mut self, _m: &mut Machine) -> (u64, u64) {
        // The trap identifier arrived in the CMD_VM_TRAP payload.
        let cmd = self.last_cmd.as_ref().expect("command received");
        (cmd.code, cmd.qual)
    }
}

svt_sim::snap_enum! { "SW-SVt wait mode" => WaitMode { Mwait, Poll, Mutex } }

// The ring geometry is state, so a restored engine neither
// re-initializes the rings nor re-charges the pairing hypercall.
svt_sim::snap_fields! {
    SwSvtReflector {
        #[shape = "SW-SVt wait mode"] wait, #[shape = "SW-SVt placement"] placement, rings,
        last_cmd, next_seq, fsm
    }
}
