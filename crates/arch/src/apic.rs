//! Local APIC and timer model.
//!
//! Each vCPU owns a [`LocalApic`] with the request/in-service register
//! pair, priority-ordered delivery, EOI, and the TSC-deadline timer whose
//! `MSR_WRITE` reprogramming traffic dominates the paper's timer-related
//! profiles (§ 6.3.1, § 6.3.3).

use svt_sim::snapshot::{Sink, Snap, SnapError, SnapReader};
use svt_sim::SimTime;

/// MSR index of the TSC-deadline timer (IA32_TSC_DEADLINE).
pub const MSR_TSC_DEADLINE: u32 = 0x6e0;
/// MSR index of the APIC base register.
pub const MSR_APIC_BASE: u32 = 0x1b;
/// MSR index of EFER.
pub const MSR_EFER: u32 = 0xc000_0080;
/// MSR index of SPEC_CTRL (part of the world-switch state).
pub const MSR_SPEC_CTRL: u32 = 0x48;
/// MSR index of the x2APIC EOI register.
pub const MSR_X2APIC_EOI: u32 = 0x80b;
/// MSR index of the x2APIC interrupt-command register (IPIs).
pub const MSR_X2APIC_ICR: u32 = 0x830;

/// Interrupt vector of the virtio-net completion interrupts (the NIC and
/// the load-generator NIC) in the simulated machine.
pub const VECTOR_VIRTIO: u8 = 0x50;
/// Interrupt vector of the virtio-blk completion interrupts (distinct
/// from the NIC's).
pub const VECTOR_BLK: u8 = 0x51;
/// Interrupt vector of the TSC-deadline (LAPIC timer) interrupt.
pub const VECTOR_TIMER: u8 = 0xec;
/// Interrupt vector used for inter-processor interrupts.
pub const VECTOR_IPI: u8 = 0xf2;

/// x2APIC IPI delivery mode (ICR bits 10:8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Deliver the vector in the command (encoding 0b000).
    #[default]
    Fixed,
    /// INIT: reset the target vCPU to its wait-for-SIPI state (0b101).
    Init,
    /// Startup IPI: start the target at the given vector page (0b110).
    Startup,
}

impl DeliveryMode {
    fn encode(self) -> u64 {
        match self {
            DeliveryMode::Fixed => 0b000,
            DeliveryMode::Init => 0b101,
            DeliveryMode::Startup => 0b110,
        }
    }

    fn decode(bits: u64) -> Option<Self> {
        match bits {
            0b000 => Some(DeliveryMode::Fixed),
            0b101 => Some(DeliveryMode::Init),
            0b110 => Some(DeliveryMode::Startup),
            _ => None,
        }
    }
}

/// A decoded x2APIC interrupt command (one `WRMSR` to [`MSR_X2APIC_ICR`]).
///
/// In x2APIC mode the ICR is a single 64-bit MSR: vector in bits 7:0,
/// delivery mode in bits 10:8, destination APIC id (= vCPU id in this
/// machine) in bits 63:32.
///
/// # Examples
///
/// ```
/// use svt_arch::{DeliveryMode, IcrCommand, VECTOR_IPI};
///
/// let cmd = IcrCommand::fixed(VECTOR_IPI, 3);
/// let decoded = IcrCommand::decode(cmd.encode()).unwrap();
/// assert_eq!(decoded.dest, 3);
/// assert_eq!(decoded.mode, DeliveryMode::Fixed);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IcrCommand {
    /// Interrupt vector (ignored for INIT).
    pub vector: u8,
    /// Delivery mode.
    pub mode: DeliveryMode,
    /// Destination APIC id.
    pub dest: u32,
}

/// The encoded ICR word; a word [`IcrCommand::decode`] rejects is
/// `BadValue`.
impl Snap for IcrCommand {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        w.u64(self.encode());
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let icr = r.u64()?;
        *self = IcrCommand::decode(icr).ok_or(SnapError::BadValue {
            what: "ICR command",
            got: icr,
        })?;
        Ok(())
    }
}

impl IcrCommand {
    /// A fixed-vector IPI to one destination.
    pub const fn fixed(vector: u8, dest: u32) -> Self {
        IcrCommand {
            vector,
            mode: DeliveryMode::Fixed,
            dest,
        }
    }

    /// An INIT IPI to one destination.
    pub const fn init(dest: u32) -> Self {
        IcrCommand {
            vector: 0,
            mode: DeliveryMode::Init,
            dest,
        }
    }

    /// Encodes the command as the x2APIC ICR MSR value.
    pub fn encode(self) -> u64 {
        self.vector as u64 | (self.mode.encode() << 8) | ((self.dest as u64) << 32)
    }

    /// Decodes an ICR MSR value; `None` for unsupported delivery modes.
    pub fn decode(value: u64) -> Option<Self> {
        Some(IcrCommand {
            vector: (value & 0xff) as u8,
            mode: DeliveryMode::decode((value >> 8) & 0b111)?,
            dest: (value >> 32) as u32,
        })
    }
}

/// One vCPU's local interrupt controller.
///
/// # Examples
///
/// ```
/// use svt_arch::LocalApic;
///
/// let mut apic = LocalApic::new();
/// assert!(apic.inject(0x50)); // newly pending
/// assert!(!apic.inject(0x50)); // coalesced into the latched request
/// assert_eq!(apic.ack(), Some(0x50));
/// apic.eoi();
/// assert_eq!(apic.ack(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LocalApic {
    /// Interrupt request register: one bit per vector.
    irr: [u64; 4],
    /// In-service vectors, innermost last.
    isr: Vec<u8>,
    /// Armed TSC deadline, if any.
    tsc_deadline: Option<SimTime>,
    /// Count of interrupts that were delivered later than the deadline
    /// they were armed for (used by the video-playback experiment).
    late_timer_fires: u64,
    /// Injections that newly latched a request bit.
    delivered: u64,
    /// Injections absorbed by an already-pending request bit.
    coalesced: u64,
}

svt_sim::snap_fields! {
    LocalApic {
        irr, isr, tsc_deadline, late_timer_fires, delivered, coalesced
    }
}

impl LocalApic {
    /// Creates an idle APIC.
    pub fn new() -> Self {
        LocalApic::default()
    }

    /// Latches an interrupt request. Returns whether the vector became
    /// newly pending (`false`: it was already latched, so this injection
    /// coalesced — the causal IPI exactly-once watchdog cares).
    pub fn inject(&mut self, vector: u8) -> bool {
        let word = (vector / 64) as usize;
        let bit = 1u64 << (vector % 64);
        let newly = self.irr[word] & bit == 0;
        self.irr[word] |= bit;
        if newly {
            self.delivered += 1;
        } else {
            self.coalesced += 1;
        }
        newly
    }

    /// Injections that newly latched a request bit.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Injections absorbed by an already-pending request bit.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Whether `vector` is pending.
    pub fn is_pending(&self, vector: u8) -> bool {
        self.irr[(vector / 64) as usize] & (1u64 << (vector % 64)) != 0
    }

    /// Highest-priority pending vector that beats everything in service,
    /// without acknowledging it.
    pub fn pending(&self) -> Option<u8> {
        let highest = (0..4usize).rev().find_map(|w| {
            let bits = self.irr[w];
            if bits == 0 {
                None
            } else {
                Some((w as u8) * 64 + (63 - bits.leading_zeros() as u8))
            }
        })?;
        match self.isr.last() {
            Some(&in_service) if in_service >= highest => None,
            _ => Some(highest),
        }
    }

    /// Acknowledges the highest-priority pending interrupt: moves it from
    /// request to in-service and returns its vector.
    pub fn ack(&mut self) -> Option<u8> {
        let v = self.pending()?;
        self.irr[(v / 64) as usize] &= !(1u64 << (v % 64));
        self.isr.push(v);
        Some(v)
    }

    /// Signals end-of-interrupt for the innermost in-service vector.
    pub fn eoi(&mut self) {
        self.isr.pop();
    }

    /// Vectors currently in service (innermost last).
    pub fn in_service(&self) -> &[u8] {
        &self.isr
    }

    /// Arms (or disarms, with `None`) the TSC-deadline timer.
    pub fn set_tsc_deadline(&mut self, deadline: Option<SimTime>) {
        self.tsc_deadline = deadline;
    }

    /// The armed deadline, if any.
    pub fn tsc_deadline(&self) -> Option<SimTime> {
        self.tsc_deadline
    }

    /// Fires the timer if its deadline has passed: injects
    /// [`VECTOR_TIMER`], disarms, records lateness, and returns how late
    /// delivery was.
    pub fn poll_timer(&mut self, now: SimTime) -> Option<svt_sim::SimDuration> {
        let deadline = self.tsc_deadline?;
        if now < deadline {
            return None;
        }
        self.tsc_deadline = None;
        self.inject(VECTOR_TIMER);
        let late = now.since(deadline);
        if !late.is_zero() {
            self.late_timer_fires += 1;
        }
        Some(late)
    }

    /// Number of timer interrupts delivered after their armed deadline.
    pub fn late_timer_fires(&self) -> u64 {
        self.late_timer_fires
    }

    /// Whether any interrupt is pending or in service.
    pub fn is_idle(&self) -> bool {
        self.irr.iter().all(|w| *w == 0) && self.isr.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svt_sim::SimDuration;

    #[test]
    fn inject_distinguishes_delivery_from_coalescing() {
        let mut apic = LocalApic::new();
        assert!(apic.inject(0x50));
        assert!(!apic.inject(0x50));
        assert!(apic.inject(0x51));
        assert_eq!(apic.delivered(), 2);
        assert_eq!(apic.coalesced(), 1);
        // Once acked, the vector can become newly pending again.
        assert_eq!(apic.ack(), Some(0x51));
        assert!(apic.inject(0x51));
        assert_eq!(apic.delivered(), 3);
    }

    #[test]
    fn inject_ack_eoi_cycle() {
        let mut a = LocalApic::new();
        assert!(a.is_idle());
        a.inject(0x20);
        assert!(a.is_pending(0x20));
        assert_eq!(a.ack(), Some(0x20));
        assert!(!a.is_pending(0x20));
        assert_eq!(a.in_service(), &[0x20]);
        a.eoi();
        assert!(a.is_idle());
    }

    #[test]
    fn priority_ordering() {
        let mut a = LocalApic::new();
        a.inject(0x30);
        a.inject(0xf0);
        a.inject(0x80);
        assert_eq!(a.ack(), Some(0xf0));
        // Lower-priority vectors are masked while 0xf0 is in service.
        assert_eq!(a.pending(), None);
        a.eoi();
        assert_eq!(a.ack(), Some(0x80));
        a.eoi();
        assert_eq!(a.ack(), Some(0x30));
    }

    #[test]
    fn nested_interrupts_higher_priority_preempts() {
        let mut a = LocalApic::new();
        a.inject(0x30);
        assert_eq!(a.ack(), Some(0x30));
        a.inject(0xe0);
        // A higher-priority vector may preempt the in-service one.
        assert_eq!(a.ack(), Some(0xe0));
        assert_eq!(a.in_service(), &[0x30, 0xe0]);
        a.eoi();
        assert_eq!(a.in_service(), &[0x30]);
    }

    #[test]
    fn duplicate_injects_collapse() {
        let mut a = LocalApic::new();
        a.inject(0x55);
        a.inject(0x55);
        assert_eq!(a.ack(), Some(0x55));
        a.eoi();
        assert_eq!(a.ack(), None);
    }

    #[test]
    fn timer_fires_once_and_tracks_lateness() {
        let mut a = LocalApic::new();
        a.set_tsc_deadline(Some(SimTime::from_us(100)));
        assert_eq!(a.poll_timer(SimTime::from_us(99)), None);
        let late = a.poll_timer(SimTime::from_us(103)).unwrap();
        assert_eq!(late, SimDuration::from_us(3));
        assert!(a.is_pending(VECTOR_TIMER));
        assert_eq!(a.late_timer_fires(), 1);
        // Disarmed after firing.
        assert_eq!(a.poll_timer(SimTime::from_us(200)), None);
    }

    #[test]
    fn on_time_timer_is_not_late() {
        let mut a = LocalApic::new();
        a.set_tsc_deadline(Some(SimTime::from_us(10)));
        let late = a.poll_timer(SimTime::from_us(10)).unwrap();
        assert!(late.is_zero());
        assert_eq!(a.late_timer_fires(), 0);
    }

    #[test]
    fn rearm_replaces_deadline() {
        let mut a = LocalApic::new();
        a.set_tsc_deadline(Some(SimTime::from_us(10)));
        a.set_tsc_deadline(Some(SimTime::from_us(50)));
        assert_eq!(a.poll_timer(SimTime::from_us(20)), None);
        a.set_tsc_deadline(None);
        assert_eq!(a.poll_timer(SimTime::from_us(100)), None);
    }

    #[test]
    fn icr_roundtrip_all_modes() {
        for cmd in [
            IcrCommand::fixed(VECTOR_IPI, 0),
            IcrCommand::fixed(0x20, 7),
            IcrCommand::init(2),
            IcrCommand {
                vector: 0x10,
                mode: DeliveryMode::Startup,
                dest: 15,
            },
        ] {
            assert_eq!(IcrCommand::decode(cmd.encode()), Some(cmd));
        }
    }

    #[test]
    fn icr_decode_rejects_unsupported_modes() {
        // SMI (0b010) and lowest-priority (0b001) are not modeled.
        assert_eq!(IcrCommand::decode(0x200), None);
        assert_eq!(IcrCommand::decode(0x100), None);
    }

    #[test]
    fn icr_field_packing_matches_x2apic_layout() {
        let v = IcrCommand::fixed(0xf2, 3).encode();
        assert_eq!(v & 0xff, 0xf2);
        assert_eq!((v >> 8) & 0b111, 0);
        assert_eq!(v >> 32, 3);
    }

    #[test]
    fn vector_boundaries() {
        let mut a = LocalApic::new();
        a.inject(0);
        a.inject(63);
        a.inject(64);
        a.inject(255);
        assert_eq!(a.ack(), Some(255));
        a.eoi();
        assert_eq!(a.ack(), Some(64));
        a.eoi();
        assert_eq!(a.ack(), Some(63));
        a.eoi();
        assert_eq!(a.ack(), Some(0));
    }
}
