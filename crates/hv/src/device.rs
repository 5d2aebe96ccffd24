//! The device bus interface between the machine and device models.
//!
//! Device models (virtio-net, virtio-blk) are registered on the machine
//! with their MMIO ranges. In the nested configuration they are *L1's*
//! devices — QEMU/vhost running inside the guest hypervisor — so the
//! machine charges their service time while executing in L1's context and
//! routes their completion interrupts down the full L0→L1→L2 injection
//! chain.

use std::fmt;

use svt_mem::{Gpa, GuestMemory};
use svt_sim::snapshot::SnapDyn;
use svt_sim::{snap_fields, SimDuration, SimTime};

/// What a device wants done after servicing an access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceOutcome {
    /// Device-model (backend) service time.
    pub service: SimDuration,
    /// Number of additional privileged operations the L1 backend performs
    /// against *its* hypervisor (vhost kicks, EOIs, …); each costs a full
    /// L1↔L0 exit round trip.
    pub backend_l1_exits: u32,
    /// Completions to schedule: `(when, token)` pairs delivered back to
    /// the device via [`DeviceModel::complete`].
    pub schedule: Vec<(SimTime, u64)>,
}

impl DeviceOutcome {
    /// An outcome with only service time.
    pub fn service(d: SimDuration) -> Self {
        DeviceOutcome {
            service: d,
            ..DeviceOutcome::default()
        }
    }
}

/// A completed asynchronous request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Completion {
    /// Interrupt vector to inject into the guest that owns the device.
    pub vector: u8,
    /// Completion-side service time in the backend.
    pub service: SimDuration,
    /// Further privileged backend operations (see
    /// [`DeviceOutcome::backend_l1_exits`]).
    pub backend_l1_exits: u32,
    /// Follow-up completions to schedule.
    pub schedule: Vec<(SimTime, u64)>,
}

snap_fields! { Completion { vector, service, backend_l1_exits, schedule } }

/// A memory-mapped device model.
///
/// Devices receive the guest memory on every call: virtqueue state
/// (descriptor tables, available/used rings) lives in guest RAM, exactly
/// as with real virtio. Everything else a device holds between calls is
/// its snapshot state, declared through its `svt_sim::Snap` impl.
pub trait DeviceModel: fmt::Debug + SnapDyn {
    /// The MMIO ranges `(base, len)` this device occupies in its guest's
    /// physical address space.
    fn ranges(&self) -> Vec<(Gpa, u64)>;

    /// Guest stored `value` at `gpa` (e.g. rang a virtqueue doorbell).
    fn mmio_write(
        &mut self,
        gpa: Gpa,
        value: u64,
        mem: &mut GuestMemory,
        now: SimTime,
    ) -> DeviceOutcome;

    /// Guest loaded from `gpa`. Returns the value read and the outcome.
    fn mmio_read(&mut self, gpa: Gpa, mem: &mut GuestMemory, now: SimTime) -> (u64, DeviceOutcome);

    /// A scheduled completion token fired.
    fn complete(&mut self, token: u64, mem: &mut GuestMemory, now: SimTime) -> Option<Completion>;
}

/// Checks whether `gpa` falls into any of the device's ranges.
pub fn device_claims(dev: &dyn DeviceModel, gpa: Gpa) -> bool {
    dev.ranges()
        .iter()
        .any(|(base, len)| gpa.0 >= base.0 && gpa.0 < base.0 + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Dummy;

    snap_fields! { Dummy {} }

    impl DeviceModel for Dummy {
        fn ranges(&self) -> Vec<(Gpa, u64)> {
            vec![(Gpa(0x1000), 0x100), (Gpa(0x3000), 0x10)]
        }
        fn mmio_write(
            &mut self,
            _gpa: Gpa,
            _value: u64,
            _mem: &mut GuestMemory,
            _now: SimTime,
        ) -> DeviceOutcome {
            DeviceOutcome::service(SimDuration::from_ns(5))
        }
        fn mmio_read(
            &mut self,
            _gpa: Gpa,
            _mem: &mut GuestMemory,
            _now: SimTime,
        ) -> (u64, DeviceOutcome) {
            (7, DeviceOutcome::default())
        }
        fn complete(
            &mut self,
            _token: u64,
            _mem: &mut GuestMemory,
            _now: SimTime,
        ) -> Option<Completion> {
            None
        }
    }

    #[test]
    fn range_claiming() {
        let d = Dummy;
        assert!(device_claims(&d, Gpa(0x1000)));
        assert!(device_claims(&d, Gpa(0x10ff)));
        assert!(!device_claims(&d, Gpa(0x1100)));
        assert!(device_claims(&d, Gpa(0x3008)));
        assert!(!device_claims(&d, Gpa(0x0fff)));
    }

    #[test]
    fn outcome_service_constructor() {
        let o = DeviceOutcome::service(SimDuration::from_us(1));
        assert_eq!(o.service, SimDuration::from_us(1));
        assert_eq!(o.backend_l1_exits, 0);
        assert!(o.schedule.is_empty());
    }
}
