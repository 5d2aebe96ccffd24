//! Experiment harness: wiring machines, devices and guest programs.

use std::cell::RefCell;
use std::rc::Rc;

use svt_hv::Machine;
use svt_sim::{CostModel, SimDuration};
use svt_virtio::{BlkConfig, VirtioBlk, Virtqueue};

use crate::layout;
use crate::loadgen::{ArrivalMode, LoadGenConfig, LoadGenNet, LoadStats, RequestSource};

/// Queue size shared by the workload programs and device models.
pub const QUEUE_SIZE: u16 = 32;

/// Default base seed of the per-lane request streams (lane `v` draws
/// from `DEFAULT_LANE_SEED + v`); every bench's `--seed` defaults to it.
pub const DEFAULT_LANE_SEED: u64 = 0x1509;

/// Attaches a per-vCPU load-generator NIC on `vcpu`'s workload lane:
/// queues and MMIO come from [`layout::lane`], and the device's
/// completions and interrupts are routed to that vCPU only (queue-to-IRQ
/// affinity). Lane `vcpu` draws its request stream from
/// `base_seed + vcpu`, so the per-vCPU streams are distinct but
/// deterministic and a whole run is reproducible from one `--seed` value.
pub fn attach_loadgen_for_seeded(
    m: &mut Machine,
    vcpu: usize,
    arrival: ArrivalMode,
    total_requests: u64,
    source: Box<dyn RequestSource>,
    base_seed: u64,
) -> Rc<RefCell<LoadStats>> {
    let lane = layout::lane(vcpu);
    let cfg = LoadGenConfig {
        mmio_base: lane.net_mmio,
        arrival,
        total_requests,
        seed: base_seed + vcpu as u64,
    };
    let (dev, stats) = LoadGenNet::new(
        cfg,
        &m.cost,
        source,
        Virtqueue::new(lane.tx_queue, QUEUE_SIZE),
        Virtqueue::new(lane.rx_queue, QUEUE_SIZE),
    );
    m.add_device_for(Box::new(dev), vcpu);
    stats
}

/// Attaches a virtio-blk device (vector [`svt_arch::VECTOR_BLK`]) on
/// `vcpu`'s workload lane, with its completion IRQs routed to that vCPU.
pub fn attach_blk_for(m: &mut Machine, vcpu: usize) {
    let lane = layout::lane(vcpu);
    let blk = VirtioBlk::new(
        BlkConfig {
            mmio_base: lane.blk_mmio,
        },
        &m.cost,
        Virtqueue::new(lane.blk_queue, QUEUE_SIZE),
    );
    m.add_device_for(Box::new(blk), vcpu);
}

/// Closed-loop single-connection arrival (netperf TCP_RR).
pub fn rr_arrival(cost: &CostModel) -> ArrivalMode {
    ArrivalMode::ClosedLoop {
        concurrency: 1,
        think: cost.netstack_per_packet + SimDuration::from_us(6),
    }
}
