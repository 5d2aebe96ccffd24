//! Guest-physical memory layout shared by the workload programs.
//!
//! All workloads place their virtqueues and buffer pools at fixed
//! addresses below the device MMIO windows; the default nested machine
//! identity-maps this range in both EPT levels.

use svt_mem::{Gpa, Hpa};

/// Size of one pooled buffer.
pub const BUF_SIZE: u64 = 0x1000;

/// Gap between consecutive vCPUs' MMIO windows (each device claims one
/// 4 KiB page; a 64 KiB gap keeps lanes page-aligned and far apart).
pub const MMIO_LANE_STRIDE: u64 = 0x1_0000;
/// Size of one extra lane's private memory block (queues + buffer pools).
pub const LANE_BLOCK_SIZE: u64 = 0x10_0000;
/// Base of the first extra lane's block (lane 0 keeps the historical
/// region below, so single-vCPU runs are bit-identical).
pub const LANE_BLOCKS_BASE: u64 = 0x40_0000;

/// Lane 0: the single-vCPU layout every figure was first measured on.
const LANE0: LaneLayout = LaneLayout {
    tx_queue: Hpa(0x20_0000),
    rx_queue: Hpa(0x21_0000),
    blk_queue: Hpa(0x22_0000),
    rx_bufs: Hpa(0x30_0000),
    tx_bufs: Hpa(0x38_0000),
    blk_bufs: Hpa(0x3a_0000),
    net_mmio: Gpa(0x4000_0000),
    blk_mmio: Gpa(0x4100_0000),
};

/// Guest-memory addresses of one vCPU's private workload lane: its
/// virtqueues, buffer pools and device MMIO windows. SMP workloads give
/// each vCPU its own lane so queue traffic never crosses vCPUs — the
/// queue-to-IRQ affinity the SMP machine routes device completions by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneLayout {
    /// TX virtqueue of the lane's NIC.
    pub tx_queue: Hpa,
    /// RX virtqueue of the lane's NIC.
    pub rx_queue: Hpa,
    /// Virtqueue of the lane's block device.
    pub blk_queue: Hpa,
    /// RX buffer pool base.
    pub rx_bufs: Hpa,
    /// TX buffer pool base.
    pub tx_bufs: Hpa,
    /// Block request buffer base.
    pub blk_bufs: Hpa,
    /// MMIO base of the lane's NIC.
    pub net_mmio: Gpa,
    /// MMIO base of the lane's block device.
    pub blk_mmio: Gpa,
}

/// The workload lane of vCPU `vcpu`. Lane 0 is exactly the historical
/// single-vCPU layout; every further lane gets a disjoint
/// [`LANE_BLOCK_SIZE`] memory block and its own MMIO windows, one
/// [`MMIO_LANE_STRIDE`] above the previous lane's.
pub fn lane(vcpu: usize) -> LaneLayout {
    if vcpu == 0 {
        return LANE0;
    }
    let base = LANE_BLOCKS_BASE + (vcpu as u64 - 1) * LANE_BLOCK_SIZE;
    let mmio_off = vcpu as u64 * MMIO_LANE_STRIDE;
    LaneLayout {
        tx_queue: Hpa(base),
        rx_queue: Hpa(base + 0x1_0000),
        blk_queue: Hpa(base + 0x2_0000),
        rx_bufs: Hpa(base + 0x4_0000),
        tx_bufs: Hpa(base + 0x8_0000),
        blk_bufs: Hpa(base + 0xa_0000),
        net_mmio: LANE0.net_mmio + mmio_off,
        blk_mmio: LANE0.blk_mmio + mmio_off,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane0_is_the_historical_layout() {
        assert_eq!(
            lane(0),
            LaneLayout {
                tx_queue: Hpa(0x20_0000),
                rx_queue: Hpa(0x21_0000),
                blk_queue: Hpa(0x22_0000),
                rx_bufs: Hpa(0x30_0000),
                tx_bufs: Hpa(0x38_0000),
                blk_bufs: Hpa(0x3a_0000),
                net_mmio: Gpa(0x4000_0000),
                blk_mmio: Gpa(0x4100_0000),
            }
        );
    }

    #[test]
    fn lanes_are_disjoint() {
        let lanes: Vec<_> = (0..8).map(lane).collect();
        for (i, a) in lanes.iter().enumerate() {
            for b in &lanes[i + 1..] {
                // Memory blocks at least a buffer pool apart.
                assert!(a.tx_queue.0.abs_diff(b.tx_queue.0) >= 0x4_0000);
                assert!(a.rx_bufs.0.abs_diff(b.rx_bufs.0) >= 0x4_0000);
                // MMIO windows never overlap (4 KiB each).
                assert!(a.net_mmio.0.abs_diff(b.net_mmio.0) >= 0x1000);
                assert!(a.blk_mmio.0.abs_diff(b.blk_mmio.0) >= 0x1000);
            }
        }
    }
}
