//! Virtio substrate: virtqueues, virtio-net and virtio-blk.
//!
//! The I/O devices the paper's subsystem and application benchmarks run
//! on ("virtio-net-pci+vhost, virtio disk @ ramfs", Table 4):
//!
//! * [`Virtqueue`] — split queues living byte-for-byte in guest memory;
//! * [`VirtioNet`] — a NIC with a serialized 10 GbE wire and a sink peer
//!   that ACKs (the netperf TCP_STREAM counterpart machine);
//! * [`VirtioBlk`] — a block device over a RAM disk with per-sector media
//!   time (the tmpfs-backed image of the paper).
//!
//! Device service times and per-operation privileged-backend-operation
//! counts form the *exit profiles* from which Fig. 7's I/O results are
//! reproduced.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod blk;
mod net;
mod queue;

pub use blk::{BlkConfig, BlkStats, VirtioBlk, BLK_T_IN, BLK_T_OUT, REG_BLK_NOTIFY, SECTOR_SIZE};
pub use net::{NetConfig, NetStats, VirtioNet, REG_STATUS, REG_TX_NOTIFY};
pub use queue::{DescChain, Descriptor, QueueError, Virtqueue, DESC_F_NEXT, DESC_F_WRITE};
