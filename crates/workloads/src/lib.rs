//! Workloads reproducing the SVt paper's evaluation.
//!
//! Every experiment of § 6 has a runner here:
//!
//! * [`fig6_grid`]/[`table1`] — the cpuid micro-benchmark (Fig. 6,
//!   Table 1) on either ISA backend;
//! * [`channel_study`] — the § 6.1 communication-channel feasibility study;
//! * [`fig7`] — the I/O subsystem benchmarks (netperf TCP_RR/TCP_STREAM,
//!   ioping, fio);
//! * [`fig8_series`] — memcached under Facebook's ETC workload with the
//!   500 µs SLA sweep;
//! * [`tpcc_tpm`] — TPC-C-lite throughput with WAL persistence (Fig. 9);
//! * [`video_playback`] — frame-deadline playback (Fig. 10);
//! * [`RunSpec`] — sharded memcached or TPC-C across N vCPUs, the one
//!   serving runner behind the SMP, profiling, chaos and telemetry runs.
//!
//! The guest-side programs are real: an in-memory key-value store, a
//! five-transaction TPC-C engine, virtqueue-driving network and disk
//! clients — all issuing genuine architectural operations against the
//! simulated nested stack.
//!
//! # Examples
//!
//! ```
//! use svt_workloads::cpuid_us_on;
//! use svt_arch::ArchId;
//! use svt_core::SwitchMode;
//! use svt_hv::Level;
//!
//! // The Fig. 6 baseline bar: one nested cpuid costs ~10.4us.
//! let t = cpuid_us_on(Level::L2, SwitchMode::Baseline, ArchId::X86, 10);
//! assert!((t - 10.4).abs() < 0.3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod channel;
mod chaos;
mod cpuid;
mod disk;
mod fig10;
mod fig7;
mod fig8;
mod fig9;
mod harness;
mod kvstore;
pub mod layout;
mod loadgen;
mod server;
mod smp;
mod stream;
mod telemetry;
mod tpcc;
mod video;

pub use channel::{
    channel_cell, channel_study, default_workloads, simulate_channel_round_ns, ChannelCell,
    Mechanism,
};
pub use chaos::{memcached_chaos, ChaosPoint};
pub use cpuid::{
    cpuid_counted, cpuid_us_on, fig6_grid, table1, ExitAttribution, Fig6Bar, Fig6Grid, Table1Row,
};
pub use disk::{DiskBench, DiskMode};
pub use fig10::{video_playback, PlaybackResult};
pub use fig7::{
    disk_bandwidth_kb_s, disk_latency_us, fig7, net_rr_latency_us, net_stream_mbps, IoRow,
};
pub use fig8::{default_rates, fig8_series, memcached_point, SLA_NS};
pub use fig9::tpcc_tpm;
pub use harness::{
    attach_blk_for, attach_loadgen_for_seeded, rr_arrival, DEFAULT_LANE_SEED, QUEUE_SIZE,
};
pub use kvstore::{EtcSource, KvService, OP_GET, OP_SET};
pub use loadgen::{
    regs, ArrivalMode, FixedSource, LoadGenConfig, LoadGenNet, LoadStats, Request, RequestSource,
    PAYLOAD_HEADER,
};
pub use server::{EchoService, ParsedRequest, RrServer, ServeOutput, ServerConfig, ServiceModel};
pub use smp::{
    memcached_smp_counted_seeded, tpcc_smp_seeded, App, CausalProfile, RunSpec, SmpPoint,
};
pub use stream::StreamSender;
pub use telemetry::{TelemetryOpts, TelemetryPoint};
pub use tpcc::{TpccDb, TpccService, TpccSource, TxType};
pub use video::{VideoConfig, VideoPlayer};
