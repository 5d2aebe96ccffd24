//! SW-SVt command encoding.
//!
//! The software prototype sends VM-trap and VM-resume commands over the
//! shared-memory rings (paper Fig. 5). A command carries the encoded exit
//! reason and the general-purpose register file of the trapped vCPU —
//! "the necessary information together with the commands on the shared
//! memory channels" (§ 5.2) — plus the hardening the chaos campaigns
//! forced on the protocol: a per-sender **sequence number** (so a
//! duplicated command is recognised as stale and discarded) and an
//! **FNV-1a checksum** over the payload (so a corrupted command is
//! rejected and retransmitted instead of silently steering the guest).
//! Both fit inside the payload's existing third cache line, so the
//! fault-free transfer cost is unchanged.

use std::error::Error;
use std::fmt;

use svt_cpu::{Gpr, GprState};
use svt_sim::snapshot::{Sink, Snap, SnapError, SnapReader};

/// Command: L0 tells L1's SVt-thread an L2 trap needs handling.
pub const CMD_VM_TRAP: u32 = 1;
/// Command: the SVt-thread tells L0 that handling finished; resume L2.
pub const CMD_VM_RESUME: u32 = 2;

/// Encoded size of a command payload in bytes:
/// kind (4) + checksum (4) + seq (8) + code (8) + qual (8) + GPR file.
pub const PAYLOAD_LEN: usize = 4 + 4 + 8 + 8 + 8 + 8 * Gpr::COUNT;

/// Why a received command was rejected by the hardened protocol. Every
/// variant is a *runtime* error in release builds — rejection feeds the
/// retransmit / fallback recovery path and is counted in the metrics
/// registry, never an assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// The ring slot did not hold a well-formed payload.
    Malformed,
    /// The checksum did not match the payload bytes.
    Corrupt,
    /// The command kind was not the one the protocol state expects.
    BadKind {
        /// Kind received.
        got: u32,
        /// Kind the lockstep protocol expects here.
        want: u32,
    },
    /// The ring was empty where the protocol expects a command.
    Empty,
    /// The ring had no free slot for the command.
    RingFull,
}

impl ProtocolError {
    /// Stable snake_case name (metric dimension).
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolError::Malformed => "malformed",
            ProtocolError::Corrupt => "corrupt",
            ProtocolError::BadKind { .. } => "bad_kind",
            ProtocolError::Empty => "empty",
            ProtocolError::RingFull => "ring_full",
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Malformed => write!(f, "malformed command payload"),
            ProtocolError::Corrupt => write!(f, "command checksum mismatch"),
            ProtocolError::BadKind { got, want } => {
                write!(f, "unexpected command kind {got} (want {want})")
            }
            ProtocolError::Empty => write!(f, "ring empty where a command is expected"),
            ProtocolError::RingFull => write!(f, "ring full: command not enqueued"),
        }
    }
}

impl Error for ProtocolError {}

/// A trap/resume command with its register payload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Command {
    /// [`CMD_VM_TRAP`] or [`CMD_VM_RESUME`].
    pub kind: u32,
    /// Sender-assigned sequence number (monotonic per ring pair).
    pub seq: u64,
    /// Encoded exit-reason code.
    pub code: u64,
    /// Encoded exit qualification.
    pub qual: u64,
    /// The vCPU's general-purpose registers.
    pub gprs: GprState,
    /// FNV-1a checksum over every other encoded byte.
    pub csum: u32,
}

/// The encoded ring payload as a byte string; bytes
/// [`Command::decode`] rejects are `BadValue`.
impl Snap for Command {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        w.bytes(&self.encode());
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let payload = r.bytes()?;
        *self = Command::decode(payload).ok_or(SnapError::BadValue {
            what: "SW-SVt command payload",
            got: payload.len() as u64,
        })?;
        Ok(())
    }
}

/// FNV-1a over the encoded payload with the checksum field zeroed.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for (i, &b) in bytes.iter().enumerate() {
        // The checksum field itself (bytes 4..8) does not self-checksum.
        let b = if (4..8).contains(&i) { 0 } else { b };
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

impl Command {
    /// Builds a command with its checksum computed.
    pub fn new(kind: u32, seq: u64, code: u64, qual: u64, gprs: GprState) -> Command {
        let mut cmd = Command {
            kind,
            seq,
            code,
            qual,
            gprs,
            csum: 0,
        };
        cmd.csum = fnv1a(&cmd.encode());
        cmd
    }

    /// Serializes to the ring-payload byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(PAYLOAD_LEN);
        out.extend_from_slice(&self.kind.to_le_bytes());
        out.extend_from_slice(&self.csum.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.code.to_le_bytes());
        out.extend_from_slice(&self.qual.to_le_bytes());
        for (_, v) in self.gprs.iter() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Deserializes from a ring payload.
    ///
    /// Returns `None` if the payload is malformed. The checksum is
    /// carried through verbatim — callers decide with
    /// [`Command::verify`], so a corrupted command is still inspectable.
    pub fn decode(bytes: &[u8]) -> Option<Command> {
        if bytes.len() != PAYLOAD_LEN {
            return None;
        }
        let kind = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
        let csum = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
        let seq = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        let code = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
        let qual = u64::from_le_bytes(bytes[24..32].try_into().ok()?);
        let mut gprs = GprState::default();
        for (i, r) in Gpr::ALL.iter().enumerate() {
            let off = 32 + i * 8;
            gprs.set(*r, u64::from_le_bytes(bytes[off..off + 8].try_into().ok()?));
        }
        Some(Command {
            kind,
            seq,
            code,
            qual,
            gprs,
            csum,
        })
    }

    /// Whether the carried checksum matches the payload bytes.
    pub fn verify(&self) -> bool {
        self.csum == fnv1a(&self.encode())
    }

    /// Number of 64-byte cache lines the payload dirties in the shared
    /// channel (what the receiving sibling must pull across).
    pub fn cache_lines(&self) -> u64 {
        (PAYLOAD_LEN as u64).div_ceil(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Command {
        let mut gprs = GprState::default();
        for (i, r) in Gpr::ALL.iter().enumerate() {
            gprs.set(*r, 0x1000 + i as u64);
        }
        Command::new(CMD_VM_TRAP, 3, 10, 0, gprs)
    }

    #[test]
    fn encode_decode_round_trip() {
        let c = sample();
        let bytes = c.encode();
        assert_eq!(bytes.len(), PAYLOAD_LEN);
        let back = Command::decode(&bytes).unwrap();
        assert_eq!(back, c);
        assert!(back.verify());
    }

    #[test]
    fn truncated_payload_rejected() {
        let bytes = sample().encode();
        assert_eq!(Command::decode(&bytes[..PAYLOAD_LEN - 1]), None);
        assert_eq!(Command::decode(&[]), None);
    }

    #[test]
    fn payload_spans_three_cache_lines() {
        // 160 bytes -> 3 lines: seq + checksum ride in the third line the
        // 148-byte payload already occupied, so the fault-free channel
        // cost is identical to the unhardened protocol's.
        assert_eq!(PAYLOAD_LEN, 160);
        assert_eq!(sample().cache_lines(), 3);
    }

    #[test]
    fn any_single_flipped_byte_fails_verification() {
        let c = sample();
        let clean = c.encode();
        for i in 0..PAYLOAD_LEN {
            let mut bytes = clean.clone();
            bytes[i] ^= 0xa5;
            let got = Command::decode(&bytes).unwrap();
            assert!(!got.verify(), "flip at byte {i} slipped past the checksum");
        }
    }

    #[test]
    fn sequence_numbers_travel_with_the_command() {
        let mut c = sample();
        c = Command::new(c.kind, 0xdead_beef, c.code, c.qual, c.gprs);
        let back = Command::decode(&c.encode()).unwrap();
        assert_eq!(back.seq, 0xdead_beef);
        assert!(back.verify());
    }

    #[test]
    fn protocol_error_names_and_display() {
        let e = ProtocolError::BadKind { got: 9, want: 1 };
        assert_eq!(e.name(), "bad_kind");
        assert!(e.to_string().contains('9'));
        assert_eq!(ProtocolError::Corrupt.name(), "corrupt");
    }
}
