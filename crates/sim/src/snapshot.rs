//! Versioned, checksummed, deterministic state serialization.
//!
//! Every stateful component implements [`Snap`]: one `save` that writes
//! its fields to a [`Sink`] and one `load` that reads them back. Most
//! types get both from one field list, [`snap_fields!`](crate::snap_fields).
//! The state fingerprint is the same `save` traversal fed into a
//! [`Fingerprint`] instead of a [`SnapWriter`], so it folds exactly what
//! a snapshot stores.
//!
//! The format is deliberately dumb: little-endian fixed-width integers,
//! length-prefixed byte strings, no self-description, maps in sorted key
//! order. The envelope ([`seal`]/[`open`]) adds an 8-byte magic, the
//! format version, the payload length, the producer's state fingerprint
//! and an FNV-1a checksum of the payload; `open` validates all but the
//! fingerprint, which the caller cross-checks against the state it
//! reconstructed. Run reports are written with [`atomic_write`] (temp
//! file + rename), so a crash never leaves a torn file.
//!
//! # Examples
//!
//! ```
//! use svt_sim::snap_fields;
//! use svt_sim::snapshot::{fingerprint, from_bytes, open, seal, to_bytes, SnapError, SNAP_VERSION};
//!
//! #[derive(Default)]
//! struct Queue {
//!     base: u64,
//!     hits: Vec<u64>,
//!     label: &'static str,
//! }
//! snap_fields! { Queue { #[shape = "queue base"] base, hits } skip { label } }
//!
//! let q = Queue { base: 0x1000, hits: vec![42], label: "tx" };
//! let sealed = seal(SNAP_VERSION, fingerprint(&q), to_bytes(&q));
//!
//! let (fp, payload) = open(&sealed, SNAP_VERSION).unwrap();
//! let mut back = Queue { base: 0x1000, ..Queue::default() };
//! from_bytes(&mut back, payload).unwrap();
//! assert_eq!((&back.hits[..], back.label), (&[42][..], ""));
//! assert_eq!(fingerprint(&back), fp);
//! let mut moved = Queue { base: 0x2000, ..Queue::default() };
//! assert!(matches!(from_bytes(&mut moved, payload), Err(SnapError::ShapeMismatch { .. })));
//! ```

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::fs;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::Path;
use std::rc::Rc;
use std::sync::Mutex;

use crate::hash::{FnvHashMap, FnvHashSet, FnvHasher};
use crate::time::{SimDuration, SimTime};

/// Current snapshot format version. Bumped on any wire-format change;
/// [`open`] rejects snapshots from other versions with
/// [`SnapError::BadVersion`] rather than misinterpreting bytes.
pub const SNAP_VERSION: u32 = 4;

/// Magic prefix of every sealed snapshot ("SVTSNAP\0").
pub const SNAP_MAGIC: [u8; 8] = *b"SVTSNAP\0";

/// Typed error for snapshot decoding and integrity validation.
///
/// Every failure mode a corrupted, truncated, or mismatched snapshot can
/// produce maps to a variant here. Decoders never trust a length: every
/// container reserves at most the bytes still unread, so a hostile count
/// ends in [`SnapError::UnexpectedEof`], not an allocation abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The reader ran off the end of the payload (truncation).
    UnexpectedEof {
        /// Byte offset at which the read was attempted.
        at: usize,
        /// Bytes the failed read needed.
        want: usize,
        /// Bytes remaining in the payload.
        have: usize,
    },
    /// The sealed blob does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The sealed blob was produced by a different format version.
    BadVersion {
        /// Version found in the envelope.
        got: u32,
        /// Version this build expects.
        want: u32,
    },
    /// The payload length in the envelope disagrees with the blob size.
    BadLength {
        /// Length the envelope claims.
        claimed: u64,
        /// Bytes actually present after the header.
        actual: u64,
    },
    /// The FNV-1a checksum over the payload does not match (bit rot or
    /// torn write).
    ChecksumMismatch {
        /// Checksum stored in the envelope.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// The semantic state-fingerprint recorded at save time does not
    /// match the state reconstructed at load time.
    FingerprintMismatch {
        /// Fingerprint stored in the envelope.
        stored: u64,
        /// Fingerprint recomputed from the restored state.
        computed: u64,
    },
    /// An enum tag or flag byte held a value outside its domain.
    BadValue {
        /// What was being decoded.
        what: &'static str,
        /// The offending raw value.
        got: u64,
    },
    /// The snapshot describes a machine whose fixed shape (ISA, vCPU
    /// count, device count, reflector kind, ...) differs from the
    /// machine it is being restored into.
    ShapeMismatch {
        /// Which shape property disagreed.
        what: &'static str,
        /// Value recorded in the snapshot.
        snapshot: u64,
        /// Value of the live machine.
        live: u64,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the decoder consumed everything it expected.
    TrailingBytes {
        /// Number of unconsumed bytes.
        count: usize,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof { at, want, have } => write!(
                f,
                "snapshot truncated: need {want} bytes at offset {at}, {have} left"
            ),
            SnapError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapError::BadVersion { got, want } => {
                write!(f, "snapshot version {got} unsupported (expected {want})")
            }
            SnapError::BadLength { claimed, actual } => write!(
                f,
                "snapshot length mismatch: envelope claims {claimed} bytes, found {actual}"
            ),
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapError::FingerprintMismatch { stored, computed } => write!(
                f,
                "state fingerprint mismatch after restore: snapshot {stored:#018x}, \
                 restored machine {computed:#018x}"
            ),
            SnapError::BadValue { what, got } => {
                write!(f, "invalid {what} value {got} in snapshot")
            }
            SnapError::ShapeMismatch {
                what,
                snapshot,
                live,
            } => write!(
                f,
                "snapshot shape mismatch on {what}: snapshot has {snapshot}, live machine {live}"
            ),
            SnapError::BadUtf8 => write!(f, "snapshot string is not valid UTF-8"),
            SnapError::TrailingBytes { count } => {
                write!(f, "{count} unconsumed bytes after snapshot payload")
            }
        }
    }
}

impl Error for SnapError {}

/// Where a [`Snap::save`] traversal goes: the payload writer
/// ([`SnapWriter`]) or the state fold ([`Fingerprint`]). Every snapshot
/// byte is one of these five primitives.
pub trait Sink {
    /// One byte.
    fn u8(&mut self, v: u8);
    /// A little-endian `u16`.
    fn u16(&mut self, v: u16);
    /// A little-endian `u32`.
    fn u32(&mut self, v: u32);
    /// A little-endian `u64`.
    fn u64(&mut self, v: u64);
    /// A length-prefixed byte string.
    fn bytes(&mut self, v: &[u8]);
}

/// Append-only little-endian byte sink for snapshot payloads.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Consumes the writer, returning the raw payload.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

impl Sink for SnapWriter {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
}

/// Bounds-checked little-endian reader over a snapshot payload.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors with [`SnapError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::TrailingBytes {
                count: self.remaining(),
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::UnexpectedEof {
                at: self.pos,
                want: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The next byte, left unread.
    pub fn peek_u8(&self) -> Result<u8, SnapError> {
        self.buf
            .get(self.pos)
            .copied()
            .ok_or(SnapError::UnexpectedEof {
                at: self.pos,
                want: 1,
                have: 0,
            })
    }

    /// Reads a length-prefixed byte string. The length is validated
    /// against the remaining payload before any allocation, so a
    /// corrupted length cannot trigger a huge allocation.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let mut n = 0usize;
        n.load(self)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| SnapError::BadUtf8)
    }
}

/// FNV-1a over a byte slice — the checksum used by the envelope and by
/// state fingerprints that fold raw buffers.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

/// Incremental FNV-1a fold over `u64` words: one multiply per word (the
/// fold `HostProf`'s trap-shape keys use too). As a [`Sink`] it folds
/// one word per primitive and byte strings as their length plus their
/// bytes, which makes a [`Snap::save`] traversal into a state
/// fingerprint.
#[derive(Debug, Clone, Default)]
pub struct Fingerprint(FnvHasher);

impl Fingerprint {
    /// Starts a fresh fold.
    pub fn new() -> Self {
        Fingerprint::default()
    }

    /// Folds one word.
    #[inline]
    pub fn fold(&mut self, v: u64) -> &mut Self {
        self.0.write_u64(v);
        self
    }

    /// Folds a byte slice.
    #[inline]
    pub fn fold_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.0.write(bytes);
        self
    }

    /// Finishes the fold.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0.finish()
    }
}

impl Sink for Fingerprint {
    fn u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }

    fn u16(&mut self, v: u16) {
        self.fold(u64::from(v));
    }

    fn u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    fn u64(&mut self, v: u64) {
        self.fold(v);
    }

    fn bytes(&mut self, v: &[u8]) {
        self.fold(v.len() as u64).fold_bytes(v);
    }
}

/// A snapshottable value: `save` writes it, `load` reads it back into an
/// existing value of the same shape. Containers build fresh elements
/// with `Default` before loading into them.
pub trait Snap {
    /// Writes the value's state.
    fn save<S: Sink + ?Sized>(&self, w: &mut S);

    /// Reads state written by [`Snap::save`].
    ///
    /// # Errors
    ///
    /// Typed [`SnapError`] on truncation, an out-of-domain value, or a
    /// shape that differs from the live value's.
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// The object-safe face of [`Snap`], for state behind trait objects
/// (device models, switch engines, request sources). Every `Snap` type
/// has it.
pub trait SnapDyn {
    /// [`Snap::save`] through a dynamic sink.
    fn save_dyn(&self, w: &mut dyn Sink);

    /// [`Snap::load`]; errors as there.
    fn load_dyn(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

impl<T: Snap> SnapDyn for T {
    fn save_dyn(&self, w: &mut dyn Sink) {
        self.save(w);
    }

    fn load_dyn(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.load(r)
    }
}

/// Decodes a fresh value (an enum variant's field, a container element);
/// errors as [`Snap::load`].
pub fn load_new<T: Snap + Default>(r: &mut SnapReader<'_>) -> Result<T, SnapError> {
    let mut v = T::default();
    v.load(r)?;
    Ok(v)
}

/// Serializes `v` into a bare payload.
pub fn to_bytes<T: Snap + ?Sized>(v: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    v.save(&mut w);
    w.into_vec()
}

/// Loads a bare payload into `v`, which must consume all of it; errors
/// as [`Snap::load`], plus [`SnapError::TrailingBytes`].
pub fn from_bytes<T: Snap + ?Sized>(v: &mut T, payload: &[u8]) -> Result<(), SnapError> {
    let mut r = SnapReader::new(payload);
    v.load(&mut r)?;
    r.finish()
}

/// The fingerprint of `v`: its [`Snap::save`] traversal folded into a
/// [`Fingerprint`].
pub fn fingerprint<T: Snap + ?Sized>(v: &T) -> u64 {
    let mut fp = Fingerprint::new();
    v.save(&mut fp);
    fp.value()
}

/// Writes the state behind a trait object as a length-prefixed
/// sub-payload (empty for an empty slot), so an engine or device can
/// change its layout without shifting the bytes around it.
pub fn save_nested<S: Sink + ?Sized>(v: Option<&dyn SnapDyn>, w: &mut S) {
    let mut sub = SnapWriter::new();
    if let Some(v) = v {
        v.save_dyn(&mut sub);
    }
    w.bytes(&sub.buf);
}

/// Reads a sub-payload written by [`save_nested`]; `v` must consume all
/// of it. Errors as [`Snap::load`], plus [`SnapError::TrailingBytes`].
pub fn load_nested(v: Option<&mut dyn SnapDyn>, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
    let mut sub = SnapReader::new(r.bytes()?);
    if let Some(v) = v {
        v.load_dyn(&mut sub)?;
    }
    sub.finish()
}

/// Reads a *shape* value: construction-time configuration the snapshot
/// records so that restore can refuse a differently built target. The
/// live value is kept; a different stored one is
/// [`SnapError::ShapeMismatch`], reporting values of up to eight bytes
/// as such and wider ones by their FNV-1a.
///
/// # Errors
///
/// [`SnapError::ShapeMismatch`], or what decoding the stored value
/// raises.
pub fn load_shape<T: Snap + Clone + PartialEq>(
    live: &T,
    what: &'static str,
    r: &mut SnapReader<'_>,
) -> Result<(), SnapError> {
    let mut stored = live.clone();
    stored.load(r)?;
    if stored == *live {
        return Ok(());
    }
    let word = |v: &T| {
        let b = to_bytes(v);
        let mut le = [0u8; 8];
        match le.get_mut(..b.len()) {
            Some(head) => head.copy_from_slice(&b),
            None => return fnv1a(&b),
        }
        u64::from_le_bytes(le)
    };
    Err(SnapError::ShapeMismatch {
        what,
        snapshot: word(&stored),
        live: word(live),
    })
}

/// Decodes a one-byte enum code; `decode` returns `None` for codes
/// outside the enum's domain, which become [`SnapError::BadValue`]
/// naming `what`.
pub fn load_code<T>(
    r: &mut SnapReader<'_>,
    what: &'static str,
    decode: impl FnOnce(u8) -> Option<T>,
) -> Result<T, SnapError> {
    let code = r.u8()?;
    decode(code).ok_or(SnapError::BadValue {
        what,
        got: u64::from(code),
    })
}

/// Implements [`Snap`] for a struct from one field list, in wire order.
///
/// Save and load both destructure the struct with no rest pattern, so
/// every field must appear either in the list or under `skip` (values
/// that are never saved: construction config, process-local caches).
/// A field marked `#[shape = "what"]` is saved like any other, but on
/// load it is only compared with the live value (see [`load_shape`]); a
/// shape may also be one field of a skipped config struct, written as a
/// path (`#[shape = "MMIO base"] cfg.mmio_base`).
/// `snap_fields! { Id(_) }` saves a one-field tuple struct's field. See
/// the [module example](self).
#[macro_export]
macro_rules! snap_fields {
    ($ty:ident {
        $($(#[shape = $what:literal])? $f:ident $(. $sub:ident)*),* $(,)?
    } $(skip { $($s:ident),* $(,)? })?) => {
        impl $crate::snapshot::Snap for $ty {
            #[allow(unused_variables)]
            fn save<S: $crate::snapshot::Sink + ?Sized>(&self, w: &mut S) {
                let $ty { $($f,)* $($($s: _,)*)? } = self;
                $($crate::snapshot::Snap::save(&(*$f)$(.$sub)*, w);)*
            }

            #[allow(unused_variables)]
            fn load(
                &mut self,
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<(), $crate::snapshot::SnapError> {
                let $ty { $($f,)* $($($s: _,)*)? } = self;
                $($crate::snap_fields!(@load r, (*$f)$(.$sub)* $(, $what)?);)*
                Ok(())
            }
        }
    };
    ($ty:ident(_)) => {
        impl $crate::snapshot::Snap for $ty {
            fn save<S: $crate::snapshot::Sink + ?Sized>(&self, w: &mut S) {
                let $ty(v) = self;
                $crate::snapshot::Snap::save(v, w)
            }

            fn load(
                &mut self,
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<(), $crate::snapshot::SnapError> {
                let $ty(v) = self;
                $crate::snapshot::Snap::load(v, r)
            }
        }
    };
    (@load $r:ident, $place:expr) => {
        $crate::snapshot::Snap::load(&mut $place, $r)?
    };
    (@load $r:ident, $place:expr, $what:literal) => {
        $crate::snapshot::load_shape(&$place, $what, $r)?
    };
}

/// Implements [`Snap`] for a fieldless enum as one byte, the variant's
/// position in the list (declaration order, so the list is the enum); an
/// unknown byte is [`SnapError::BadValue`] naming `what`.
#[macro_export]
macro_rules! snap_enum {
    ($what:literal => $ty:ident { $($v:ident),* $(,)? }) => {
        impl $crate::snapshot::Snap for $ty {
            fn save<S: $crate::snapshot::Sink + ?Sized>(&self, w: &mut S) {
                // Exhaustive: a variant missing from the list does not compile.
                match self {
                    $($ty::$v)|* => {}
                }
                const ALL: &[$ty] = &[$($ty::$v),*];
                w.u8(ALL.iter().position(|v| v == self).expect("listed variant") as u8);
            }

            fn load(
                &mut self,
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<(), $crate::snapshot::SnapError> {
                const ALL: &[$ty] = &[$($ty::$v),*];
                *self = $crate::snapshot::load_code(r, $what, |c| ALL.get(usize::from(c)).copied())?;
                Ok(())
            }
        }
    };
}

macro_rules! snap_word {
    ($($t:ty => $m:ident),*) => {$(
        impl Snap for $t {
            fn save<S: Sink + ?Sized>(&self, w: &mut S) {
                w.$m(*self);
            }

            fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                *self = r.$m()?;
                Ok(())
            }
        }
    )*};
}

snap_word!(u8 => u8, u16 => u16, u32 => u32, u64 => u64);

/// Two words, low first.
impl Snap for u128 {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        w.u64(*self as u64);
        w.u64((*self >> 64) as u64);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let lo = r.u64()?;
        *self = u128::from(lo) | u128::from(r.u64()?) << 64;
        Ok(())
    }
}

/// Stored as a `u64`; a value that overflows this host's `usize` is
/// [`SnapError::BadValue`].
impl Snap for usize {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        w.u64(*self as u64);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let v = r.u64()?;
        *self = usize::try_from(v).map_err(|_| SnapError::BadValue {
            what: "usize",
            got: v,
        })?;
        Ok(())
    }
}

/// One byte, 0 or 1; any other byte is [`SnapError::BadValue`].
impl Snap for bool {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        w.u8(u8::from(*self));
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = load_code(r, "bool", |b| (b < 2).then_some(b == 1))?;
        Ok(())
    }
}

/// Stored as its IEEE-754 bit pattern (exact round trip).
impl Snap for f64 {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        w.u64(self.to_bits());
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = f64::from_bits(r.u64()?);
        Ok(())
    }
}

impl Snap for SimTime {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        w.u64(self.as_ps());
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = SimTime::from_ps(r.u64()?);
        Ok(())
    }
}

impl Snap for SimDuration {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        w.u64(self.as_ps());
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = SimDuration::from_ps(r.u64()?);
        Ok(())
    }
}

/// A length-prefixed string, re-interned on load with [`intern_static`].
impl Snap for &'static str {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        w.bytes(self.as_bytes());
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = intern_static(r.str()?);
        Ok(())
    }
}

/// A length-prefixed UTF-8 string.
impl Snap for String {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        w.bytes(self.as_bytes());
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = r.str()?.to_owned();
        Ok(())
    }
}

/// A presence byte (0 or 1, anything else is [`SnapError::BadValue`])
/// followed by the value.
impl<T: Snap + Default> Snap for Option<T> {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        w.u8(u8::from(self.is_some()));
        if let Some(v) = self {
            v.save(w);
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let some = load_code(r, "option tag", |b| (b < 2).then_some(b == 1))?;
        *self = if some { Some(load_new(r)?) } else { None };
        Ok(())
    }
}

/// Elements in order, no length prefix: the length is the type's.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        self.iter().for_each(|v| v.save(w));
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.iter_mut().try_for_each(|v| v.load(r))
    }
}

macro_rules! snap_tuple {
    ($(($($t:ident $i:tt),*)),*) => {$(
        impl<$($t: Snap),*> Snap for ($($t,)*) {
            fn save<S: Sink + ?Sized>(&self, w: &mut S) {
                $(self.$i.save(w);)*
            }

            fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                $(self.$i.load(r)?;)*
                Ok(())
            }
        }
    )*};
}

snap_tuple!((A 0, B 1), (A 0, B 1, C 2), (A 0, B 1, C 2, D 3), (A 0, B 1, C 2, D 3, E 4));
snap_tuple!((A 0, B 1, C 2, D 3, E 4, F 5));

/// The shared value, once (a handle's other owners see the load).
impl<T: Snap> Snap for Rc<RefCell<T>> {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        self.borrow().save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.borrow_mut().load(r)
    }
}

/// Writes a length and then `items`, in the order given.
pub(crate) fn save_items<'a, T: Snap + 'a, S: Sink + ?Sized>(
    len: usize,
    items: impl Iterator<Item = &'a T>,
    w: &mut S,
) {
    len.save(w);
    items.for_each(|v| v.save(w));
}

/// Reads a length and then that many fresh items, handing each to `put`
/// with how many items its container may reserve room for. The length is
/// not trusted: the reservation is at most the bytes still unread (every
/// item takes at least one), so a hostile count runs into
/// [`SnapError::UnexpectedEof`] instead of an allocation abort.
pub(crate) fn load_items<T: Snap + Default>(
    r: &mut SnapReader<'_>,
    mut put: impl FnMut(T, usize),
) -> Result<(), SnapError> {
    let n: usize = load_new(r)?;
    let reserve = n.min(r.remaining());
    for i in 0..n {
        put(load_new(r)?, if i == 0 { reserve } else { 0 });
    }
    Ok(())
}

macro_rules! snap_seq {
    ($($seq:ident => $push:ident),*) => {$(
        /// A length, then the elements in order.
        impl<T: Snap + Default> Snap for $seq<T> {
            fn save<S: Sink + ?Sized>(&self, w: &mut S) {
                save_items(self.len(), self.iter(), w);
            }

            fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                self.clear();
                load_items(r, |v, room| {
                    self.reserve(room);
                    self.$push(v);
                })
            }
        }
    )*};
}

snap_seq!(Vec => push, VecDeque => push_back);

/// A length, then the elements in sorted order.
impl<T: Snap + Default + Ord> Snap for BTreeSet<T> {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        save_items(self.len(), self.iter(), w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        load_items(r, |v, _| {
            self.insert(v);
        })
    }
}

/// A length, then the elements in sorted order (independent of hashing).
impl<T: Snap + Default + Ord + Hash> Snap for FnvHashSet<T> {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        let mut sorted: Vec<&T> = self.iter().collect();
        sorted.sort_unstable();
        save_items(sorted.len(), sorted.into_iter(), w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        load_items(r, |v, _| {
            self.insert(v);
        })
    }
}

/// A length, then `(key, value)` pairs in key order.
impl<K: Snap + Default + Ord, V: Snap + Default> Snap for BTreeMap<K, V> {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        self.len().save(w);
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        load_items(r, |(k, v), _| {
            self.insert(k, v);
        })
    }
}

/// A length, then `(key, value)` pairs in key order (independent of
/// hashing).
impl<K: Snap + Default + Ord + Hash, V: Snap + Default> Snap for FnvHashMap<K, V> {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        let mut sorted: Vec<(&K, &V)> = self.iter().collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
        self.len().save(w);
        for (k, v) in sorted {
            k.save(w);
            v.save(w);
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        load_items(r, |(k, v), _| {
            self.insert(k, v);
        })
    }
}

/// A boxed fixed-size byte block (a RAM page, a disk sector): zeroed by
/// default, and snapshotted as a length-prefixed byte string whose
/// length must be `N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteBlock<const N: usize>(pub Box<[u8; N]>);

impl<const N: usize> Default for ByteBlock<N> {
    fn default() -> Self {
        ByteBlock(Box::new([0; N]))
    }
}

impl<const N: usize> Snap for ByteBlock<N> {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        w.bytes(&self.0[..]);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let bytes = r.bytes()?;
        let block: &[u8; N] = bytes.try_into().map_err(|_| SnapError::BadValue {
            what: "byte block length",
            got: bytes.len() as u64,
        })?;
        *self.0 = *block;
        Ok(())
    }
}

// Envelope layout, all little-endian:
//   [0..8)    SNAP_MAGIC
//   [8..12)   format version (u32)
//   [12..20)  payload length (u64)
//   [20..28)  state fingerprint (u64)
//   [28..36)  FNV-1a checksum of payload (u64)
//   [36..)    payload
const HEADER_LEN: usize = 36;

/// Wraps a payload in the integrity envelope.
pub fn seal(version: u32, fingerprint: u64, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validates a sealed blob and returns `(fingerprint, payload)`.
///
/// # Errors
///
/// [`SnapError::BadMagic`], [`SnapError::BadVersion`],
/// [`SnapError::BadLength`] (truncated or padded blob), or
/// [`SnapError::ChecksumMismatch`] (payload corruption).
pub fn open(blob: &[u8], version: u32) -> Result<(u64, &[u8]), SnapError> {
    if blob.len() < HEADER_LEN {
        if !blob.starts_with(&SNAP_MAGIC[..blob.len().min(8)]) {
            return Err(SnapError::BadMagic);
        }
        return Err(SnapError::UnexpectedEof {
            at: blob.len(),
            want: HEADER_LEN,
            have: blob.len(),
        });
    }
    if blob[..8] != SNAP_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let got_version = u32::from_le_bytes(blob[8..12].try_into().unwrap());
    if got_version != version {
        return Err(SnapError::BadVersion {
            got: got_version,
            want: version,
        });
    }
    let claimed = u64::from_le_bytes(blob[12..20].try_into().unwrap());
    let fingerprint = u64::from_le_bytes(blob[20..28].try_into().unwrap());
    let stored_sum = u64::from_le_bytes(blob[28..36].try_into().unwrap());
    let payload = &blob[HEADER_LEN..];
    if claimed != payload.len() as u64 {
        return Err(SnapError::BadLength {
            claimed,
            actual: payload.len() as u64,
        });
    }
    let computed = fnv1a(payload);
    if computed != stored_sum {
        return Err(SnapError::ChecksumMismatch {
            stored: stored_sum,
            computed,
        });
    }
    Ok((fingerprint, payload))
}

/// Writes `bytes` to `path` atomically: the content lands in a sibling
/// temp file first and is renamed into place, so readers (and crashes)
/// see either the old file or the complete new one, never a torn write.
///
/// # Errors
///
/// Propagates I/O errors from create/write/sync/rename.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp_path = match dir {
        Some(d) => d.join(&tmp_name),
        None => Path::new(&tmp_name).to_path_buf(),
    };
    let write = (|| {
        let mut f = fs::File::create(&tmp_path)?;
        io::Write::write_all(&mut f, bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp_path, path)
    })();
    if write.is_err() {
        let _ = fs::remove_file(&tmp_path);
    }
    write
}

static INTERNED: Mutex<Option<FnvHashSet<&'static str>>> = Mutex::new(None);

/// Returns a `&'static str` equal to `s`, leaking at most one copy per
/// distinct string per process. Snapshot restore uses this to rebuild
/// `&'static str`-keyed maps (clock tags, metric names): the universe of
/// such strings is the fixed set of in-tree names, so the leak is
/// bounded and one-time.
pub fn intern_static(s: &str) -> &'static str {
    let mut guard = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
    let set = guard.get_or_insert_with(FnvHashSet::default);
    if let Some(&hit) = set.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let v = (
            (0xabu8, 0xbeefu16, 0xdead_beefu32),
            (u64::MAX - 1, 3.5f64, true),
        );
        let w = (
            (123_456usize, "svt", u128::MAX - 2),
            (Some(7u64), None::<u64>, [SimTime::MAX; 2]),
        );
        let bytes = to_bytes(&(v, w));
        let mut back = <(((u8, u16, u32), (u64, f64, bool)), _)>::default();
        from_bytes(&mut back, &bytes).unwrap();
        assert_eq!(back, (v, w));
        // Fixed-width little-endian: the layout is the contract.
        assert_eq!(
            bytes.len(),
            1 + 2 + 4 + 8 + 8 + 1 + 8 + (8 + 3) + 16 + 9 + 1 + 16
        );
        assert_eq!(&bytes[..3], &[0xab, 0xef, 0xbe]);
    }

    #[test]
    fn truncated_reads_are_typed() {
        let mut w = SnapWriter::new();
        w.u32(1);
        let buf = w.into_vec();
        let mut r = SnapReader::new(&buf);
        assert!(matches!(r.u64(), Err(SnapError::UnexpectedEof { .. })));
    }

    #[test]
    fn corrupt_length_prefix_does_not_allocate() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // absurd length prefix
        let buf = w.into_vec();
        let mut r = SnapReader::new(&buf);
        assert!(matches!(r.bytes(), Err(SnapError::UnexpectedEof { .. })));
    }

    #[test]
    fn envelope_round_trip() {
        let sealed = seal(SNAP_VERSION, 0x1234, vec![1, 2, 3, 4]);
        let (fp, payload) = open(&sealed, SNAP_VERSION).unwrap();
        assert_eq!(fp, 0x1234);
        assert_eq!(payload, &[1, 2, 3, 4]);
    }

    #[test]
    fn envelope_rejects_corruption() {
        let sealed = seal(SNAP_VERSION, 0, vec![0u8; 64]);

        let mut flipped = sealed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            open(&flipped, SNAP_VERSION),
            Err(SnapError::ChecksumMismatch { .. })
        ));

        let truncated = &sealed[..sealed.len() - 5];
        assert!(matches!(
            open(truncated, SNAP_VERSION),
            Err(SnapError::BadLength { .. })
        ));

        let tiny = &sealed[..10];
        assert!(matches!(
            open(tiny, SNAP_VERSION),
            Err(SnapError::UnexpectedEof { .. })
        ));

        let mut wrong_magic = sealed.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            open(&wrong_magic, SNAP_VERSION),
            Err(SnapError::BadMagic)
        ));

        let mut wrong_version = sealed.clone();
        wrong_version[8] = 0xff;
        assert!(matches!(
            open(&wrong_version, SNAP_VERSION),
            Err(SnapError::BadVersion { .. })
        ));
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("svt-snap-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        atomic_write(&path, b"first version").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first version");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // No temp litter left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn intern_is_stable() {
        let a = intern_static("svt-test-intern-a");
        let b = intern_static(&String::from("svt-test-intern-a"));
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn fingerprint_folds_like_hostprof() {
        let mut fp = Fingerprint::new();
        fp.fold(1).fold(2);
        let mut h = FnvHasher::default();
        h.write_u64(1);
        h.write_u64(2);
        assert_eq!(fp.value(), h.finish());
    }
}
