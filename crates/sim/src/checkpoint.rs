//! Crash-resumable campaign checkpoints.
//!
//! A [`Checkpoint`] journals completed sweep grid cells to a directory,
//! one sealed file per cell, written atomically (temp + rename). A
//! killed campaign resumes by replaying the journal: cells present and
//! intact decode instantly, missing or corrupted cells recompute. Since
//! every cell is deterministic, the merged report is byte-identical to
//! an uninterrupted run regardless of where the kill landed or how many
//! workers ran.
//!
//! Each cell file carries the standard snapshot envelope; the envelope's
//! fingerprint slot holds a *campaign tag* — an FNV fold of the bench
//! name, grid shape, seed, and ISA — so a checkpoint directory can never
//! silently satisfy a different campaign's cells.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::snapshot::{atomic_write, open, seal, SnapError, SnapReader, SnapWriter, SNAP_VERSION};

/// A checkpoint directory for one campaign.
///
/// # Examples
///
/// ```
/// use svt_sim::checkpoint::Checkpoint;
///
/// # fn main() -> std::io::Result<()> {
/// let dir = std::env::temp_dir().join(format!("svt-ckpt-doc-{}", std::process::id()));
/// let ckpt = Checkpoint::create(&dir, 0xc0ffee)?;
/// assert_eq!(ckpt.load_cell("fig6", 3), Ok(None));
/// ckpt.store_cell("fig6", 3, &[1, 2, 3])?;
/// assert_eq!(ckpt.load_cell("fig6", 3), Ok(Some(vec![1, 2, 3])));
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Checkpoint {
    dir: PathBuf,
    tag: u64,
}

impl Checkpoint {
    /// Opens (creating if needed) a checkpoint directory for the
    /// campaign identified by `tag`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create(dir: &Path, tag: u64) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(Checkpoint {
            dir: dir.to_path_buf(),
            tag,
        })
    }

    /// The campaign tag cells are sealed with.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Directory backing this checkpoint.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn cell_path(&self, scope: &str, idx: usize) -> PathBuf {
        self.dir.join(format!("{scope}-{idx:06}.cell"))
    }

    /// Loads a journaled cell.
    ///
    /// Returns `Ok(None)` when the cell was never journaled (or is
    /// unreadable — indistinguishable from missing for resume purposes).
    ///
    /// # Errors
    ///
    /// A cell file that exists but fails envelope validation — truncated,
    /// bit-flipped, wrong version, or sealed for a different campaign —
    /// returns the typed [`SnapError`] so the caller can count it and
    /// recompute instead of panicking.
    pub fn load_cell(&self, scope: &str, idx: usize) -> Result<Option<Vec<u8>>, SnapError> {
        let blob = match fs::read(self.cell_path(scope, idx)) {
            Ok(b) => b,
            Err(_) => return Ok(None),
        };
        let (tag, payload) = open(&blob, SNAP_VERSION)?;
        if tag != self.tag {
            return Err(SnapError::FingerprintMismatch {
                stored: tag,
                computed: self.tag,
            });
        }
        Ok(Some(payload.to_vec()))
    }

    /// Journals a completed cell atomically.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a failed store leaves either no cell file
    /// or the previous intact one.
    pub fn store_cell(&self, scope: &str, idx: usize, payload: &[u8]) -> io::Result<()> {
        let sealed = seal(SNAP_VERSION, self.tag, payload.to_vec());
        atomic_write(&self.cell_path(scope, idx), &sealed)
    }
}

/// Runs a `cells`-cell grid through [`crate::sweep`], journaling every
/// freshly computed cell to `ckpt` under `scope` when a checkpoint is
/// given. With `(ckpt, true)`, journaled cells decode through `load`
/// instead of recomputing; a cell that is missing, truncated,
/// bit-flipped, sealed for another campaign, or undecodable is
/// recomputed (and the journal repaired) — resume never panics on a bad
/// checkpoint. Without a checkpoint this is [`crate::sweep`]. Since cells
/// are pure functions of their index and merge in grid order, the merged
/// result is byte-identical to an uninterrupted run at any `jobs`.
///
/// Journaling failures (full disk, permissions) are reported on stderr
/// and the campaign continues uncheckpointed — a broken journal must not
/// fail an otherwise healthy run.
#[allow(clippy::too_many_arguments)]
pub fn sweep<T, F, S, L>(
    ckpt: Option<(&Checkpoint, bool)>,
    scope: &str,
    cells: usize,
    jobs: usize,
    run: F,
    save: S,
    load: L,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    S: Fn(&T, &mut SnapWriter) + Sync,
    L: Fn(&mut SnapReader<'_>) -> Result<T, SnapError> + Sync,
{
    let Some((ckpt, resume)) = ckpt else {
        return crate::sweep(cells, jobs, run);
    };
    crate::sweep(cells, jobs, |i| {
        if resume {
            match ckpt.load_cell(scope, i) {
                Ok(Some(payload)) => {
                    let mut r = SnapReader::new(&payload);
                    match load(&mut r).and_then(|t| r.finish().map(|()| t)) {
                        Ok(t) => return t,
                        Err(e) => {
                            eprintln!(
                                "checkpoint: cell {scope}-{i} undecodable ({e:?}); recomputing"
                            )
                        }
                    }
                }
                Ok(None) => {}
                Err(e) => eprintln!("checkpoint: cell {scope}-{i} rejected ({e:?}); recomputing"),
            }
        }
        let t = run(i);
        let mut w = SnapWriter::new();
        save(&t, &mut w);
        if let Err(e) = ckpt.store_cell(scope, i, &w.into_vec()) {
            eprintln!("checkpoint: journaling cell {scope}-{i} failed ({e}); continuing");
        }
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_ckpt(name: &str) -> (PathBuf, Checkpoint) {
        let dir = std::env::temp_dir().join(format!("svt-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ckpt = Checkpoint::create(&dir, 0xabcd).unwrap();
        (dir, ckpt)
    }

    #[test]
    fn store_load_round_trip() {
        let (dir, ckpt) = temp_ckpt("roundtrip");
        assert_eq!(ckpt.load_cell("s", 0), Ok(None));
        ckpt.store_cell("s", 0, b"cell zero").unwrap();
        assert_eq!(ckpt.load_cell("s", 0), Ok(Some(b"cell zero".to_vec())));
        // Different scope or index is independent.
        assert_eq!(ckpt.load_cell("s", 1), Ok(None));
        assert_eq!(ckpt.load_cell("t", 0), Ok(None));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_cell_is_typed_not_panic() {
        let (dir, ckpt) = temp_ckpt("corrupt");
        ckpt.store_cell("s", 7, &[0xaa; 100]).unwrap();
        let path = dir.join("s-000007.cell");

        // Bit flip in the payload.
        let mut blob = fs::read(&path).unwrap();
        let last = blob.len() - 1;
        blob[last] ^= 0x80;
        fs::write(&path, &blob).unwrap();
        assert!(matches!(
            ckpt.load_cell("s", 7),
            Err(SnapError::ChecksumMismatch { .. })
        ));

        // Truncation.
        ckpt.store_cell("s", 7, &[0xaa; 100]).unwrap();
        let blob = fs::read(&path).unwrap();
        fs::write(&path, &blob[..blob.len() / 2]).unwrap();
        assert!(matches!(
            ckpt.load_cell("s", 7),
            Err(SnapError::BadLength { .. })
        ));

        // Empty file.
        fs::write(&path, b"").unwrap();
        assert!(ckpt.load_cell("s", 7).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_resumes_from_journal_and_repairs_bad_cells() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (dir, ckpt) = temp_ckpt("sweep");
        let computed = AtomicUsize::new(0);
        let run = |i: usize| {
            computed.fetch_add(1, Ordering::Relaxed);
            (i as u64) * 3
        };
        let save = |v: &u64, w: &mut SnapWriter| w.u64(*v);
        let load = |r: &mut SnapReader<'_>| r.u64();
        let first = sweep(Some((&ckpt, false)), "s", 5, 2, run, save, load);
        assert_eq!(first, vec![0, 3, 6, 9, 12]);
        assert_eq!(computed.load(Ordering::Relaxed), 5);

        // Resume replays the journal without recomputing anything, at a
        // different worker count.
        let again = sweep(Some((&ckpt, true)), "s", 5, 1, run, save, load);
        assert_eq!(again, first);
        assert_eq!(computed.load(Ordering::Relaxed), 5);

        // A deleted cell and a bit-flipped cell recompute; the rest
        // still replay. The merge stays identical.
        fs::remove_file(dir.join("s-000002.cell")).unwrap();
        let path = dir.join("s-000004.cell");
        let mut blob = fs::read(&path).unwrap();
        let last = blob.len() - 1;
        blob[last] ^= 1;
        fs::write(&path, &blob).unwrap();
        let third = sweep(Some((&ckpt, true)), "s", 5, 3, run, save, load);
        assert_eq!(third, first);
        assert_eq!(computed.load(Ordering::Relaxed), 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_campaign_tag_rejected() {
        let (dir, ckpt) = temp_ckpt("tag");
        ckpt.store_cell("s", 0, b"x").unwrap();
        let other = Checkpoint::create(&dir, 0x9999).unwrap();
        assert!(matches!(
            other.load_cell("s", 0),
            Err(SnapError::FingerprintMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
