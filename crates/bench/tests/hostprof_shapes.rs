//! Trap-shape fingerprint stability, property-style over seeds: the
//! hostprof campaign's deterministic section — allocation counters,
//! profiled-event counts, and the full shape census with its repeat
//! ratio — must be byte-identical at `--jobs 1` vs `--jobs 4`, on both
//! ISA backends, for every seeded workload.
//!
//! `svt-bench` installs the counting allocator for everything that links
//! it, this test included, so the equality below covers live allocs/bytes
//! columns, not just zeros. Everything runs in
//! one `#[test]`: the profiler's armed flag and drain queue are process
//! globals, and a second concurrently-running campaign would interleave
//! with them.

use svt_arch::ArchId;
use svt_bench::hostprof_campaign;
use svt_workloads::DEFAULT_LANE_SEED;

#[test]
fn shape_census_is_byte_identical_across_jobs_and_stable_per_arch() {
    let mut per_arch_keys: Vec<Vec<u64>> = Vec::new();
    for arch in [ArchId::X86, ArchId::Riscv] {
        for seed in [DEFAULT_LANE_SEED, 0x5EED_0002, 0x5EED_0003] {
            let j1 = hostprof_campaign(arch, 40, seed, Some(1));
            let j4 = hostprof_campaign(arch, 40, seed, Some(4));
            let (a, b) = (
                j1.agg.deterministic_json().pretty(),
                j4.agg.deterministic_json().pretty(),
            );
            assert_eq!(
                a, b,
                "{arch} seed {seed:#x}: census differs between jobs 1 and 4"
            );

            // The census is non-degenerate: traps were profiled, the
            // allocation columns are live (this binary counts), and the
            // workload replays few shapes many times — the repeat ratio
            // the memoization roadmap item is sized from.
            assert!(j1.agg.events > 0, "{arch}: no traps profiled");
            assert!(j1.agg.total_allocs() > 0, "{arch}: allocator not counting");
            assert_eq!(j1.agg.shape_total(), j1.agg.events);
            assert!(
                j1.agg.repeat_ratio() > 0.9,
                "{arch} seed {seed:#x}: repeat ratio {} unexpectedly low",
                j1.agg.repeat_ratio()
            );

            // Re-running the same configuration reproduces the census
            // byte-for-byte (fingerprints are stable, not per-process).
            let again = hostprof_campaign(arch, 40, seed, Some(4));
            assert_eq!(b, again.agg.deterministic_json().pretty());

            if seed == DEFAULT_LANE_SEED {
                let mut keys: Vec<u64> = j1.agg.shapes.keys().copied().collect();
                keys.sort_unstable();
                per_arch_keys.push(keys);
            }
        }
    }
    // The fingerprint folds engine names and arch-specific exit tags,
    // so the two backends must not collide onto the same shape keys.
    assert_ne!(
        per_arch_keys[0], per_arch_keys[1],
        "x86 and riscv campaigns produced identical shape-key sets"
    );
}
