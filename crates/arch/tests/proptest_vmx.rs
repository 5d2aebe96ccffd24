//! Property tests of the virtualization hardware model.
//!
//! Randomised inputs are driven by the in-tree deterministic PRNG so the
//! cases are reproducible and the suite has no external dependencies.

use svt_arch::{Access, Ept, EptPerms, LocalApic, Vmcs, VmcsField, VmcsRole};
use svt_mem::Gpa;
use svt_sim::DetRng;

#[test]
fn vmcs_is_a_faithful_field_store() {
    let mut rng = DetRng::seed(0x0f1e_0001);
    for _ in 0..64 {
        let n_writes = rng.range(1, 128) as usize;
        let writes: Vec<(usize, u64)> = (0..n_writes)
            .map(|_| (rng.below(VmcsField::COUNT as u64) as usize, rng.next_u64()))
            .collect();
        let mut vmcs = Vmcs::new(VmcsRole::Shadow, Gpa(0x1000));
        let mut shadow = [0u64; VmcsField::COUNT];
        for (f, v) in &writes {
            vmcs.write(VmcsField::ALL[*f], *v);
            shadow[*f] = *v;
        }
        for (i, f) in VmcsField::ALL.iter().enumerate() {
            assert_eq!(vmcs.read(*f), shadow[i]);
        }
        // Dirty tracking lists each written field exactly once.
        let dirty = vmcs.take_dirty();
        let unique: std::collections::HashSet<_> = writes.iter().map(|(f, _)| *f).collect();
        assert_eq!(dirty.len(), unique.len());
        assert!(vmcs.dirty().is_empty());
    }
}

#[test]
fn ept_translation_preserves_offsets() {
    let mut rng = DetRng::seed(0x0f1e_0002);
    for _ in 0..64 {
        let n_maps = rng.range(1, 64) as usize;
        let maps: Vec<(u64, u64)> = (0..n_maps)
            .map(|_| (rng.below(512), rng.below(512)))
            .collect();
        let offset = rng.below(4096);
        let mut ept = Ept::new();
        for (g, h) in &maps {
            ept.map_page(*g, *h, EptPerms::RWX);
        }
        for (g, _) in &maps {
            let addr = Gpa(g * svt_mem::PAGE_SIZE + offset);
            let out = ept.translate(addr, Access::Read).unwrap();
            assert_eq!(out.0 % svt_mem::PAGE_SIZE, offset);
        }
    }
}

#[test]
fn apic_delivers_every_vector_once_by_priority() {
    let mut rng = DetRng::seed(0x0f1e_0003);
    for _ in 0..64 {
        let n_vectors = rng.range(1, 32) as usize;
        let mut vectors = std::collections::HashSet::new();
        while vectors.len() < n_vectors {
            vectors.insert(rng.range(1, 255) as u8);
        }
        let mut apic = LocalApic::new();
        for &v in &vectors {
            apic.inject(v);
        }
        let mut last = 255u8;
        while let Some(v) = apic.ack() {
            assert!(v <= last, "priority order violated: {v} after {last}");
            assert!(
                vectors.remove(&v),
                "vector {v} delivered twice or never injected"
            );
            last = v;
            apic.eoi();
        }
        assert!(vectors.is_empty(), "undelivered vectors: {vectors:?}");
        assert!(apic.is_idle());
    }
}

#[test]
fn svt_ctx_encoding_round_trips() {
    let mut cases: Vec<Option<u8>> = vec![None];
    cases.extend((0u8..16).map(Some));
    for ctx in cases {
        let mut vmcs = Vmcs::new(VmcsRole::Host { guest_level: 1 }, Gpa(0));
        vmcs.set_svt_ctx(VmcsField::SvtVm, ctx);
        assert_eq!(vmcs.svt_ctx(VmcsField::SvtVm), ctx);
    }
}
