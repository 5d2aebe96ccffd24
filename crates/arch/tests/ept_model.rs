//! The run-length EPT against a model: a page-keyed `BTreeMap`, the
//! layout the runs replaced and the one the snapshot format still
//! writes. Random edits, and composes of two random tables, must leave
//! both with the same translation of every page, the same length and
//! the same saved bytes; a hostile payload must load to the model's
//! table.
//!
//! Randomised inputs are driven by the in-tree deterministic PRNG so the
//! cases are reproducible and the suite has no external dependencies.

use std::collections::BTreeMap;

use svt_arch::{Access, Ept, EptFault, EptPerms};
use svt_mem::{Gpa, PAGE_SIZE};
use svt_sim::snap_fields;
use svt_sim::snapshot::{from_bytes, to_bytes, Sink, Snap, SnapError, SnapReader, SnapWriter};
use svt_sim::DetRng;

/// Pages the random tables touch; translation is checked a little past.
const PAGES: u64 = 48;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Entry {
    Mapped(u64, EptPerms),
    #[default]
    Mmio,
}

/// The EPT entry's wire format: tag 0 MMIO, tag 1 a target page and the
/// permission bits `r | w << 1 | x << 2`.
impl Snap for Entry {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        match *self {
            Entry::Mmio => w.u8(0),
            Entry::Mapped(target, p) => {
                let bits = u8::from(p.r) | u8::from(p.w) << 1 | u8::from(p.x) << 2;
                (1u8, target, bits).save(w);
            }
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = match r.u8()? {
            0 => Entry::Mmio,
            _ => {
                let target = r.u64()?;
                let bits = r.u8()?;
                Entry::Mapped(target, perms_of(bits))
            }
        };
        Ok(())
    }
}

fn perms_of(bits: u8) -> EptPerms {
    EptPerms {
        r: bits & 1 != 0,
        w: bits & 2 != 0,
        x: bits & 4 != 0,
    }
}

#[derive(Debug, Clone, Default)]
struct Model {
    generation: u64,
    entries: BTreeMap<u64, Entry>,
}

snap_fields! { Model { generation, entries } }

impl Model {
    fn translate(&self, gpa: Gpa, access: Access) -> Result<Gpa, EptFault> {
        match self.entries.get(&gpa.page()) {
            None => Err(EptFault::Violation { gpa, access }),
            Some(Entry::Mmio) => Err(EptFault::Misconfig { gpa }),
            Some(&Entry::Mapped(target, perms)) if perms.allows(access) => {
                Ok(Gpa(target * PAGE_SIZE + gpa.offset()))
            }
            Some(_) => Err(EptFault::Violation { gpa, access }),
        }
    }

    fn compose(&self, outer: &Model) -> Model {
        let mut out = Model::default();
        for (&page, &entry) in &self.entries {
            let composed = match entry {
                Entry::Mmio => Entry::Mmio,
                Entry::Mapped(target, perms) => match outer.entries.get(&target) {
                    Some(Entry::Mmio) => Entry::Mmio,
                    Some(&Entry::Mapped(host, outer_perms)) => {
                        Entry::Mapped(host, perms.intersect(outer_perms))
                    }
                    None => continue,
                },
            };
            out.entries.insert(page, composed);
        }
        out
    }
}

fn assert_agree(ept: &Ept, model: &Model, what: &str) {
    for page in 0..PAGES + 8 {
        let gpa = Gpa(page * PAGE_SIZE + 0x18);
        for access in [Access::Read, Access::Write, Access::Exec] {
            assert_eq!(
                ept.translate(gpa, access),
                model.translate(gpa, access),
                "{what}: page {page} {access:?}"
            );
        }
    }
    assert_eq!(ept.len(), model.entries.len(), "{what}: len");
    assert_eq!(ept.is_empty(), model.entries.is_empty(), "{what}: is_empty");
    assert_eq!(to_bytes(ept), to_bytes(model), "{what}: saved bytes");
}

fn random_perms(rng: &mut DetRng) -> EptPerms {
    // Mostly RWX, so neighbouring mappings merge into runs.
    if rng.chance(0.7) {
        EptPerms::RWX
    } else {
        perms_of(rng.below(8) as u8)
    }
}

/// One random edit, applied to both tables.
fn random_edit(rng: &mut DetRng, ept: &mut Ept, model: &mut Model) {
    let page = rng.below(PAGES);
    match rng.below(10) {
        0 | 1 => {
            let n = rng.below(PAGES - page + 1);
            let perms = random_perms(rng);
            ept.identity_map(page, n, perms);
            for p in page..page + n {
                model.entries.insert(p, Entry::Mapped(p, perms));
            }
        }
        2..=4 => {
            // Targets near the page's own keep runs contiguous often.
            let target = if rng.chance(0.5) {
                page
            } else {
                rng.below(PAGES)
            };
            let perms = random_perms(rng);
            ept.map_page(page, target, perms);
            model.entries.insert(page, Entry::Mapped(target, perms));
        }
        5 | 6 => {
            ept.mark_mmio(page);
            model.entries.insert(page, Entry::Mmio);
        }
        7 | 8 => {
            ept.unmap(page);
            model.entries.remove(&page);
        }
        _ => {
            if rng.chance(0.2) {
                ept.invalidate_all();
                model.entries.clear();
                model.generation += 1;
            }
        }
    }
}

fn random_table(rng: &mut DetRng) -> (Ept, Model) {
    let (mut ept, mut model) = (Ept::new(), Model::default());
    for _ in 0..rng.range(0, 40) {
        random_edit(rng, &mut ept, &mut model);
    }
    (ept, model)
}

#[test]
fn run_table_agrees_with_page_map_under_random_edits() {
    let mut rng = DetRng::seed(0xe97_0001);
    for case in 0..300 {
        let (mut ept, mut model) = (Ept::new(), Model::default());
        for op in 0..rng.range(1, 80) {
            random_edit(&mut rng, &mut ept, &mut model);
            let what = format!("case {case} op {op}");
            assert_agree(&ept, &model, &what);
            assert_eq!(ept.generation(), model.generation, "{what}: generation");
        }
        // A saved table reloads to the same contents.
        let mut back = Ept::new();
        from_bytes(&mut back, &to_bytes(&ept)).unwrap();
        assert_agree(&back, &model, &format!("case {case} reloaded"));
    }
}

#[test]
fn compose_agrees_with_page_map_compose() {
    let mut rng = DetRng::seed(0xe97_0002);
    for case in 0..300 {
        let (inner, inner_model) = random_table(&mut rng);
        let (outer, outer_model) = random_table(&mut rng);
        let composed = inner.compose(&outer);
        let mut want = inner_model.compose(&outer_model);
        want.generation = composed.generation();
        assert_agree(&composed, &want, &format!("case {case}"));
    }
}

#[test]
fn identity_compose_of_a_machine_sized_table_matches_the_page_map() {
    let (mut inner, mut outer) = (Ept::new(), Ept::new());
    inner.identity_map(0, 4096, EptPerms::RWX);
    outer.identity_map(0, 4096, EptPerms::RWX);
    inner.mark_mmio(0x500);
    outer.mark_mmio(0x900);
    let composed = inner.compose(&outer);
    assert_eq!(composed.len(), 4096);
    let (mut inner_model, mut outer_model) = (Model::default(), Model::default());
    for p in 0..4096 {
        inner_model
            .entries
            .insert(p, Entry::Mapped(p, EptPerms::RWX));
        outer_model
            .entries
            .insert(p, Entry::Mapped(p, EptPerms::RWX));
    }
    inner_model.entries.insert(0x500, Entry::Mmio);
    outer_model.entries.insert(0x900, Entry::Mmio);
    assert_eq!(
        to_bytes(&composed),
        to_bytes(&inner_model.compose(&outer_model))
    );
}

#[test]
fn hostile_payload_with_unsorted_and_duplicate_pairs_loads_like_the_model() {
    let mut rng = DetRng::seed(0xe97_0003);
    for case in 0..100 {
        let n = rng.range(0, 40);
        let mut w = SnapWriter::new();
        rng.next_u64().save(&mut w);
        (n as usize).save(&mut w);
        for _ in 0..n {
            // Few distinct pages, in any order: duplicates are common.
            let page = rng.below(PAGES / 4);
            let entry = if rng.chance(0.2) {
                Entry::Mmio
            } else {
                Entry::Mapped(rng.below(PAGES / 4), random_perms(&mut rng))
            };
            (page, entry).save(&mut w);
        }
        let payload = w.into_vec();
        let (mut ept, mut model) = (Ept::new(), Model::default());
        from_bytes(&mut ept, &payload).unwrap();
        from_bytes(&mut model, &payload).unwrap();
        assert_agree(&ept, &model, &format!("case {case}"));
    }
}
