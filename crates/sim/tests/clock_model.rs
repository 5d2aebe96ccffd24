//! The clock's tag attribution against a model: the map-keyed
//! attribution the dense tag slots replaced, which hashed the tag on
//! every charge. Random `push_tag`, `charge` (zero included), `pop_tag`,
//! `reset_attribution`, `snapshot` and snapshot round-trip sequences
//! must leave both with the same tag times, ordering, differences and
//! saved bytes.
//!
//! Randomised inputs are driven by the in-tree deterministic PRNG so the
//! cases are reproducible and the suite has no external dependencies.

use std::collections::HashMap;

use svt_sim::snap_fields;
use svt_sim::snapshot::{from_bytes, to_bytes};
use svt_sim::{Clock, ClockSnapshot, CostPart, DetRng, FnvHashMap, SimDuration, SimTime};

const TAGS: [&str; 5] = ["CPUID", "EPT_MISCONFIG", "MSR_WRITE", "VMCALL", "HLT"];

/// The map-keyed clock, field for field as the snapshot format stores it.
#[derive(Default)]
struct Model {
    now: SimTime,
    part_stack: Vec<CostPart>,
    part_time: [SimDuration; CostPart::COUNT],
    tag_stack: Vec<&'static str>,
    tag_time: FnvHashMap<&'static str, SimDuration>,
}

snap_fields! { Model { now, part_stack, part_time, tag_stack, tag_time } }

impl Model {
    fn charge(&mut self, d: SimDuration) {
        self.now += d;
        let part = self.part_stack.last().copied().unwrap_or(CostPart::Other);
        self.part_time[part as usize] += d;
        if let Some(tag) = self.tag_stack.last() {
            *self.tag_time.entry(tag).or_default() += d;
        }
    }

    fn reset_attribution(&mut self) {
        self.part_time = [SimDuration::ZERO; CostPart::COUNT];
        self.tag_time.clear();
    }

    fn tags_by_time(&self) -> Vec<(&'static str, SimDuration)> {
        let mut v: Vec<_> = self.tag_time.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v
    }

    fn tag_snapshot(&self) -> HashMap<&'static str, SimDuration> {
        self.tag_time.iter().map(|(k, v)| (*k, *v)).collect()
    }

    fn tags_since(&self, base: &ClockSnapshot) -> HashMap<&'static str, SimDuration> {
        self.tag_time
            .iter()
            .map(|(k, v)| (*k, v.saturating_sub(base.tag_time(k))))
            .filter(|(_, v)| !v.is_zero())
            .collect()
    }
}

fn assert_agree(clock: &Clock, model: &Model, what: &str) {
    for tag in TAGS {
        let want = model.tag_time.get(tag).copied().unwrap_or_default();
        assert_eq!(clock.tag_time(tag), want, "{what}: tag_time({tag})");
    }
    assert_eq!(
        clock.tags_by_time(),
        model.tags_by_time(),
        "{what}: tags_by_time"
    );
    assert_eq!(to_bytes(clock), to_bytes(model), "{what}: saved bytes");
}

#[test]
fn slot_attribution_agrees_with_map_attribution() {
    let mut rng = DetRng::seed(0xc10c_0001);
    for case in 0..200 {
        let mut clock = Clock::new();
        let mut model = Model::default();
        let mut base = clock.snapshot();
        for op in 0..rng.range(1, 120) {
            let what = format!("case {case} op {op}");
            match rng.below(12) {
                0..=2 if model.tag_stack.len() < 4 => {
                    let tag = TAGS[rng.below(TAGS.len() as u64) as usize];
                    clock.push_tag(tag);
                    model.tag_stack.push(tag);
                }
                3 | 4 => {
                    if let Some(tag) = model.tag_stack.pop() {
                        clock.pop_tag(tag);
                    }
                }
                5 => {
                    let part = CostPart::ALL[rng.below(CostPart::COUNT as u64) as usize];
                    clock.push_part(part);
                    model.part_stack.push(part);
                }
                6 => {
                    if let Some(part) = model.part_stack.pop() {
                        clock.pop_part(part);
                    }
                }
                7 => {
                    clock.reset_attribution();
                    model.reset_attribution();
                }
                8 => {
                    base = clock.snapshot();
                    assert_eq!(base.tag_time, model.tag_snapshot(), "{what}: snapshot");
                    assert_eq!(base.now, model.now, "{what}: snapshot instant");
                }
                9 => {
                    // A restored clock carries on exactly where the saved
                    // one stood.
                    let mut restored = Clock::new();
                    from_bytes(&mut restored, &to_bytes(&clock)).unwrap();
                    clock = restored;
                }
                _ => {
                    // A quarter of the charges are zero: a zero charge
                    // still makes the tag present.
                    let ns = if rng.chance(0.25) {
                        0
                    } else {
                        rng.range(1, 500)
                    };
                    let d = SimDuration::from_ns(ns);
                    clock.charge(d);
                    model.charge(d);
                }
            }
            let since = clock.since_snapshot(&base);
            assert_eq!(
                since.tag_time,
                model.tags_since(&base),
                "{what}: since_snapshot"
            );
            assert_agree(&clock, &model, &what);
        }
    }
}

#[test]
fn zero_charges_and_resets_shape_the_tag_map() {
    let mut clock = Clock::new();
    let mut model = Model::default();
    clock.push_tag("CPUID");
    model.tag_stack.push("CPUID");
    clock.charge(SimDuration::ZERO);
    model.charge(SimDuration::ZERO);
    assert_eq!(clock.tags_by_time(), vec![("CPUID", SimDuration::ZERO)]);
    assert_agree(&clock, &model, "a zero charge");
    clock.reset_attribution();
    model.reset_attribution();
    assert!(clock.tags_by_time().is_empty());
    assert_agree(&clock, &model, "after a reset");
}
