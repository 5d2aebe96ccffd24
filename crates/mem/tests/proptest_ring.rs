//! Property tests: command rings under arbitrary geometries.
//!
//! Randomised inputs are driven by the in-tree deterministic PRNG so the
//! cases are reproducible and the suite has no external dependencies.

use svt_mem::{CommandRing, GuestMemory, Hpa};
use svt_sim::DetRng;

/// Pops one payload as an owned vector.
fn pop(ring: &CommandRing, ram: &mut GuestMemory) -> Option<Vec<u8>> {
    let mut buf = [0u8; 64];
    let len = ring.pop(ram, &mut buf).unwrap()?;
    Some(buf[..len].to_vec())
}

#[test]
fn ring_capacity_is_exact() {
    let mut rng = DetRng::seed(0x51a7_0001);
    for _ in 0..64 {
        let slots = rng.range(2, 32) as u32;
        let payload_len = rng.range(1, 32) as usize;
        let mut ram = GuestMemory::new(1 << 20);
        let ring = CommandRing::new(Hpa(0x8000), 64, slots);
        ring.init(&mut ram).unwrap();
        // Exactly `slots` pushes fit.
        for i in 0..slots {
            assert!(!ring.is_full(&ram).unwrap(), "full after {i}");
            ring.push(&mut ram, &vec![i as u8; payload_len]).unwrap();
        }
        assert!(ring.is_full(&ram).unwrap());
        assert!(ring.push(&mut ram, b"x").is_err());
        // Draining restores capacity in FIFO order.
        for i in 0..slots {
            let p = pop(&ring, &mut ram).unwrap();
            assert_eq!(p, vec![i as u8; payload_len]);
        }
        assert!(ring.is_empty(&ram).unwrap());
    }
}

#[test]
fn wraparound_preserves_fifo_and_full_is_typed() {
    // Random interleavings of pushes and pops across many index
    // wraparounds, at arbitrary (including non-power-of-two) slot
    // counts. The ring wraps its indices at 2*num_slots, so a few
    // hundred operations cross the wrap point many times; the model
    // queue must agree after every operation, a full ring must yield
    // the typed `Full` error (never a silent overwrite), and capacity
    // must be exactly `num_slots` at all times.
    let mut rng = DetRng::seed(0x51a7_0003);
    for case in 0..48 {
        let slots = rng.range(2, 32) as u32;
        let mut ram = GuestMemory::new(1 << 20);
        let ring = CommandRing::new(Hpa(0x8000), 64, slots);
        ring.init(&mut ram).unwrap();
        let mut model = std::collections::VecDeque::new();
        let mut next = 0u32;
        for op in 0..(slots as usize * 20) {
            if rng.chance(0.55) {
                let payload = next.to_le_bytes();
                next += 1;
                let res = ring.push(&mut ram, &payload);
                if model.len() == slots as usize {
                    assert_eq!(
                        res,
                        Err(svt_mem::RingError::Full),
                        "case {case} op {op}: full ring must reject, not overwrite"
                    );
                } else {
                    res.unwrap();
                    model.push_back(payload.to_vec());
                }
            } else {
                assert_eq!(
                    pop(&ring, &mut ram),
                    model.pop_front(),
                    "case {case} op {op}: FIFO order broken across wraparound"
                );
            }
            assert_eq!(ring.len(&ram).unwrap() as usize, model.len());
            assert_eq!(ring.is_full(&ram).unwrap(), model.len() == slots as usize);
        }
        // Drain: everything queued comes back, in order.
        while let Some(want) = model.pop_front() {
            assert_eq!(pop(&ring, &mut ram).unwrap(), want);
        }
        assert!(ring.is_empty(&ram).unwrap());
    }
}

#[test]
fn rings_with_disjoint_footprints_never_interfere() {
    let mut rng = DetRng::seed(0x51a7_0002);
    for _ in 0..64 {
        let n_msgs = rng.range(1, 64) as usize;
        let msgs: Vec<(bool, Vec<u8>)> = (0..n_msgs)
            .map(|_| {
                let to_a = rng.chance(0.5);
                let len = rng.range(1, 48) as usize;
                let payload: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                (to_a, payload)
            })
            .collect();
        let mut ram = GuestMemory::new(1 << 20);
        let a = CommandRing::new(Hpa(0x1000), 64, 16);
        let b = CommandRing::new(Hpa(0x1000 + a.footprint()), 64, 16);
        a.init(&mut ram).unwrap();
        b.init(&mut ram).unwrap();
        let mut qa = std::collections::VecDeque::new();
        let mut qb = std::collections::VecDeque::new();
        for (to_a, payload) in &msgs {
            let (ring, q) = if *to_a { (&a, &mut qa) } else { (&b, &mut qb) };
            if !ring.is_full(&ram).unwrap() {
                ring.push(&mut ram, payload).unwrap();
                q.push_back(payload.clone());
            }
        }
        while let Some(p) = pop(&a, &mut ram) {
            assert_eq!(Some(p), qa.pop_front());
        }
        while let Some(p) = pop(&b, &mut ram) {
            assert_eq!(Some(p), qb.pop_front());
        }
        assert!(qa.is_empty() && qb.is_empty());
    }
}
