//! End-to-end observability: the metrics registry, the trap-stage spans
//! read back from the causal graph and the Chrome trace export, driven
//! through a real nested run.
//!
//! The golden test pins the trace shape for a 3-trap cpuid run: the
//! export must be valid JSON in the Trace Event Format, byte-stable
//! across identical runs, and carry at least six Algorithm-1 stages per
//! nested trap.

use svt::core::{nested_machine, SwitchMode};
use svt::hv::{GuestOp, OpLoop};
use svt::obs::{chrome_trace, Json, MetricKey, ObsLevel, Span};
use svt::sim::SimDuration;

/// Runs `traps` nested cpuids with the causal graph on and returns the
/// spans it recorded.
fn traced_cpuid_run(mode: SwitchMode, traps: u64) -> Vec<Span> {
    let mut m = nested_machine(mode);
    let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut warm).expect("cpuid never blocks");
    m.obs.causal.enable();
    let mut prog = OpLoop::new(GuestOp::Cpuid, traps, 0, SimDuration::ZERO);
    m.run(&mut prog).expect("cpuid never blocks");
    m.obs.causal.spans()
}

/// Splits spans into traps: each trap is the slice from an `l2_exit`
/// through the next `l2_resume`.
fn traps(spans: &[Span]) -> Vec<&[Span]> {
    let mut out = Vec::new();
    let mut exit = None;
    for (i, s) in spans.iter().enumerate() {
        match s.name {
            "l2_exit" => exit = Some(i),
            "l2_resume" => out.extend(exit.take().map(|b| &spans[b..=i])),
            _ => {}
        }
    }
    out
}

#[test]
fn every_nested_trap_yields_at_least_six_lifecycle_spans() {
    for mode in [SwitchMode::Baseline, SwitchMode::SwSvt, SwitchMode::HwSvt] {
        let spans = traced_cpuid_run(mode, 3);
        let traps = traps(&spans);
        assert_eq!(traps.len(), 3, "{mode:?}: {spans:?}");
        for (i, trap) in traps.iter().enumerate() {
            assert!(
                trap.len() >= 6,
                "{mode:?} trap {i}: only {} spans: {:?}",
                trap.len(),
                trap.iter().map(|s| s.name).collect::<Vec<_>>()
            );
            // The trap runs from its exit's begin to its resume's end, and
            // every stage lies inside it.
            let (begin, end) = (trap[0].begin, trap[trap.len() - 1].end);
            for s in trap.iter() {
                assert!(
                    begin <= s.begin && s.end <= end,
                    "{mode:?} trap {i}: span {} [{}..{}] escapes the trap [{begin}..{end}]",
                    s.name,
                    s.begin,
                    s.end,
                );
                assert!(s.begin <= s.end, "{mode:?} {}: negative span", s.name);
            }
        }
    }
}

#[test]
fn baseline_trap_records_the_algorithm1_stages() {
    let spans = traced_cpuid_run(SwitchMode::Baseline, 1);
    let traps = traps(&spans);
    assert_eq!(traps.len(), 1);
    let names: Vec<&str> = traps[0].iter().map(|s| s.name).collect();
    for stage in [
        "l2_exit",
        "l0_leg_a",
        "forward_transform",
        "l1_handler",
        "l0_entry_finish",
        "l2_resume",
    ] {
        assert!(names.contains(&stage), "missing {stage} in {names:?}");
    }
}

#[test]
fn chrome_trace_of_three_trap_run_is_stable_and_schema_valid() {
    let spans = traced_cpuid_run(SwitchMode::Baseline, 3);
    let doc = chrome_trace(&spans, &[]);
    let text = doc.pretty();

    // Byte-stable: an identical run renders the identical document.
    let again = traced_cpuid_run(SwitchMode::Baseline, 3);
    assert_eq!(
        text,
        chrome_trace(&again, &[]).pretty(),
        "trace is not stable"
    );

    // Valid JSON that round-trips through the parser.
    let parsed = Json::parse(&text).expect("trace is valid JSON");
    assert_eq!(parsed, doc);

    // Trace Event Format schema: a traceEvents array of M/X events with
    // the required fields, one thread-name record per level lane.
    let events = parsed
        .get("traceEvents")
        .expect("traceEvents key")
        .as_arr()
        .expect("traceEvents is an array");
    let mut meta = 0;
    let mut complete = 0;
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph");
        assert!(ev.get("pid").is_some() && ev.get("tid").is_some());
        match ph {
            "M" => {
                meta += 1;
                assert_eq!(ev.get("name").unwrap().as_str(), Some("thread_name"));
            }
            "X" => {
                complete += 1;
                assert!(ev.get("ts").unwrap().as_f64().unwrap() >= 0.0);
                assert!(ev.get("dur").unwrap().as_f64().unwrap() >= 0.0);
                let args = ev.get("args").expect("args");
                for key in ["vcpu", "begin_ps", "end_ps"] {
                    assert!(args.get(key).is_some(), "X event without args.{key}");
                }
                assert!(ev.get("cat").is_none() && args.get("trap").is_none());
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert_eq!(meta, ObsLevel::ALL.len());
    assert_eq!(complete, spans.len());
    // 3 traps x >= 6 stages each.
    assert!(complete >= 18, "only {complete} complete events");
}

#[test]
fn metrics_registry_counts_match_the_run() {
    let mut m = nested_machine(SwitchMode::Baseline);
    let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut warm).expect("cpuid never blocks");
    m.obs.metrics.clear();
    let mut prog = OpLoop::new(GuestOp::Cpuid, 5, 0, SimDuration::ZERO);
    m.run(&mut prog).expect("cpuid never blocks");
    let key = MetricKey::new("vm_exit")
        .level(ObsLevel::L2)
        .exit("CPUID")
        .reflector(m.reflector_name());
    assert_eq!(m.obs.metrics.counter(key), 5);
    let hist_key = MetricKey::new("trap_latency_ps")
        .level(ObsLevel::L2)
        .exit("CPUID")
        .reflector(m.reflector_name());
    let h = m
        .obs
        .metrics
        .histogram(hist_key)
        .expect("latency histogram recorded");
    assert_eq!(h.count(), 5);
    // One nested cpuid costs ~10.4us; the histogram is in picoseconds.
    let (lo, hi) = h.percentile_bounds(50.0);
    assert!(lo > 5_000_000 && hi < 20_000_000, "p50 in [{lo}, {hi}]");
}
