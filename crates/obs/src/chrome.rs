//! Chrome trace-event export.
//!
//! Serializes recorded spans in the Trace Event Format ("X" complete
//! events) so a run can be dropped into Perfetto (ui.perfetto.dev) or
//! `chrome://tracing`. Simulated picoseconds map onto the format's
//! microsecond `ts`/`dur` fields as exact fractional values; each
//! (vCPU, virtualization level) pair gets its own thread lane so an SMP
//! run shows per-vCPU trap timelines side by side.

use crate::causal::{FlowArrow, Span};
use crate::json::Json;
use crate::key::ObsLevel;

/// Thread id of the lane carrying spans for `(vcpu, level)`. Lanes pack
/// densely: vCPU 0 keeps tids 0–3 (identical to the pre-SMP layout), vCPU 1
/// uses 4–7, and so on.
pub fn lane_tid(vcpu: u32, level: ObsLevel) -> u64 {
    vcpu as u64 * ObsLevel::ALL.len() as u64 + level.tid()
}

/// Builds the Chrome trace-event document for a set of spans and causal
/// cross-lane edges.
///
/// The result is a JSON object with a `traceEvents` array: one `"M"`
/// (metadata) event naming each (vCPU, level) thread lane that appears in
/// the spans or flows (vCPU 0's four lanes are always present), then one
/// `"X"` (complete) event per span, carrying the exact picosecond
/// begin/end in `args` alongside the microsecond `ts`/`dur` the viewer
/// consumes, then each [`FlowArrow`] as an `"s"` (flow start) / `"t"`
/// (flow end) event pair bound by a shared `id`, so Perfetto draws IPI and
/// ring arrows between the per-vCPU lanes.
pub fn chrome_trace(spans: &[Span], flows: &[FlowArrow]) -> Json {
    let mut vcpus: Vec<u32> = spans.iter().map(|s| s.vcpu).collect();
    vcpus.extend(flows.iter().flat_map(|f| [f.from_vcpu, f.to_vcpu]));
    vcpus.push(0);
    vcpus.sort_unstable();
    vcpus.dedup();
    let mut events = Vec::new();
    for &vcpu in &vcpus {
        for level in ObsLevel::ALL {
            events.push(Json::obj([
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(lane_tid(vcpu, level))),
                (
                    "args",
                    Json::obj([(
                        "name",
                        Json::from(format!(
                            "vcpu{vcpu}/{} ({})",
                            level.name(),
                            lane_role(level)
                        )),
                    )]),
                ),
            ]));
        }
    }
    for s in spans {
        let begin_ps = s.begin.as_ps();
        let end_ps = s.end.as_ps();
        events.push(Json::obj([
            ("name", Json::from(s.name)),
            ("ph", Json::from("X")),
            ("ts", Json::Num(begin_ps as f64 / 1e6)),
            ("dur", Json::Num((end_ps - begin_ps) as f64 / 1e6)),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(lane_tid(s.vcpu, s.level))),
            (
                "args",
                Json::obj([
                    ("vcpu", Json::from(s.vcpu as u64)),
                    ("begin_ps", Json::from(begin_ps)),
                    ("end_ps", Json::from(end_ps)),
                ]),
            ),
        ]));
    }
    for f in flows {
        let halves = [
            ("s", f.from_at, f.from_vcpu, f.from_level),
            ("t", f.to_at, f.to_vcpu, f.to_level),
        ];
        for (ph, at, vcpu, level) in halves {
            events.push(Json::obj([
                ("name", Json::from(f.kind)),
                ("cat", Json::from("causal")),
                ("ph", Json::from(ph)),
                ("id", Json::from(f.id)),
                ("ts", Json::Num(at.as_ps() as f64 / 1e6)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(lane_tid(vcpu, level))),
                ("bp", Json::from("e")),
            ]));
        }
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ns")),
    ])
}

fn lane_role(level: ObsLevel) -> &'static str {
    match level {
        ObsLevel::L0 => "host hypervisor",
        ObsLevel::L1 => "guest hypervisor",
        ObsLevel::L2 => "nested guest",
        ObsLevel::Machine => "devices/timers",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svt_sim::SimTime;

    fn span(name: &'static str, level: ObsLevel, b: u64, e: u64) -> Span {
        vspan(name, level, b, e, 0)
    }

    fn vspan(name: &'static str, level: ObsLevel, b: u64, e: u64, vcpu: u32) -> Span {
        Span {
            name,
            level,
            begin: SimTime::from_ns(b),
            end: SimTime::from_ns(e),
            vcpu,
        }
    }

    #[test]
    fn trace_has_metadata_and_complete_events() {
        let spans = [
            span("exit", ObsLevel::L2, 0, 10),
            span("l0_handler", ObsLevel::L0, 10, 25),
        ];
        let doc = chrome_trace(&spans, &[]);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), ObsLevel::ALL.len() + 2);
        let meta = &events[0];
        assert_eq!(meta.get("ph").unwrap().as_str(), Some("M"));
        let x = &events[ObsLevel::ALL.len()];
        assert_eq!(x.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(x.get("name").unwrap().as_str(), Some("exit"));
        assert_eq!(x.get("ts").unwrap().as_f64(), Some(0.0));
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(0.01)); // 10ns = 0.01us
        let args = x.get("args").unwrap();
        assert_eq!(args.get("begin_ps").unwrap().as_i64(), Some(0));
        // The name alone identifies a stage: no category, no trap number.
        assert!(x.get("cat").is_none() && args.get("trap").is_none());
    }

    #[test]
    fn export_round_trips_through_parser() {
        let spans = [span("reflect", ObsLevel::L0, 5, 7)];
        let doc = chrome_trace(&spans, &[]);
        let text = doc.pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let doc = chrome_trace(&[], &[]);
        assert_eq!(
            doc.get("traceEvents").unwrap().as_arr().unwrap().len(),
            ObsLevel::ALL.len()
        );
        assert!(Json::parse(&doc.to_string()).is_ok());
    }

    #[test]
    fn each_vcpu_gets_its_own_lane_block() {
        let spans = [
            vspan("exit", ObsLevel::L2, 0, 10, 0),
            vspan("exit", ObsLevel::L2, 5, 15, 2),
        ];
        let doc = chrome_trace(&spans, &[]);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // Two vCPUs present -> two blocks of metadata lanes.
        assert_eq!(events.len(), 2 * ObsLevel::ALL.len() + 2);
        // vCPU 0's L2 span sits on tid 2, vCPU 2's on tid 10.
        let x0 = &events[2 * ObsLevel::ALL.len()];
        let x2 = &events[2 * ObsLevel::ALL.len() + 1];
        assert_eq!(x0.get("tid").unwrap().as_i64(), Some(2));
        assert_eq!(x2.get("tid").unwrap().as_i64(), Some(10));
        // Lane names carry the vcpu.
        let names: Vec<String> = events[..2 * ObsLevel::ALL.len()]
            .iter()
            .map(|m| {
                m.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert!(names.contains(&"vcpu0/L2 (nested guest)".to_string()));
        assert!(names.contains(&"vcpu2/L2 (nested guest)".to_string()));
    }

    #[test]
    fn flow_arrows_emit_s_t_pairs_on_their_lanes() {
        use crate::causal::FlowArrow;
        let spans = [vspan("exit", ObsLevel::L2, 0, 10, 0)];
        let flows = [FlowArrow {
            kind: "ipi",
            id: 42,
            from_at: SimTime::from_ns(2),
            from_vcpu: 0,
            from_level: ObsLevel::Machine,
            to_at: SimTime::from_ns(8),
            to_vcpu: 1,
            to_level: ObsLevel::Machine,
        }];
        let doc = chrome_trace(&spans, &flows);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // vCPU 1 appears only via the flow, but still gets its lane block.
        assert_eq!(events.len(), 2 * ObsLevel::ALL.len() + 1 + 2);
        let s = &events[events.len() - 2];
        let t = &events[events.len() - 1];
        assert_eq!(s.get("ph").unwrap().as_str(), Some("s"));
        assert_eq!(t.get("ph").unwrap().as_str(), Some("t"));
        assert_eq!(s.get("id"), t.get("id"));
        assert_eq!(s.get("id").unwrap().as_i64(), Some(42));
        assert_eq!(
            s.get("tid").unwrap().as_i64(),
            Some(lane_tid(0, ObsLevel::Machine) as i64)
        );
        assert_eq!(
            t.get("tid").unwrap().as_i64(),
            Some(lane_tid(1, ObsLevel::Machine) as i64)
        );
        assert_eq!(s.get("name").unwrap().as_str(), Some("ipi"));
        assert!(Json::parse(&doc.to_string()).is_ok());
    }

    #[test]
    fn lane_tids_never_collide_across_vcpus() {
        let mut seen = std::collections::HashSet::new();
        for vcpu in 0..8 {
            for level in ObsLevel::ALL {
                assert!(seen.insert(lane_tid(vcpu, level)));
            }
        }
    }
}
