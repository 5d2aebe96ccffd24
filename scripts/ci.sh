#!/usr/bin/env bash
# Local CI gate: formatting, lints, tests. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo doc -D warnings"
# A public doc that links a private or deleted item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --examples"
cargo build --workspace --examples

echo "==> run the root examples"
# Each drives the public API end to end, so a wrong metric key or a
# broken walk-through fails here, not only a compile error. The bench
# crate's golden_gen example regenerates goldens and is not run.
for ex in examples/*.rs; do
    cargo run -q --example "$(basename "$ex" .rs)" >/dev/null
done
echo "ok   every root example exits 0"

echo "==> fig6 report against BENCH_fig6.json: paper bands and every byte"
cargo run -q -p svt-bench --bin fig6 -- --json /tmp/fig6.json >/dev/null
python3 - <<'PY'
import json, sys

new = {s["name"]: s["speedup"] for s in json.load(open("/tmp/fig6.json"))["speedups"]}
old = {s["name"]: s["speedup"] for s in json.load(open("BENCH_fig6.json"))["speedups"]}

# The paper's Fig. 6 speedup bands; a run outside these reproduces the
# wrong result even if it is self-consistent.
bands = {"sw_svt": (1.15, 1.35), "hw_svt": (1.8, 2.1)}

ok = True
for name, (lo, hi) in bands.items():
    got = new.get(name)
    want = old.get(name)
    if got is None or want is None:
        print(f"FAIL {name}: missing from report ({got=}, {want=})")
        ok = False
        continue
    good = True
    if not lo <= got <= hi:
        print(f"FAIL {name}: speedup {got:.4f} outside paper band [{lo}, {hi}]")
        good = False
    # The simulation is deterministic: any drift from the committed
    # baseline is a behavior change that needs a BENCH_fig6.json update.
    if abs(got - want) > 1e-9:
        print(f"FAIL {name}: speedup {got:.6f} drifted from committed {want:.6f}")
        good = False
    if good:
        print(f"ok   {name}: {got:.4f} in [{lo}, {hi}], matches committed baseline")
    ok = ok and good
sys.exit(0 if ok else 1)
PY
# The simulation is deterministic and the debug and release reports are
# byte-identical, so the whole committed report must match, not only the
# two speedups.
if ! cmp -s /tmp/fig6.json BENCH_fig6.json; then
    echo "FAIL: fig6 report differs from BENCH_fig6.json"
    diff /tmp/fig6.json BENCH_fig6.json | head -20
    exit 1
fi
echo "ok   fig6 report byte-identical to BENCH_fig6.json"

echo "==> sweep determinism: fig6 --jobs 2 byte-identical to --jobs 1"
cargo run -q -p svt-bench --bin fig6 -- --jobs 1 --json /tmp/fig6_j1.json >/dev/null
cargo run -q -p svt-bench --bin fig6 -- --jobs 2 --json /tmp/fig6_j2.json >/dev/null
if ! cmp -s /tmp/fig6_j1.json /tmp/fig6_j2.json; then
    echo "FAIL: fig6 report differs between --jobs 1 and --jobs 2"
    diff /tmp/fig6_j1.json /tmp/fig6_j2.json | head -20
    exit 1
fi
echo "ok   fig6 --jobs 1 and --jobs 2 reports are byte-identical"

echo "==> riscv smoke: the Fig-6 grid (bars, Table 1 split, exit attribution) on riscv"
cargo run -q -p svt-bench --bin fig6 -- --arch riscv --json /tmp/fig6_riscv.json >/dev/null
python3 - <<'PY'
import json, sys

rep = json.load(open("/tmp/fig6_riscv.json"))
results = dict(rep.get("results", []))
if results.get("arch") != "riscv":
    sys.exit(f"FAIL: report arch {results.get('arch')!r} != 'riscv'")
sp = {s["name"]: s["speedup"] for s in rep.get("speedups", [])}

ok = True
# The qualitative Fig. 6 result must carry to the H-extension backend:
# both SVt engines beat the baseline on the trap micro-benchmark.
for name in ("sw_svt", "hw_svt"):
    got = sp.get(name)
    if got is None or got <= 1.0:
        print(f"FAIL {name}: riscv speedup {got} not > 1.0")
        ok = False
    else:
        print(f"ok   {name}: {got:.2f}x over the riscv baseline")

# The same grid as x86 splits one nested trap into Table 1's six parts.
# They must add up to the L2 bar, and carry no paper value: the paper
# measured x86 only.
parts = rep.get("parts", [])
l2 = next((b["time_us"] for b in results.get("bars", []) if b["label"] == "L2"), None)
total = sum(p["time_us"] for p in parts)
if len(parts) != 6 or l2 is None or abs(total - l2) > 1e-6 * l2:
    print(f"FAIL: {len(parts)} parts summing to {total} us against the L2 bar {l2} us")
    ok = False
elif any(p.get("paper_us") is not None for p in parts):
    print("FAIL: riscv parts carry a paper_us value")
    ok = False
else:
    print(f"ok   six Table 1 parts sum to the {l2:.3f} us L2 bar, no paper column")
# The nested probe traps as a virtual instruction, and the observed cell
# attributes it so.
reasons = [e["reason"] for e in rep.get("exit_reasons", [])]
if "VIRT_INSTR" not in reasons:
    print(f"FAIL: no VIRT_INSTR exit_reasons row: {reasons}")
    ok = False
else:
    print("ok   exit attribution has a VIRT_INSTR row")
sys.exit(0 if ok else 1)
PY
# riscv memcached (served by `smp --arch riscv`) completes watchdog-clean
# under every engine, asserted by the dedicated causal-profile test.
cargo test -q -p svt-workloads riscv_memcached_runs_all_engines_cleanly -- --nocapture \
    | tail -2
# Determinism of the riscv path across worker counts.
cargo run -q -p svt-bench --bin fig6 -- --arch riscv --jobs 2 --json /tmp/fig6_riscv_j2.json >/dev/null
if ! cmp -s /tmp/fig6_riscv.json /tmp/fig6_riscv_j2.json; then
    echo "FAIL: riscv fig6 report differs between default jobs and --jobs 2"
    diff /tmp/fig6_riscv.json /tmp/fig6_riscv_j2.json | head -20
    exit 1
fi
echo "ok   riscv fig6 report is byte-identical across worker counts"

echo "==> I/O figure smokes: fig7, fig9 --quick and fig10 --quick exit 0 with results"
# The RR and STREAM NICs, virtio-blk, the TPC-C WAL and the video
# player's chunk reads run only under these bins; the goldens pin their
# reduced sizes, this runs the bins themselves.
cargo run -q --release -p svt-bench --bin fig7 -- --json /tmp/fig7.json >/dev/null
cargo run -q --release -p svt-bench --bin fig9 -- --quick --json /tmp/fig9.json >/dev/null
cargo run -q --release -p svt-bench --bin fig10 -- --quick --json /tmp/fig10.json >/dev/null
python3 - <<'PY'
import json, sys

ok = True
for fig, key in (("fig7", "speedups"), ("fig9", "speedups"), ("fig10", "frame_rates")):
    rep = json.load(open(f"/tmp/{fig}.json"))
    rows = rep.get(key) if key == "speedups" else dict(rep.get("results", [])).get(key)
    if not rows:
        print(f"FAIL {fig}: empty {key}")
        ok = False
    else:
        print(f"ok   {fig}: {len(rows)} {key} rows")
sys.exit(0 if ok else 1)
PY

echo "==> profile smoke: causal critical paths present and schema current"
cargo run -q -p svt-bench --bin profile -- memcached 2 --smoke --json /tmp/profile.json \
    --trace /tmp/profile_trace.json >/dev/null
python3 - <<'PY'
import json, sys

rep = json.load(open("/tmp/profile.json"))

# The report schema must be current (v3: hostprof section added; v2
# introduced the critical_path rows + folded stacks checked below).
if rep.get("schema_version") != 3:
    sys.exit(f"FAIL: schema_version {rep.get('schema_version')} != 3")

rows = rep.get("critical_path", [])
if not rows:
    sys.exit("FAIL: no critical_path rows in the profile report")

results = dict(rep.get("results", []))
ok = True
for cfg in ("memcached/baseline", "memcached/sw_svt"):
    folded = results.get(f"{cfg}/folded_stacks", "")
    if not folded.strip():
        print(f"FAIL {cfg}: empty folded stacks")
        ok = False
        continue
    n = len(folded.strip().splitlines())
    print(f"ok   {cfg}: {n} folded-stack buckets, "
          f"{results[f'{cfg}/requests']} requests, "
          f"{results[f'{cfg}/watchdog_violations']} watchdog violations")
    if results.get(f"{cfg}/watchdog_violations", 0) != 0:
        print(f"FAIL {cfg}: watchdog violations in a clean run")
        ok = False

# The acceptance claim: SW SVt's critical path spends less in
# exit/resume than the baseline's.
b = results.get("memcached/baseline/exit_resume_ps", 0)
s = results.get("memcached/sw_svt/exit_resume_ps", 0)
if not (0 < s < b):
    print(f"FAIL: exit/resume not reduced (baseline {b} ps, sw-svt {s} ps)")
    ok = False
else:
    print(f"ok   exit/resume on the critical path: baseline {b} ps -> sw-svt {s} ps")
sys.exit(0 if ok else 1)
PY

echo "==> profile trace: Chrome trace is valid, spans and flow arrows share one window"
python3 - <<'PY'
import json, sys
from collections import Counter

events = json.load(open("/tmp/profile_trace.json"))["traceEvents"]
by_ph = Counter(e["ph"] for e in events)
ok = True
# Two vCPUs, four level lanes each.
if by_ph["M"] != 8:
    print(f"FAIL: {by_ph['M']} thread-name lanes, expected 8")
    ok = False
xs = [e for e in events if e["ph"] == "X"]
if not xs:
    sys.exit("FAIL: no X (span) events in the trace")
bad = [e["name"] for e in xs if e["args"]["begin_ps"] > e["args"]["end_ps"]]
if bad:
    print(f"FAIL: {len(bad)} X events end before they begin (first: {bad[0]})")
    ok = False
halves = Counter((e["id"], e["ph"]) for e in events if e["ph"] in "st")
ids = {i for i, _ in halves}
unpaired = [i for i in ids if halves[(i, "s")] != 1 or halves[(i, "t")] != 1]
if unpaired:
    print(f"FAIL: {len(unpaired)} flow ids without exactly one s and one t")
    ok = False
# Spans and flows are views of one causal ring, so every arrow end lies
# inside the window the spans cover.
lo = min(e["args"]["begin_ps"] for e in xs)
hi = max(e["args"]["end_ps"] for e in xs)
outside = [e for e in events if e["ph"] in "st" and not lo <= round(e["ts"] * 1e6) <= hi]
if outside:
    print(f"FAIL: {len(outside)} flow events outside the spans' window [{lo}, {hi}] ps")
    ok = False
if ok:
    print(f"ok   chrome trace: {len(xs)} spans, {len(ids)} flow pairs, "
          f"all inside [{lo / 1e6:.2f}, {hi / 1e6:.2f}] us")
sys.exit(0 if ok else 1)
PY

echo "==> chaos smoke: fault injection survived, watchdogs silent, fallback in band"
cargo run -q -p svt-bench --bin faults -- --smoke --json /tmp/faults.json >/dev/null
python3 - <<'PY'
import json, sys

rep = json.load(open("/tmp/faults.json"))
cells = dict(rep.get("results", [])).get("campaign", [])
if not cells:
    sys.exit("FAIL: no campaign cells in the faults report")

ok = True
for c in cells:
    tag = f"{c['engine']} @ rate {c['fault_rate']}"
    cell_ok = True
    # Injected faults may cost time, never correctness.
    wd = sum(c.get("watchdogs", {}).values())
    if wd != 0:
        print(f"FAIL {tag}: {wd} causal watchdog violations")
        cell_ok = False
    # Rate-0 cells are the control: a disarmed plan must inject nothing.
    if c["fault_rate"] == 0 and c["total_injected"] != 0:
        print(f"FAIL {tag}: disarmed plan injected {c['total_injected']} faults")
        cell_ok = False
    if cell_ok:
        print(f"ok   {tag}: {c['total_injected']} injected, "
              f"{c['retransmits']} retransmits, "
              f"{100 * c['fallback_rate']:.1f}% fallback, {wd} watchdogs")
    ok = ok and cell_ok

# The degradation policy's committed operating point for the smoke cell
# (seed 0xC4A05EED, rate 0.05, 60 requests): ~26% of traps fall back.
# Outside [5%, 45%] the policy regressed (thrashing or never degrading).
sw = [c for c in cells if c["engine"] == "SW SVt" and c["fault_rate"] == 0.05]
if len(sw) != 1:
    sys.exit("FAIL: missing the SW SVt rate-0.05 smoke cell")
fb = sw[0]["fallback_rate"]
if not 0.05 <= fb <= 0.45:
    print(f"FAIL: SW SVt fallback rate {fb:.3f} outside committed band [0.05, 0.45]")
    ok = False
else:
    print(f"ok   SW SVt fallback rate {fb:.3f} within committed band [0.05, 0.45]")
if sw[0]["total_injected"] == 0:
    print("FAIL: armed smoke cell injected nothing")
    ok = False
# Both SW-SVt paths that hand a trap to the baseline engine's mechanics
# must run: traps served on the fallback path, and traps finished the
# classic way after their resume leg gave up.
for key in ("fallback_traps", "resume_fallbacks"):
    if sw[0][key] > 0:
        print(f"ok   SW SVt smoke cell {key} = {sw[0][key]}")
    else:
        print(f"FAIL: SW SVt smoke cell has no {key}")
        ok = False
sys.exit(0 if ok else 1)
PY

echo "==> flight-recorder smoke: forced fallback produces a parseable crash dump"
cargo run -q -p svt-bench --bin faults -- --smoke --dump /tmp/flight.json >/dev/null
python3 - <<'PY'
import json, sys

dump = json.load(open("/tmp/flight.json"))
if dump.get("kind") != "svt-flight-dump":
    sys.exit(f"FAIL: dump kind {dump.get('kind')!r} != 'svt-flight-dump'")
# The smoke campaign's armed SW-SVt cell (rate 0.05) forces FallenBack,
# which must trip the recorder — not just --dump-on-exit.
if dump.get("reason") != "forced_fallback":
    sys.exit(f"FAIL: dump reason {dump.get('reason')!r} != 'forced_fallback'")
k = dump.get("k", 0)
vcpus = dump.get("vcpus", [])
if not vcpus:
    sys.exit("FAIL: dump has no per-vCPU state")
ok = True
for v in vcpus:
    events = v.get("events", [])
    if not 0 < len(events) <= k:
        print(f"FAIL vcpu {v.get('vcpu')}: {len(events)} events outside (0, {k}]")
        ok = False
        continue
    ats = [e["at_ps"] for e in events]
    if ats != sorted(ats):
        print(f"FAIL vcpu {v.get('vcpu')}: event tail not in causal time order")
        ok = False
        continue
    print(f"ok   vcpu {v['vcpu']}: last {len(events)} events, health {v['health']}, "
          f"ring depth {v['ring_depth']}")
# The reflector's protocol state reaches the dump through the one
# per-lane store the timeline reads too: a forced fallback must show on
# the lane whose channel was written off.
fallen = [v["vcpu"] for v in vcpus if v.get("health") == "fallen_back"]
if not fallen:
    print(f"FAIL: no vCPU reports health fallen_back: {[v.get('health') for v in vcpus]}")
    ok = False
else:
    print(f"ok   vCPU(s) {fallen} report health fallen_back")
print(f"ok   flight dump: reason {dump['reason']}, trip #{dump['trip']}, "
      f"{dump['causal']['recorded']} causal events recorded")
sys.exit(0 if ok else 1)
PY

echo "==> timeline determinism: --jobs 4 export byte-identical to --jobs 1"
cargo run -q -p svt-bench --bin timeline -- --smoke --jobs 1 --timeline /tmp/tl_j1.json >/dev/null
cargo run -q -p svt-bench --bin timeline -- --smoke --jobs 4 --timeline /tmp/tl_j4.json >/dev/null
if ! cmp -s /tmp/tl_j1.json /tmp/tl_j4.json; then
    echo "FAIL: timeline export differs between --jobs 1 and --jobs 4"
    diff /tmp/tl_j1.json /tmp/tl_j4.json | head -20
    exit 1
fi
echo "ok   timeline --jobs 1 and --jobs 4 exports are byte-identical"

echo "==> hostprof smoke: coverage, convergence, parallel scaling and alloc determinism"
# Release build: the coverage claim is about the optimized simulator, and
# the committed BENCH_hostprof.json baseline is release-built too. The
# second campaign runs at --jobs 3, every worker the 3-cell grid can use.
cargo run -q --release -p svt-bench --bin hostprof -- 60 --jobs 1 --json /tmp/hostprof_j1.json >/dev/null
cargo run -q --release -p svt-bench --bin hostprof -- 60 --jobs 3 --json /tmp/hostprof_j3.json >/dev/null
python3 - <<'PY'
import json, os, sys

reps = {}
for jobs in (1, 3):
    rep = json.load(open(f"/tmp/hostprof_j{jobs}.json"))
    if rep.get("schema_version") != 3:
        sys.exit(f"FAIL: schema_version {rep.get('schema_version')} != 3")
    if not rep.get("hostprof"):
        sys.exit(f"FAIL: --jobs {jobs} report has no hostprof section")
    reps[jobs] = rep

ok = True
hp = reps[1]["hostprof"]
results = {jobs: dict(rep.get("results", [])) for jobs, rep in reps.items()}

# The per-subsystem rows must explain >=90% of the sweep's measured
# wall-clock, or the attributor is missing a hot path. Coverage divides
# by wall-clock x workers, so it can never exceed 1.
cov = results[1].get("coverage", 0)
if cov < 0.90:
    print(f"FAIL: attribution covers {100*cov:.1f}% of wall time (< 90%)")
    ok = False
else:
    print(f"ok   attribution covers {100*cov:.1f}% of the sweep's wall-clock")
cov3 = results[3].get("coverage", 2)
if cov3 > 1.0:
    print(f"FAIL: --jobs 3 coverage {cov3:.3f} > 1 (not divided by worker time)")
    ok = False
else:
    print(f"ok   --jobs 3 coverage {cov3:.3f} <= 1")

# The wall columns are converged means: the report records how many
# campaigns ran, whether the paper's 1% rule was met, and the CIs.
for jobs, r in results.items():
    n = r.get("repetitions", 0)
    cis = r.get("wall_rel_ci2", {})
    if n < 5 or not isinstance(r.get("converged"), bool) or "total" not in cis:
        print(f"FAIL: --jobs {jobs} convergence record incomplete "
              f"(repetitions {n}, converged {r.get('converged')!r}, cis {sorted(cis)})")
        ok = False
    else:
        print(f"ok   --jobs {jobs}: mean of {n} campaigns, total wall "
              f"+-{100 * cis['total']:.1f}% (2 sigma), 1% rule met: {r['converged']}")

# Parallel scaling: a >=4-way host must show real speedup on the 3-cell
# grid; a 1-2 way host only has to avoid pathological slowdown from the
# worker pool itself.
host = len(os.sched_getaffinity(0))
speedup = results[1]["sweep_wall_ns"] / results[3]["sweep_wall_ns"]
floor = 1.8 if host >= 4 else 0.6
if speedup < floor:
    print(f"FAIL: --jobs 1 / --jobs 3 sweep speedup {speedup:.2f}x below floor {floor}x "
          f"(host parallelism {host})")
    ok = False
else:
    print(f"ok   --jobs 1 / --jobs 3 sweep speedup {speedup:.2f}x >= floor {floor}x "
          f"(host parallelism {host})")

# The trap-shape census must be non-degenerate and show the steady-state
# repetition the memoization roadmap item is sized from.
if hp["events"] <= 0 or hp["distinct_shapes"] <= 0:
    print(f"FAIL: degenerate census ({hp['events']} events, "
          f"{hp['distinct_shapes']} shapes)")
    ok = False
rr = hp["repeat_ratio"]
if rr < 0.9:
    print(f"FAIL: repeat ratio {rr:.4f} < 0.9 — shape keys fragmented")
    ok = False
else:
    print(f"ok   {hp['distinct_shapes']} shapes over {hp['shape_total']} traps, "
          f"repeat ratio {rr:.4f}")

# Allocation attribution is deterministic: every counter the perfgate
# holds to exact bands must be byte-identical at --jobs 1 vs --jobs 3.
det = []
for jobs in (1, 3):
    h = reps[jobs]["hostprof"]
    det.append(json.dumps({
        "events": h["events"],
        "total_allocs": h["total_allocs"],
        "total_bytes": h["total_bytes"],
        "distinct_shapes": h["distinct_shapes"],
        "shape_total": h["shape_total"],
        "parts": [[p["part"], p["allocs"], p["bytes"]] for p in h["parts"]],
        "shapes": sorted([s["shape"], s["count"]] for s in h["top_shapes"]),
    }, sort_keys=True))
if det[0] != det[1]:
    print("FAIL: deterministic hostprof counters differ between --jobs 1 and 3")
    ok = False
elif hp["total_allocs"] <= 0:
    print("FAIL: counting allocator recorded nothing")
    ok = False
else:
    print(f"ok   alloc counters byte-identical at --jobs 1 vs 3 "
          f"({hp['total_allocs']} allocs, {hp['total_bytes']} bytes)")
sys.exit(0 if ok else 1)
PY

echo "==> perfgate: fresh release hostprof campaign vs committed BENCH_hostprof.json"
# The committed baseline is a release-build, full-size run, so the gate
# re-measures under the same conditions, at the seed, worker count and
# backend the baseline records. Bands (see svt_bench::gate):
#   - the exact counters (events, total and per-part allocs and bytes,
#     trap-shape census) must match bit for bit;
#   - one wall row, ns/event as the mean of campaigns repeated until the
#     paper's 1% convergence rule is met (or 50 ran), may regress up to
#     1.8x: a gross tripwire, since host phases move it by a third.
cargo run -q --release -p svt-bench --bin perfgate -- --json /tmp/perfgate.json

echo "==> repository benchmark: unit tests + smoke of every workload"
# Every workload in BENCHMARK.json for a few rounds: metrics present with
# their units, deterministic counts identical across processes and
# between traced and untraced runs, no failed cell.
bash benchmark/check.sh

echo "CI green."
