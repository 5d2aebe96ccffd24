#!/usr/bin/env bash
# Smoke check of the benchmark: unit tests, then every workload for a
# few rounds, twice at the default seed and once at a held-out seed.
# Asserts that every metric named in BENCHMARK.json prints with its
# unit, that deterministic metrics and counts repeat exactly (across
# processes, and between the traced and the untraced run), and that no
# cell fails.
#
#   bash benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo test --quiet --release --offline --locked --manifest-path "$manifest"
cargo build --quiet --release --offline --locked --manifest-path "$manifest"
target=${CARGO_TARGET_DIR:-benchmark/target}
bin=$target/release/svt-benchmark
out=$target/check
rm -rf "$out"
mkdir -p "$out"

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
    echo "== $w"
    "$bin" --workload "$w" --rounds 3 --trace 1 --spans "$out/$w.spans.json" > "$out/$w.traced.a"
    "$bin" --workload "$w" --rounds 3 --trace 1 > "$out/$w.traced.b"
    "$bin" --workload "$w" --rounds 3 --trace 0 > "$out/$w.untraced"
    "$bin" --workload "$w" --rounds 3 --trace 0 --seed 7 > "$out/$w.heldout"
done

python3 - "$out" $workloads <<'PY'
import json, re, sys

out, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
# Host-timed metrics vary run to run; everything else is a pure function
# of workload and seed, except the run phase's allocations: the serving
# workloads keep std HashMaps with per-instance random hashing, whose
# resizes add an allocation every few hundred rounds.
HOST = re.compile(r"^(traps_per_s|round_ms_p50|round_ms_p90|setup_s|peak_rss_mb"
                  r"|hv\.ns_per_trap|hv\.run_(allocs|bytes)_per_trap)$|_ms$|^bench\.")

def lines(path):
    metrics = {}
    text = open(path).read().splitlines()
    for line in text[:-1]:
        parts = line.split()
        if len(parts) == 3:
            metrics[parts[0]] = (parts[1], parts[2])
    result = json.loads(text[-1])
    return metrics, result

def deterministic(metrics):
    return {k: v for k, v in metrics.items() if not HOST.search(k)}

failures = []
def expect(cond, msg):
    if not cond:
        failures.append(msg)

for w in workloads:
    a, ra = lines(f"{out}/{w}.traced.a")
    b, _ = lines(f"{out}/{w}.traced.b")
    u, ru = lines(f"{out}/{w}.untraced")
    h, rh = lines(f"{out}/{w}.heldout")
    for m in bench["end_to_end"]:
        _, unit = u.get(m["name"], (None, None))
        expect(unit == m["unit"], f"{w}: {m['name']} missing or unit {unit!r} != {m['unit']!r}")
        expect(m["name"] in ru["metrics"], f"{w}: {m['name']} missing from the result")
    for m in bench["per_layer"]:
        _, unit = a.get(m["name"], (None, None))
        expect(unit == m["unit"], f"{w}: {m['name']} missing or unit {unit!r} != {m['unit']!r}")
        expect(m["name"] in ra["metrics"], f"{w}: {m['name']} missing from the traced result")
    expect(deterministic(a) == deterministic(b), f"{w}: deterministic metrics differ across runs")
    shared = deterministic(u).keys() & deterministic(a).keys()
    expect(len(shared) > 10, f"{w}: traced and untraced runs share too few counts")
    expect(all(u[k] == a[k] for k in shared), f"{w}: traced counts differ from untraced counts")
    for name, metrics, result in (("traced", a, ra), ("untraced", u, ru), ("seed 7", h, rh)):
        expect(metrics.get("fail_ratio", ("?",))[0] == "0", f"{w} ({name}): fail_ratio not 0")
        expect(result["correct"] and result["failed"] == 0, f"{w} ({name}): result not correct")
    spans = json.load(open(f"{out}/{w}.spans.json"))["spans"]
    expect(len(spans) > 0, f"{w}: no spans written")
    print(f"{w}: ok ({len(a)} traced metrics, {len(shared)} deterministic checked)")

if failures:
    print("\n".join(failures))
    sys.exit(1)
print("benchmark check passed")
PY
