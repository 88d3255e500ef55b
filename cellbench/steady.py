#!/usr/bin/env python3
"""Steadiness evidence for the cell benchmark.

    python3 cellbench/steady.py --label set-a --seeds 1-10 [--record]
    python3 cellbench/steady.py --label traced --seeds 1-3 --trace
    python3 cellbench/steady.py --compare set-a set-b

Runs run.py once per (seed, workload), seeds in the outer loop, and stores
every end-to-end value with the median, quartiles and spread
((q3 - q1) / median) per workload and metric in cellbench/steadiness.json
under --label. --trace runs the traced run instead and stores every per-layer
value with its median. --record also stores each cell's final accuracy and
state checksum in cellbench/expected.json under the cell's data draw: the
values every later run on that draw must reproduce. A run whose only errors
are draws without a recorded output is accepted while recording. --compare
reports, per metric, how far the second label's median moved from the
first's, against the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402
import run  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STEADINESS = BENCH / "steadiness.json"
EXPECTED = BENCH / "expected.json"


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    details = [json.loads(line[len("details "):]) for line in lines
               if line.startswith("details ")]
    if not details:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):"
                         f"\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1]), details[0]


def load(path):
    return json.loads(path.read_text()) if path.is_file() else {}


def save(path, data):
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def collect(args, catalog):
    metric_list = catalog["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metric_list}
    workloads = [w["name"] for w in catalog["workloads"]]
    values = {w: {m: [] for m in bounds} for w in workloads}
    expected = load(EXPECTED)
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            result, details = run_once(w, seed, catalog["run_seconds"],
                                       int(args.trace))
            tolerated = [e for e in details["errors"]
                         if args.record and e.startswith(run.UNRECORDED)]
            if len(tolerated) != len(details["errors"]):
                raise SystemExit(f"{w} seed {seed}: {details['errors']}")
            for name in bounds:
                values[w][name].append(result["metrics"][name]["value"])
            if args.record:
                recorded = expected.setdefault(w, {})
                for c in details["cells"]:
                    cell = {"accuracy": c["accuracy"],
                            "checksum": c["checksum"]}
                    if recorded.setdefault(str(c["draw"]), cell) != cell:
                        raise SystemExit(f"{w} draw {c['draw']}: {cell} != "
                                         f"{recorded[str(c['draw'])]}")
                save(EXPECTED, expected)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)

    steadiness = load(STEADINESS)
    entry = steadiness.setdefault(args.label, {})
    entry["seeds"] = args.seeds
    entry["trace"] = int(args.trace)
    for w in workloads:
        entry[w] = {}
        for name, vals in values[w].items():
            if args.trace:
                entry[w][name] = {"median": statistics.median(vals),
                                  "values": vals}
                continue
            summary = metrics.quartile_summary(vals)
            summary["values"] = vals
            entry[w][name] = summary
            steady = summary["spread"] < bounds[name] / 3
            flag = "" if steady else "  <-- above bound/3"
            print(f"{w:14s} {name:26s} median {summary['median']:.5g} "
                  f"spread {summary['spread']:.4f} bound {bounds[name]}{flag}")
    save(STEADINESS, steadiness)


def compare(first, second, catalog):
    steadiness = load(STEADINESS)
    a, b = steadiness[first], steadiness[second]
    ok = True
    for m in catalog["end_to_end"]:
        for w in (w["name"] for w in catalog["workloads"]):
            if w not in a or w not in b:
                continue
            m1, m2 = a[w][m["name"]]["median"], b[w][m["name"]]["median"]
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            ok &= verdict == "ok"
            print(f"{w:14s} {m['name']:26s} {m1:.5g} -> {m2:.5g} "
                  f"worse by {worse:+.4f} (bound {m['bound']}) {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return 0 if compare(*args.compare, catalog) else 1
    if not args.label:
        parser.error("--label is required unless --compare is given")
    collect(args, catalog)
    return 0


if __name__ == "__main__":
    sys.exit(main())
