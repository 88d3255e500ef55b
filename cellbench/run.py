#!/usr/bin/env python3
"""Cell benchmark entry point.

    python3 cellbench/run.py --workload silo-cnn --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds cellbench (and the library from
src/) into .bench_build/cellbench on first use, runs one workload, checks its
outputs and prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run, whose Chrome trace
lands in .bench_build/traces/. See cellbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "cellbench"
WORK = ROOT / ".bench_build" / "work"
TRACES = ROOT / ".bench_build" / "traces"
# Compiler and runtime temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=str(ROOT / ".bench_build" / "tmp"))


def die(message, code=2):
    print(f"cellbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    Path(ENV["TMPDIR"]).mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "cellbench"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=ENV, timeout=880).returncode != 0:
                die(f"build failed: {' '.join(cmd)} (log: {log})", 3)
    return BUILD / "cellbench"


def source_digest():
    """sha256 over the library and benchmark sources, for provenance when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(raw):
    return {"build_type": raw["build_type"], "nproc": os.cpu_count(),
            "git_sha": git_sha(), "source_sha256": source_digest(),
            "compiler": raw["compiler"], "cxx_flags": raw["cxx_flags"].strip(),
            "threads": raw["threads"], "seed": raw["seed"],
            "workload": raw["workload"]}


# Prefix of the error for a cell whose data draw has no recorded output.
UNRECORDED = "no recorded output"


def check(raw, args, expected):
    """Output checks; returns (errors, operations attempted, operations
    failed)."""
    errors = []
    attempted = failed = 0
    if raw["build_type"] != "Release":
        errors.append(f"non-Release build: {raw['build_type']}")
    recorded = expected.get(args.workload, {})
    for k, c in enumerate(raw["cells"]):
        rows = metrics.round_rows(c["rounds"])
        if len(rows) != raw["rounds_per_cell"]:
            errors.append(f"cell ran {len(rows)} of "
                          f"{raw['rounds_per_cell']} rounds")
        attempted += len(rows) + len(c["eval_ms"]) + len(c["ckpt_ms"])
        for row in rows:
            problem = metrics.check_round_accounting(row)
            if problem:
                failed += 1
                errors.append(problem)
        failed += c["ckpt_failed"]
        if c["ckpt_failed"]:
            errors.append(f"{c['ckpt_failed']} checkpoint writes failed")
        if not 0.0 <= c["final_accuracy"] <= 1.0:
            errors.append(f"accuracy out of range: {c['final_accuracy']}")
        # Every cell, traced or not, must reproduce its draw's recorded output.
        ref = recorded.get(str(c["draw"]))
        if ref is None:
            errors.append(f"{UNRECORDED} for {args.workload} draw {c['draw']}"
                          f" (cell {k})")
        elif (c["checksum"] != ref["checksum"]
              or c["final_accuracy"] != ref["accuracy"]):
            errors.append(
                f"cell {k} (draw {c['draw']}): accuracy {c['final_accuracy']}"
                f" checksum {c['checksum']} != recorded {ref['accuracy']} "
                f"{ref['checksum']}")
    if args.trace:
        if raw["bit_identical"] != 1:
            errors.append("traced final state differs from the untraced one")
        if not raw["trace_file"]:
            errors.append("trace file not written")
    return errors, attempted, failed


def main():
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in catalog["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected = json.loads((BENCH / "expected.json").read_text())
    binary = build()
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", str(WORK)],
            capture_output=True, text=True, env=ENV, timeout=170)
    except subprocess.TimeoutExpired:
        die("cellbench did not finish within 170 s", 5)
    if proc.returncode != 0:
        die(f"cellbench exited with {proc.returncode}: "
            f"{proc.stderr[-2000:]}", 4)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    errors, attempted, failed = check(raw, args, expected)
    if args.trace == 0:
        values, details = metrics.end_to_end(raw)
        wanted = catalog["end_to_end"]
    else:
        values = metrics.per_layer(raw, catalog["per_layer"])
        layers = raw["layers"]
        details = {"gemm_shape_mnk": [layers.get("tensor.gemm_" + d, [0])[0]
                                      for d in "mnk"]}
        TRACES.mkdir(parents=True, exist_ok=True)
        trace = TRACES / f"{args.workload}-seed{args.seed}.json"
        os.replace(raw["trace_file"], trace)
        details["trace_file"] = str(trace.relative_to(ROOT))
        wanted = catalog["per_layer"]
    for m in wanted:
        if m["name"] not in values or values[m["name"]][1] != m["unit"]:
            errors.append(f"metric {m['name']} missing or not in {m['unit']}")
    details["cells"] = [{"draw": c["draw"], "accuracy": c["final_accuracy"],
                         "checksum": c["checksum"]} for c in raw["cells"]]
    details["errors"] = errors

    print("provenance " + json.dumps(provenance(raw)))
    print("details " + json.dumps(details))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0],
                                "unit": values[m["name"]][1]}
                    for m in wanted if m["name"] in values},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
