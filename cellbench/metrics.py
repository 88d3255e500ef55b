"""Arithmetic of the cell benchmark: raw cellbench records -> metrics.

Everything here is a pure function of the raw JSON the cellbench binary
prints, so it is unit-tested in test_metrics.py without a build.
"""

import math
import statistics

# Percentiles tried for round_ms_tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Samples that must lie beyond the reported tail percentile.
MIN_BEYOND = 10


# --- unit conversions -------------------------------------------------------

def ms_to_s(ms):
    return ms / 1e3


def bytes_to_mb(n):
    """Decimal megabytes (10^6 bytes), the unit of every *_mb metric."""
    return n / 1e6


def kib_to_mb(kib):
    """getrusage reports ru_maxrss in KiB on Linux."""
    return kib * 1024 / 1e6


def per_second(count, ms):
    return count / ms_to_s(ms)


# --- order statistics ------------------------------------------------------

def nearest_rank(sorted_values, q):
    """Index of the q-th percentile by the nearest-rank rule."""
    n = len(sorted_values)
    return max(0, math.ceil(q / 100.0 * n) - 1)


def tail_percentile(values):
    """The highest ladder percentile with at least MIN_BEYOND samples above it.

    Returns (value, percentile, n, beyond). Raises ValueError when even the
    median leaves fewer than MIN_BEYOND samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_LADDER:
        idx = nearest_rank(ordered, q)
        beyond = n - 1 - idx
        if n and beyond >= MIN_BEYOND:
            return ordered[idx], q, n, beyond
    raise ValueError(f"{n} samples leave fewer than {MIN_BEYOND} beyond p50")


def quartile_summary(values):
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


# --- federation accounting -------------------------------------------------

FAILURES = ("dropped", "unavailable", "crashed", "rejected")


def round_rows(rounds):
    """Column arrays of a cell's rounds -> one dict per round."""
    keys = list(rounds)
    return [dict(zip(keys, vals)) for vals in zip(*(rounds[k] for k in keys))]


def check_round_accounting(row):
    """Every sampled party is aggregated or counted under one failure.

    Holds for a round that met quorum on its first sampling attempt; returns
    an error string, or None.
    """
    if not row["quorum_met"]:
        return f"round missed quorum: {row}"
    if row["resample_retries"]:
        return f"round needed a re-sample: {row}"
    failed = sum(row[k] for k in FAILURES)
    if row["aggregated"] + failed != row["sampled"]:
        return f"aggregated + failures != sampled: {row}"
    return None


def updates_failed_share(rows):
    """Sampled updates not aggregated (dropped, unavailable, crashed,
    rejected) / sampled, over all rounds."""
    sampled = sum(r["sampled"] for r in rows)
    failed = sum(sum(r[k] for k in FAILURES) for r in rows)
    return failed / sampled


def useful_update_ratio(rows):
    """Aggregated / trained, where a party trained unless it was dropped or
    unavailable (a crashed party trained but never delivered)."""
    trained = sum(r["sampled"] - r["dropped"] - r["unavailable"] for r in rows)
    return sum(r["aggregated"] for r in rows) / trained


def schedule_makespan(task_ms, threads, max_chunks_per_thread=4):
    """Makespan of ThreadPool's ParallelFor over tasks of the given lengths.

    ParallelFor cuts n tasks into min(n, 4 x threads) contiguous chunks, and
    each idle worker takes the next chunk in order.
    """
    n = len(task_ms)
    if n == 0:
        return 0.0
    num_chunks = min(n, threads * max_chunks_per_thread)
    size = -(-n // num_chunks)
    free_at = [0.0] * threads
    for begin in range(0, n, size):
        worker = min(range(threads), key=lambda w: free_at[w])
        free_at[worker] += sum(task_ms[begin:begin + size])
    return max(free_at)


def idle_share(task_ms, threads):
    """1 - busy worker time / (threads x makespan) for one round's schedule."""
    makespan = schedule_makespan(task_ms, threads)
    return 1.0 - sum(task_ms) / (threads * makespan) if makespan else 0.0


# --- metric sets ------------------------------------------------------------

def end_to_end(raw):
    """The end-to-end metrics of an untraced run, plus details to print."""
    cells = raw["cells"]
    rows = [row for c in cells for row in round_rows(c["rounds"])]
    round_ms = [r["round_ms"] for r in rows]
    metrics = {
        "setup_s": (statistics.median(
            [c["setup_s"] for c in cells] + raw["extra_setup_s"]), "s"),
        "cell_s": (statistics.median(c["cell_s"] for c in cells), "s"),
        "round_ms_p50": (statistics.median(round_ms), "ms"),
        # Median of per-round rates: one stalled round does not move it.
        "train_samples_per_s": (statistics.median(
            per_second(r["trained_samples"], r["round_ms"]) for r in rows),
            "1/s"),
        "eval_ms_p50": (statistics.median(
            v for c in cells for v in c["eval_ms"]), "ms"),
        "peak_rss_mb": (kib_to_mb(raw["max_rss_kb"]), "MB"),
        "uplink_mb_per_round": (bytes_to_mb(statistics.fmean(
            r["bytes_uplink"] for r in rows)), "MB"),
        "final_accuracy": (statistics.fmean(
            c["final_accuracy"] for c in cells), "fraction"),
        "updates_aggregated_share": (1.0 - updates_failed_share(rows),
                                     "fraction"),
    }
    try:
        tail, q, n, beyond = tail_percentile(round_ms)
    except ValueError as too_short:
        # Left out: the caller reports the missing metric.
        return metrics, {"round_ms_tail": str(too_short)}
    metrics["round_ms_tail"] = (tail, "ms")
    details = {"round_ms_tail": {"percentile": q, "n": n, "beyond": beyond}}
    return metrics, details


COUNTERS = ("sampled", "aggregated", "dropped", "unavailable", "crashed",
            "straggled", "rejected", "resample_retries", "poisoned", "trimmed")

# Per-layer metrics whose layer does not run on a workload: they read 0.
# Any other metric the traced run does not produce is an error.
_NO_SERVER_PATH = ("fl.encode_us_per_update", "fl.decode_us_per_update",
                   "fl.robust_ms_per_round", "fl.ckpt_make_ms",
                   "fl.ckpt_write_ms", "fl.ckpt_mb")
_NO_BN_OR_BLOCK = tuple(f"nn.{kind}.{phase}_ms" for kind in ("bn", "block")
                        for phase in ("fwd", "bwd", "eval_fwd"))
NOT_APPLICABLE = {
    "silo-cnn": _NO_SERVER_PATH + _NO_BN_OR_BLOCK,  # dense, SimpleCnn
    "silo-resnet": _NO_SERVER_PATH,                 # dense, ResNet
    "device-robust": _NO_BN_OR_BLOCK,               # SimpleCnn
}


def per_layer(raw, catalog):
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    `catalog` is BENCHMARK.json's per_layer list. A metric listed in
    NOT_APPLICABLE for the workload reads 0; any other metric the run did not
    produce is left out, for the caller to report.
    """
    before, traced, after = raw["cells"]
    layers = raw["layers"]
    rows = round_rows(traced["rounds"])
    out = {name: statistics.median(samples)
           for name, samples in layers.items()
           if name != "replays" and samples}
    for key in COUNTERS:
        out["fl." + key] = statistics.fmean(r[key] for r in rows)
    out["fl.useful_update_ratio"] = useful_update_ratio(rows)

    replays = layers["replays"]
    threads = raw["threads"]
    round_ms = [r["round_ms"] for r in rows]
    train, serial, unaccounted, idle = [], [], [], []
    for rep in replays:
        ms = round_ms[rep["round"]]
        train.append(rep["train_wall_ms"] / ms)
        serial.append(rep["serial_ms"] / ms)
        unaccounted.append(1.0 - (rep["train_wall_ms"] + rep["serial_ms"]) / ms)
        idle.append(idle_share(rep["task_ms"], threads))
    out["fl.train_share"] = statistics.median(train)
    out["fl.serial_share"] = statistics.median(serial)
    out["fl.round_unaccounted_share"] = statistics.median(unaccounted)
    out["fl.idle_share"] = statistics.median(idle)
    # Serial server phase of every round (its replayed median) plus the
    # checkpoints, as a share of the traced cell.
    serial_ms = statistics.median(rep["serial_ms"] for rep in replays)
    out["fl.server_cell_share"] = ms_to_s(
        len(rows) * serial_ms + sum(traced["ckpt_ms"])) / traced["cell_s"]
    if "tensor.gemm_peak_gflops" in out and "tensor.gemm_gflops" in out:
        out["tensor.gemm_peak_share"] = (out["tensor.gemm_gflops"] /
                                         out["tensor.gemm_peak_gflops"])
    untraced_s = (before["cell_s"] + after["cell_s"]) / 2
    out["trace.overhead_share"] = traced["cell_s"] / untraced_s - 1.0

    for name in NOT_APPLICABLE[raw["workload"]]:
        out.setdefault(name, 0.0)
    return {m["name"]: (out[m["name"]], m["unit"]) for m in catalog
            if m["name"] in out}
