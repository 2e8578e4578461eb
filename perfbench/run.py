"""Verifier benchmark for comaj: per-unit best-of over cold rounds.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload formula --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run is a number of cold rounds, about as many as fit in ``--seconds`` (at
least two).  Each round is a fresh worker process (worker.py) that imports comaj
from ``src/`` and calls ``cli.main`` once per unit of the workload, in an
order the seed fixes for the whole run.  Only one worker runs at a time.

Each unit's time is scaled to a calm host by the worker's speed probes taken
just before and just after it (see README.md).  ``verdict_s`` and
``first_report_s`` sum over the units each unit's median scaled time across
the run's rounds.

With ``--trace 1`` the run alternates untraced and traced rounds, prints the
per-layer metrics of the fastest traced round, and checks that the tracer
intercepted every report.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Each run also writes a
record with raw timings and a host noise probe to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import loop_seconds
from tracing import TARGETS, VERIFY
from workloads import NONZERO, SEED_SHARES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3  # extra workers that only set up, so setup_s has more samples
ROUND_TIMEOUT_S = 150
# Best time of the worker's unit probe (worker.UNIT_PROBE) on a calm 2-core
# host under Python 3.11.  Unit and set-up times are scaled by
# REFERENCE_PROBE_S / (probe time around them).
REFERENCE_PROBE_S = 0.0072
# glibc's initial mmap threshold.  Fixing it switches off the adaptive
# threshold, whose state made the peak RSS of one workload depend on the unit
# order (93, 106 or 119 MB) rather than on the program's allocations.
WORKER_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
NOISE_LOOP = 500_000  # about 40 ms on a calm 2-core host
NOISE_REPS = 9


class RoundFailed(RuntimeError):
    pass


def noise_probe() -> dict:
    """Best and median time of a fixed stdlib loop, plus the load average."""
    times = [loop_seconds(NOISE_LOOP) for _ in range(NOISE_REPS)]
    return {
        "best_ms": min(times) * 1e3,
        "median_ms": statistics.median(times) * 1e3,
        "loadavg": os.getloadavg(),
    }


def run_round(units: list[list[str]], spans_path: Path | None) -> dict:
    """Run one cold round in a fresh worker and scale its times to a calm host."""
    env = {**os.environ, **WORKER_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    spec = {"units": units, "spans": str(spans_path) if spans_path else None}
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            cwd=ROOT, env=env, timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundFailed(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    if Path(result["module"]).resolve().parent != (ROOT / "src" / "comaj").resolve():
        raise RoundFailed(f"worker imported comaj from {result['module']}, not this checkout")
    # probes[0] and probes[1] bracket set-up; probes[i + 1] and probes[i + 2]
    # bracket unit i.
    probes = result["probes"]
    result["setup_host_s"] = result["setup_s"] * REFERENCE_PROBE_S / ((probes[0] + probes[1]) / 2)
    for i, unit in enumerate(result["units"]):
        scale = REFERENCE_PROBE_S / ((probes[i + 1] + probes[i + 2]) / 2)
        unit["t_host"] = unit["t"] * scale
        unit["first_host"] = unit["first"] * scale
    return result


def unit_sum(rounds: list[dict], field: str, pick=statistics.median) -> float:
    """Sum over units of each unit's median (or other pick) across rounds."""
    return sum(pick([r["units"][i][field] for r in rounds])
               for i in range(len(rounds[0]["units"])))


def count_failures(rounds: list[dict], units: list[list[str]], expected: dict) -> tuple[int, int]:
    """(reports attempted, reports failed) over every round of the run.

    A unit whose stdout digest or exit code differs from the committed value
    fails all of its expected reports; otherwise its non-pass reports fail.
    """
    attempted = failed = 0
    for r in rounds:
        for argv, got in zip(units, r["units"]):
            want = expected[tuple(argv)]
            attempted += want["reports"]
            if got["sha256"] != want["sha256"] or got["exit"] != want["exit"]:
                failed += want["reports"]
            else:
                failed += got["non_pass"]
    return attempted, failed


def layer_metrics(traced: dict, overhead: float) -> dict:
    """Per-layer metric values from one traced round's summary."""
    trace = traced["trace"]
    layers = trace["layers"]
    values: dict[str, float] = {
        f"{name}.{field}": 0
        for name in (*(t[0] for t in TARGETS), VERIFY, "cli.main")
        for field in ("calls", "self_s", "total_s")
    }
    for name, row in layers.items():
        for field in ("calls", "self_s", "total_s"):
            values[f"{name}.{field}"] = row[field]
    builds = layers.get("identities.bucket_build", {}).get("calls", 0)
    keys = trace["build_keys"].get("identities.bucket_build", 0)
    values.update({
        "qpoly.mul.term_pairs": trace["term_pairs"],
        "enumeration.fundamental_principal_series.rss_growth_mb": trace["rss_growth_mb"],
        "identities.bucket_build.count": builds,
        "identities.bucket_build.per_key": builds / keys if keys else 0.0,
        "cli.stdout_bytes": sum(u["bytes"] for u in traced["units"]),
        "trace.overhead": overhead,
    })
    return values


def self_check(workload: str, traced_rounds: list[dict], values: dict) -> list[str]:
    """Interception problems: missed reports, missing wrappers, zero layers."""
    problems = []
    for i, r in enumerate(traced_rounds):
        lines = sum(u["lines"] for u in r["units"])
        calls = r["trace"]["layers"].get(VERIFY, {}).get("calls", 0)
        if calls != lines:
            problems.append(f"traced round {i}: {VERIFY}.calls {calls} != {lines} report lines")
        for target in r["trace"]["missing"]:
            problems.append(f"traced round {i}: no function {target} to wrap")
    for metric in NONZERO[workload]:
        if not values.get(metric):
            problems.append(f"{metric} is 0 on {workload}: a wrapper missed a binding site")
    return problems


def layer_shares(workload: str, values: dict, verdict_s: float) -> list[dict]:
    """Each seed-table layer's share of one traced round's verdict time."""
    out = []
    for label, terms, op, share in SEED_SHARES[workload]:
        got = sum(values[t] for t in terms) / verdict_s
        held = got >= share if op == ">=" else got < share
        out.append({"layer": label, "share": got, "seed": f"{op} {share}", "holds": held})
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 spec: dict, expected: dict) -> dict:
    units = [list(u) for u in WORKLOADS[workload]]
    random.Random(seed).shuffle(units)
    (HERE / "runs").mkdir(exist_ok=True)
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "units": units, "probe_before": noise_probe()}
    start = time.perf_counter()
    setup_only = [] if trace else [run_round([], None) for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        step_start = time.perf_counter()
        plain.append(run_round(units, None))
        if trace:
            spans = HERE / "runs" / f"{workload}-seed{seed}-round{len(traced)}-spans.json"
            traced.append(run_round(units, spans))
        now = time.perf_counter()
        # Make at least two steps, and another one only if half of it, at the
        # length of the last one, fits in --seconds.
        if len(plain) >= 2 and (now - start) + (now - step_start) / 2 > seconds:
            break
    record["probe_after"] = noise_probe()

    attempted, failed = count_failures(plain + traced, units, expected)
    verdict_s = unit_sum(plain, "t_host")
    values = {
        "verdict_s": verdict_s,
        "first_report_s": unit_sum(plain, "first_host"),
        "setup_s": statistics.median(r["setup_host_s"] for r in plain + setup_only),
        "peak_rss_mb": max(r["maxrss_mb"] for r in plain),
    }
    record["unscaled_best_of"] = {
        "verdict_s": unit_sum(plain, "t", min),
        "first_report_s": unit_sum(plain, "first", min),
        "setup_s": min(r["setup_s"] for r in plain + setup_only),
    }
    problems: list[str] = []
    if trace:
        overhead = unit_sum(traced, "t_host") / verdict_s
        fastest = min(traced, key=lambda r: sum(u["t"] for u in r["units"]))
        values.update(layer_metrics(fastest, overhead))
        problems = self_check(workload, traced, values)
        record["layer_shares"] = layer_shares(
            workload, values, sum(u["t"] for u in fastest["units"]))
        record["trace_overhead"] = overhead
    section = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    record.update({
        "rounds": {"setup_only": setup_only, "plain": plain, "traced": [
            {k: v for k, v in r.items() if k != "trace"} for r in traced]},
        "attempted": attempted, "failed": failed, "failed_share": failed / attempted,
        "self_check": problems, "metrics": metrics,
    })
    with open(HERE / "runs" / f"{workload}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_summary(record: dict) -> None:
    rounds = record["rounds"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"rounds {len(rounds['plain'])} untraced + {len(rounds['traced'])} traced  "
          f"units {len(record['units'])}")
    for name, m in record["metrics"].items():
        print(f"  {name:56s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_share':56s} {record['failed_share']:.6g} "
          f"({record['failed']}/{record['attempted']} reports)")
    print("  unscaled best-of: " + ", ".join(
        f"{k} {v:.6g} s" for k, v in record["unscaled_best_of"].items()))
    if record["trace"]:
        print(f"  tracing overhead: traced/untraced verdict_s = {record['trace_overhead']:.3f}")
        for s in record["layer_shares"]:
            print(f"  share {s['layer']}: {s['share']:.3f} (seed {s['seed']}, "
                  f"{'holds' if s['holds'] else 'does not hold'})")
    for key in ("probe_before", "probe_after"):
        p = record[key]
        print(f"  noise probe {key[6:]}: best {p['best_ms']:.2f} ms, median "
              f"{p['median_ms']:.2f} ms, load {' '.join(f'{x:.2f}' for x in p['loadavg'])}")
    for problem in record["self_check"]:
        print(f"  SELF-CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "comaj" / "cli.py").is_file():
        print(f"error: no comaj source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = {tuple(u["argv"]): u for rows in json.load(fh).values() for u in rows}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        spec, expected))
            print_summary(records[-1])
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and not any(r["self_check"] for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
