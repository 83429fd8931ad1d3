"""projnorm benchmark: times CLI invocations end to end, gates on output
correctness and, with ``--trace 1``, reports per-module counts and self
times.

    python3 bench/run.py --workload checks --seed 1 --seconds 20 --trace 0

A run replays one seeded argv list (a round, see ``workloads.py``) in a
fresh interpreter per round, one interpreter at a time, until
``--seconds`` have passed; every figure is a median over rounds or over
the pooled operations, and every time is in reference seconds (see
``calibrate.py``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Lines before it give every metric with its unit, the
workload's properties and the environment; the same record is written
to ``.bench_out/`` in the checkout.

The program is imported from the checkout's ``src/``; PROJNORM_SEED is
removed from the workers' environment, and every verify-formulas argv
passes ``--seed``.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import outcome
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
REFERENCE = BENCH / "reference.json"

#: Percentiles op_ms_tail may report; it reports the highest that leaves at
#: least 10 samples beyond it in the fewest a run pools (MIN_ROUNDS rounds).
TAIL_LADDER = (50, 75, 90, 95, 99)

#: Operations re-run after the first round and checked in full.
SPOT_COUNT = {"checks": 60, "scans": 12, "verify": 2}

#: Rounds a run makes at least, and interpreter starts it times at least.
MIN_ROUNDS = 3
MIN_SETUPS = 11

#: A run stops starting rounds after this many seconds, whatever --seconds says.
HARD_STOP_S = 150.0


class RunError(Exception):
    """The benchmark cannot run here; no result is printed."""


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PROJNORM_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_round(ops, trace=False, spot_count=0, spot_seed=0, spans_path=None, timeout=170.0) -> dict:
    """Run one round in a fresh interpreter; adds ``setup`` (spawn to import) to its reply."""
    job = {"ops": ops, "trace": trace, "spot_count": spot_count, "spot_seed": spot_seed, "spans_path": spans_path}
    spawned = clock()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=worker_env(),
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(json.dumps(job).encode(), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"a round did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
    reply = json.loads(out)
    reply["setup"] = reply["imported"] - spawned
    reply["duration"] = clock() - spawned
    return reply


def load_reference(workload: str, seed: int):
    """Reference stdout digests for this workload and seed, if checked in."""
    if not REFERENCE.is_file():
        return None
    packed = json.loads(REFERENCE.read_text())["digests"].get(workload, {}).get(str(seed))
    if packed is None:
        return None
    return [packed[i : i + 8] for i in range(0, len(packed), 8)]


def percentile(values, p: float) -> tuple:
    """Nearest-rank percentile: (value, samples beyond it)."""
    ordered = sorted(values)
    k = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[k - 1], len(ordered) - k


def tail_percentile(samples: int) -> int:
    fits = [p for p in TAIL_LADDER if samples - math.ceil(p / 100 * samples) >= 10]
    return fits[-1] if fits else TAIL_LADDER[0]


def normalize(rnd: dict) -> None:
    """Add reference-speed figures to a round's reply (see calibrate.py)."""
    rnd["setup_ref"] = rnd["setup"] * calibrate.factor(rnd["start_slices"])
    if rnd["results"]:
        scale = calibrate.local_factors(len(rnd["results"]), rnd["slices"])
        rnd["latencies_ref"] = [r["latency"] * f for r, f in zip(rnd["results"], scale)]
        rnd["wall_ref"] = sum(rnd["latencies_ref"])


def properties(ops: list, results: list) -> dict:
    """Facts about one round's inputs and outputs that later claims can cite."""
    formats = collections.Counter(workloads.split_format(argv)[1] for argv in ops)
    return {
        "ops": len(ops),
        "distinct_argv_share": len({tuple(a) for a in ops}) / len(ops),
        "distinct_case_share": len({workloads.case_key(a) for a in ops}) / len(ops),
        "input_error_share": sum(workloads.expected_exit(a) == 2 for a in ops) / len(ops),
        "rows": sum(r["rows"] for r in results),
        "stdout_bytes": sum(r["bytes"] for r in results),
        "format_mix": {fmt: n / len(ops) for fmt, n in sorted(formats.items())},
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Replay the round until ``seconds`` have passed; returns (ops, plain
    rounds, traced rounds, setup-only starts).  With ``trace`` every plain
    round is followed by a traced one."""
    ops = workloads.generate(workload, seed)
    spawn_round([])  # compiles bytecode, which a user's installed CLI has already done
    spans_path = str(OUT / f"spans-{workload}-seed{seed}.tsv.gz") if trace else None
    plain, traced, starts = [], [], []
    started = clock()
    while True:
        spot = SPOT_COUNT[workload] if not plain else 0
        plain.append(spawn_round(ops, spot_count=spot, spot_seed=seed))
        if trace:
            traced.append(spawn_round(ops, trace=True, spans_path=spans_path))
        else:
            starts.append(spawn_round([]))
        elapsed = clock() - started
        step = statistics.median(r["duration"] for r in plain + starts) + (
            statistics.median(r["duration"] for r in traced) if trace else 0.0
        )
        enough = trace or len(plain) >= MIN_ROUNDS
        if enough and (elapsed + step > seconds or elapsed > HARD_STOP_S):
            break
    while not trace and len(plain) + len(starts) < MIN_SETUPS:
        starts.append(spawn_round([]))
    for rnd in plain + traced + starts:
        normalize(rnd)
    return ops, plain, traced, starts


def judge(ops: list, rounds: list, reference) -> list:
    """(round, op, reasons) for every failed operation of every round."""
    failures = []
    first = [r["digest"] for r in rounds[0]["results"]]
    for k, rnd in enumerate(rounds):
        why = outcome.op_failures(ops, rnd["results"], reference, first if k else None)
        for i, problems in rnd.get("spot", []):
            why[i] = why[i] + [f"spot check: {p}" for p in problems]
        failures.extend((k, i, reasons) for i, reasons in enumerate(why) if reasons)
    return failures


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops, plain, traced, starts = measure(workload, seed, seconds, trace)
    reference = load_reference(workload, seed)
    failures = judge(ops, plain + traced, reference)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "reference_digests": reference is not None,
        "environment": environment(),
        "properties": properties(ops, plain[0]["results"]),
        "raw": {
            "round_walls_s": [r["wall"] for r in plain],
            "traced_round_walls_s": [r["wall"] for r in traced],
            "setups_s": [r["setup"] for r in plain + starts],
            "speed_factors": [r["wall_ref"] / sum(x["latency"] for x in r["results"]) for r in plain],
        },
        "attempted": len(ops) * (len(plain) + len(traced)),
        "failed": len(failures),
        "failures": [{"round": k, "op": i, "argv": ops[i], "reasons": r} for k, i, r in failures[:20]],
        "problems": [],
    }
    if trace:
        record["metrics"] = layer_metrics(ops, plain, traced)
        missing = tracing.unused_hot(workload, record["metrics"])
        record["problems"] += [f"span {name} has no calls on {workload}" for name in missing]
    else:
        record["metrics"] = end_to_end(ops, plain, starts)
    record["failed_share"] = record["failed"] / record["attempted"]
    record["correct"] = not failures and not record["problems"]
    return record


def end_to_end(ops: list, rounds: list, starts: list) -> dict:
    """Every end-to-end metric as (value, unit, how it was taken); times in reference seconds."""
    latencies = [x for rnd in rounds for x in rnd["latencies_ref"]]
    wall = statistics.median(rnd["wall_ref"] for rnd in rounds)
    rows = sum(r["rows"] for r in rounds[0]["results"])
    setups = [rnd["setup_ref"] for rnd in rounds + starts]
    p = tail_percentile(MIN_ROUNDS * len(ops))
    tail, beyond = percentile(latencies, p)
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} interpreter starts"),
        "wall_s": (wall, "s", f"median over {len(rounds)} rounds of the summed op latencies"),
        "op_ms_p50": (statistics.median(latencies) * 1000, "ms", f"median of {len(latencies)} op latencies"),
        "op_ms_tail": (tail * 1000, "ms", f"p{p} of {len(latencies)} op latencies, {beyond} beyond"),
        "ops_per_s": (len(ops) / wall, "1/s", f"{len(ops)} ops per round / wall_s"),
        "cells_per_s": (rows / wall, "rows/s", f"{rows} report rows per round / wall_s"),
        "peak_rss_mb": (statistics.median(rnd["rss_kb"] for rnd in rounds) / 1024, "MB", "median over rounds"),
    }


def layer_metrics(ops: list, plain: list, traced: list) -> dict:
    """Per-layer counts of one traced round, self times as medians over
    traced rounds (raw seconds), and the workload's output counts."""
    out = {}
    for name, value in traced[0]["layers"].items():
        if name.endswith(("self_s", "_share")):
            value = statistics.median(rnd["layers"][name] for rnd in traced)
        out[name] = value
    results = plain[0]["results"]
    out["cli.input_errors"] = sum(r["code"] == 2 for r in results)
    out["report.rows_out"] = sum(r["rows"] for r in results)
    out["report.bytes_out"] = sum(r["bytes"] for r in results)
    out["verify.rows"] = sum(r["rows"] for argv, r in zip(ops, results) if "verify-formulas" in argv)
    out["trace.overhead_ratio"] = statistics.median(r["wall_ref"] for r in traced) / statistics.median(
        r["wall_ref"] for r in plain
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "projnorm" / "cli.py").is_file():
            raise RunError(f"no projnorm sources under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RunError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=list) + "\n"
    )
    print_record(record)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value = record["metrics"][m["name"]]
        value = value[0] if isinstance(value, tuple) else value
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(
        json.dumps(
            {"correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}
        )
    )
    return 0


def print_record(record: dict) -> None:
    env = record["environment"]
    print(
        f"projnorm bench: workload={record['workload']} seed={record['seed']} trace={record['trace']} "
        f"rounds={record['rounds']} traced_rounds={record['traced_rounds']} "
        f"python={env['python']} machine={env['machine']} nproc={env['nproc']}"
    )
    for name, value in record["metrics"].items():
        if isinstance(value, tuple):
            print(f"  {name:<14} {value[0]:.6g} {value[1]:<7} {value[2]}")
        else:
            print(f"  {name:<44} {value:.6g}")
    print(f"  failed_share   {record['failed_share']:.6g} ratio   {record['failed']} of {record['attempted']} ops")
    print("  properties " + json.dumps(record["properties"]))
    for failure in record["failures"]:
        print(f"  FAILED round {failure['round']} op {failure['op']}: {' '.join(failure['argv'])}: {failure['reasons']}")
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}")


if __name__ == "__main__":
    sys.exit(main())
