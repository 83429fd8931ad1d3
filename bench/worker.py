"""One round of a workload in a fresh interpreter.

Started by ``run.py`` with the checkout's ``src`` on PYTHONPATH.  It
imports ``projnorm.cli`` before anything else, so the time from spawn to
the end of that import is what every CLI process pays, then reads a JSON
job from stdin, calls ``projnorm.cli.main(argv)`` for each argv in
order (a closed loop: the next call starts when the previous returns)
and writes one JSON result to stdout.
"""

import sys
import time

import projnorm.cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402  (imported after the timed import on purpose)
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import calibrate  # noqa: E402
import outcome  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Capture:
    """Stands in for sys.stdout or sys.stderr during one call; keeps the text."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)

    def flush(self):
        pass

    def take(self) -> str:
        text = "".join(self.chunks)
        self.chunks = []
        return text


def call(argv, out: Capture, err: Capture) -> int:
    try:
        return projnorm.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error is a failed operation, not a failed run
        err.write(traceback.format_exc())
        return 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


#: Seconds of operations between two calibration slices.
CALIBRATE_EVERY_S = 0.04


def run_round(ops, tracer=None):
    """Time each argv; returns per-op results, the round's wall time and the
    calibration slices run between operations."""
    out, err = Capture(), Capture()
    results, slices = [], []
    since = 0.0
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        start = time.perf_counter()
        for i, argv in enumerate(ops):
            if tracer is not None:
                tracer.op[0] = i
            t0 = time.perf_counter()
            code = call(argv, out, err)
            t1 = time.perf_counter()
            text = out.take()
            _, fmt = workloads.split_format(argv)
            results.append(
                {
                    "latency": t1 - t0,
                    "code": code,
                    "digest": digest(text),
                    "bytes": len(text.encode()),
                    "rows": outcome.row_count(fmt, text.count("\n"), text.count('"params": {')),
                    "stderr": err.take()[:2000],
                }
            )
            since += t1 - t0
            if since >= CALIBRATE_EVERY_S or i == len(ops) - 1:
                slices.append((i, calibrate.slice_seconds()))
                since = 0.0
        wall = time.perf_counter() - start
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    return results, wall, slices


def replay_sample(ops, results, sample):
    """Re-run sampled argv in this interpreter, after the timed loop, and
    spot-check their full output; returns (index, problems) pairs."""
    out, err = Capture(), Capture()
    checked = []
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        for i in sample:
            call(ops[i], out, err)
            err.take()
            text = out.take()
            problems = outcome.spot_check(ops[i], text)
            if digest(text) != results[i]["digest"]:
                problems.append("re-run in the same interpreter printed other bytes")
            checked.append((i, problems))
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    return checked


def main() -> None:
    start_slices = [calibrate.slice_seconds() for _ in range(7)]
    job = json.loads(sys.stdin.read())
    ops = job["ops"]
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    results, wall, slices = run_round(ops, tracer)
    reply = {"imported": IMPORTED, "start_slices": start_slices, "results": results, "wall": wall, "slices": slices}
    reply["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        reply["layers"] = tracer.layer_metrics(sum(r["latency"] for r in results))
        if job.get("spans_path"):
            os.makedirs(os.path.dirname(job["spans_path"]), exist_ok=True)
            tracer.write(job["spans_path"])
    if job["spot_count"]:
        sample = random.Random(job["spot_seed"]).sample(range(len(ops)), min(job["spot_count"], len(ops)))
        reply["spot"] = replay_sample(ops, results, sorted(sample))
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
