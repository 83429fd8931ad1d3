"""A fixed slice of interpreter work that measures how fast the machine is
running right now.

The host this benchmark was built on shares its cores with other tenants;
the same Python code runs up to about 1.8 times slower while they are busy,
in periods from a second to over a minute.  Every timing the benchmark
reports is therefore scaled by ``REFERENCE_SLICE_S / slice time measured
next to it``: a figure reads as seconds on the machine in its quiet state.
The slice uses only the standard library (argument parsing, exact
rationals, JSON and string formatting, the same kinds of work projnorm
does), so no change to projnorm moves it.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
import time
from fractions import Fraction

#: Median slice time on the reference machine (Intel Xeon at 2.1 GHz,
#: 2 vCPUs, Python 3.11.7), taken while the host was quiet.
REFERENCE_SLICE_S = 0.0017


def work() -> int:
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command")
    for k in range(6):
        p = sub.add_parser(f"cmd{k}")
        p.add_argument("--a", type=int, required=True)
        p.add_argument("--b", type=Fraction, default=Fraction(1, 3))
        p.add_argument("--flag", action="store_true")
    # parse_known_args: the traced run wraps parse_args, and must not see this
    args, _ = parser.parse_known_args(["cmd3", "--a", "7", "--flag"])
    acc = Fraction(args.a)
    for i in range(1, 120):
        acc = acc * Fraction(i, i + 2) + Fraction(i + 1, 2 * i + 1)
    rows = [{"i": i, "value": f"{acc.numerator % (i + 7)}/{i + 1}", "ok": i % 3 == 0} for i in range(60)]
    text = json.dumps(rows, indent=2) + "\n".join(f"{r['i']:>4}  {r['value']:<8}" for r in rows)
    return len(text)


def slice_seconds() -> float:
    """Wall time of one slice."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Scale that turns a time measured next to ``samples`` into reference seconds."""
    return REFERENCE_SLICE_S / statistics.median(samples)


def local_factors(n_ops: int, slices, width: int = 7) -> list:
    """One scale per operation, from the ``width`` slices run nearest to it.

    ``slices`` lists (index of the operation the slice ran after, seconds)
    in run order.
    """
    after = [a for a, _ in slices]
    seconds = [s for _, s in slices]
    out = []
    for i in range(n_ops):
        k = bisect.bisect_left(after, i)
        lo = max(0, min(k - width // 2, len(seconds) - width))
        out.append(factor(seconds[lo : lo + width]))
    return out
