"""Seeded argv generators for the benchmark workloads, and the input rules
that say which exit code each argv must end in.

A workload is one fixed list of ``projnorm`` argv per seed (a "round").
The same seed always gives the same list; the benchmark replays the list
in fresh interpreters, so nothing is shared between replays.  Every
count that drives cost (how many ops of each kind, which formats, how
many rows a scan emits) is fixed per workload; the seed only moves the
parameters inside their ranges.  That keeps runs with different seeds
comparable, which the run-to-run spread check depends on.

Why each workload exists:

* ``checks``: latency-bound single-case use.  About a thousand distinct
  ``check`` cases, no case repeated, so a cache across calls cannot win.
  CLI parsing, the Riemann-Roch solver, the class ring and ``twist``
  dominate.
* ``scans``: throughput-bound batch use.  Grid scans that emit about
  1250 rows each, in all three formats.  The thresholds,
  classifiers, closed-form counts and rendering do the work; no ring,
  ``chern`` or ``rr`` code runs.
* ``verify``: the self-check users run as a correctness gate.
  Symmetric functions over ``Fraction`` and the class ring dominate.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("checks", "scans", "verify")

#: Mirrors ``src/projnorm/presets.cfg``: preset name -> (check kind, degree).
PRESETS = {
    "quadric-surface": ("surface-hyp", 2),
    "cubic-surface": ("surface-hyp", 3),
    "quartic-k3": ("surface-hyp", 4),
    "quintic-surface": ("surface-hyp", 5),
    "sextic-surface": ("surface-hyp", 6),
    "cubic-threefold": ("threefold-hyp", 3),
    "quartic-threefold": ("threefold-hyp", 4),
    "quintic-threefold": ("threefold-hyp", 5),
    "sextic-threefold": ("threefold-hyp", 6),
}

#: Output format and where ``--format`` sits: before the subcommand
#: ("root") or after its arguments ("leaf").  None is the table default.
FORMAT_VARIANTS = (
    None,
    ("table", "root"),
    ("table", "leaf"),
    ("json", "root"),
    ("json", "leaf"),
    ("csv", "root"),
    ("csv", "leaf"),
)

#: Operations per round of the checks workload, by check kind.
CHECK_MIX = (
    ("surface-hyp", 250),
    ("threefold-hyp", 150),
    ("curve", 320),
    ("surface", 220),
    ("preset", 60),
)

#: Rows each p3, p4 and curve scan emits, give or take rounding.
SCAN_ROWS = 1250

#: Scans per round of each kind in each format.
SCANS_PER_FORMAT = 4

#: The ci scan has a fixed degree range 6..34 (even degrees), so 15 rows.
CI_ROWS = 15

#: (rank range, trials) of the verify workload's round: every single rank
#: up to 12, the default 1..6 and short ranges with 20 to 50 trials.  The
#: seed orders them, picks each call's format and derives its --seed.
VERIFY_PLAN = (
    *((f"{r}..{r}", 20) for r in range(1, 13)),
    ("1..6", 20),
    ("1..2", 50),
    ("3..3", 50),
    ("4..4", 35),
    ("5..5", 50),
    ("2..4", 25),
    ("1..3", 35),
    ("2..2", 40),
    ("1..1", 45),
    ("3..4", 30),
    ("4..5", 20),
    ("1..4", 20),
)


def generate(workload: str, seed: int) -> list:
    """The round's argv list for ``workload`` and ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"projnorm-bench:{workload}:{seed}")
    return {"checks": _checks, "scans": _scans, "verify": _verify}[workload](rng)


def _with_format(argv: list, variant) -> list:
    if variant is None:
        return argv
    fmt, where = variant
    return ["--format", fmt] + argv if where == "root" else argv + ["--format", fmt]


def _checks(rng: random.Random) -> list:
    ops, seen = [], set()
    for kind, count in CHECK_MIX:
        for j in range(count):
            while True:
                argv = _draw_check(kind, rng)
                key = case_key(argv)
                if key not in seen:
                    break
            seen.add(key)
            ops.append(_with_format(argv, FORMAT_VARIANTS[j % len(FORMAT_VARIANTS)]))
    rng.shuffle(ops)
    return ops


def _draw_check(kind: str, rng: random.Random) -> list:
    if kind in ("surface-hyp", "threefold-hyp"):
        return ["check", kind, "--d", str(rng.randint(2, 40)), "--r", str(rng.randint(1, 16))]
    if kind == "preset":
        return ["check", "preset", rng.choice(sorted(PRESETS)), "--r", str(rng.randint(1, 20))]
    if kind == "curve":
        g = rng.randint(0, 400)
        argv = ["check", "curve", "--g", str(g), "--d", str(rng.randint(1, 600))]
        if rng.random() < 0.3:
            argv += ["--r", str(rng.randint(1, 4))]
        for p in sorted(rng.sample(range(2, 9), rng.randint(0, 2))):
            argv += ["--p", str(p)]
        if rng.random() < 0.5:
            argv += ["--cliff", str(rng.randint(0, max(0, (g - 1) // 2)))]
        if rng.random() < 0.5:
            argv.append("--general")
        if rng.random() < 0.3:
            argv.append("--very-ample")
        return argv
    if kind == "surface":
        c1 = str(rng.randint(1, 20))
        if rng.random() < 0.5:
            c1 += f",{rng.randint(-3, 3)}"
        c2 = str(rng.randint(-20, 80))
        if rng.random() < 0.1:
            c2 = f"{2 * rng.randint(-10, 40) + 1}/2"
        return [
            "check", "surface",
            f"--h2={rng.randint(1, 12)}",
            f"--hk={rng.randint(-10, 10)}",
            f"--k2={rng.randint(-10, 20)}",
            f"--chi={rng.randint(-2, 5)}",
            "--r", str(rng.randint(2, 6)),
            "--c1", c1,
            f"--c2={c2}",
        ]
    raise ValueError(f"unknown check kind {kind!r}")


def _scans(rng: random.Random) -> list:
    # every scan kind in every format, so each format renders each grid
    ops = []
    for kind in ("p3", "p4", "curve", "ci"):
        for fmt in ("table", "json", "csv"):
            for _ in range(SCANS_PER_FORMAT):
                argv = _draw_scan(kind, rng)
                ops.append(_with_format(argv, (fmt, rng.choice(("root", "leaf")))))
    rng.shuffle(ops)
    return ops


def _draw_scan(kind: str, rng: random.Random) -> list:
    if kind == "ci":
        return ["scan", "ci", "--rmax", str(rng.randint(2, 60))]
    if kind == "curve":
        gmax = rng.randint(10, 100)
        return ["scan", "curve", "--gmax", str(gmax), "--dmax", str(round(SCAN_ROWS / (gmax + 1)))]
    dmin = 2 if kind == "p3" else 4
    dmax = rng.randint(30, 120)
    return ["scan", kind, "--dmax", str(dmax), "--rmax", str(round(SCAN_ROWS / (dmax - dmin + 1)))]


def _verify(rng: random.Random) -> list:
    plan = list(VERIFY_PLAN)
    rng.shuffle(plan)
    ops = []
    for i, (ranks, trials) in enumerate(plan):
        argv = ["verify-formulas", "--ranks", ranks, "--trials", str(trials), "--seed", str(rng.randint(1, 10**6))]
        fmt = ("table", "json", "csv")[i % 3]
        ops.append(_with_format(argv, (fmt, rng.choice(("root", "leaf")))))
    return ops


# ---------------------------------------------------------------------------
# reading an argv back


def split_format(argv: list) -> tuple:
    """(argv without --format, output format); the table format is the default."""
    rest, fmt = [], "table"
    i = 0
    while i < len(argv):
        if argv[i] == "--format":
            fmt = argv[i + 1]
            i += 2
            continue
        rest.append(argv[i])
        i += 1
    return rest, fmt


def options(argv: list) -> dict:
    """--name value and --name=value pairs of an argv (flags map to True)."""
    out = {}
    i = 0
    while i < len(argv):
        token = argv[i]
        if token.startswith("--"):
            name, eq, value = token[2:].partition("=")
            if eq:
                out[name] = value
            elif i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                out[name] = argv[i + 1]
                i += 1
            else:
                out[name] = True
        i += 1
    return out


def case_key(argv: list) -> tuple:
    """What the computation depends on: the argv without its format, with
    presets resolved to the hypersurface case they name."""
    rest, _ = split_format(argv)
    if rest[:2] == ["check", "preset"]:
        kind, d = PRESETS[rest[2]]
        return ("check", kind, d, int(options(rest).get("r", 2)))
    if rest[:2] in (["check", "surface-hyp"], ["check", "threefold-hyp"]):
        opts = options(rest)
        return ("check", rest[1], int(opts["d"]), int(opts["r"]))
    return tuple(rest)


def expected_exit(argv: list) -> int:
    """Exit code the documented input rules give for ``argv``.

    2 when r*(d-1) is odd on a hypersurface case, 2 when ``check surface``
    has h < r+3 (h defaults to r*H^2), 0 otherwise.
    """
    rest, _ = split_format(argv)
    opts = options(rest)
    if rest[:2] == ["check", "preset"]:
        _, d = PRESETS[rest[2]]
        r = int(opts.get("r", 2))
        return 2 if (r * (d - 1)) % 2 else 0
    if rest[:2] in (["check", "surface-hyp"], ["check", "threefold-hyp"]):
        r, d = int(opts["r"]), int(opts["d"])
        return 2 if (r * (d - 1)) % 2 else 0
    if rest[:2] == ["check", "surface"]:
        r = int(opts["r"])
        h = int(opts["h"]) if "h" in opts else r * int(opts["h2"])
        return 2 if h < r + 3 else 0
    return 0


def expected_rows(argv: list):
    """Report rows the argv must emit, where the count follows from the argv
    alone (scans and verify-formulas); None otherwise."""
    rest, _ = split_format(argv)
    opts = options(rest)
    if rest[0] == "verify-formulas":
        lo, _, hi = opts["ranks"].partition("..")
        return 8 * (int(hi) - int(lo) + 1) + 3
    if rest[0] != "scan":
        return None
    if rest[1] == "ci":
        return CI_ROWS
    if rest[1] == "curve":
        return (int(opts["gmax"]) + 1) * int(opts["dmax"])
    dmin = 2 if rest[1] == "p3" else 4
    return max(0, int(opts["dmax"]) - dmin + 1) * int(opts["rmax"])


def sym2_dim(r: int, d: int) -> int:
    """dim S^2 H^0 for h^0 = r*d, computed here with integers only."""
    return math.comb(r * d + 1, 2)
