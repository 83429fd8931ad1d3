"""Spans around projnorm's public functions, installed from outside the package.

Each target function is wrapped once.  Module-level functions are
replaced in every ``projnorm`` module namespace that holds the original
(``from .exactalg import ring_degree`` makes a copy per importing
module); methods are replaced on their class.  A span is (name, start,
end, parent span, op id), kept in flat arrays for the whole round and
written out when the round ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

#: The chern closed forms reported together as ``chern.closed_forms``.
CLOSED_FORMS = (
    "tensor_square",
    "sym2",
    "sym3",
    "wedge2",
    "twist",
    "direct_sum",
    "chern_character",
    "graded_product",
    "segre_dual",
)

#: (span name, module, attribute) for every wrapped callable; an attribute
#: "Class.name" is a method patched on the class.
TARGETS = (
    ("cli.build_parser", "projnorm.cli", "build_parser"),
    ("cli.parse_args", "argparse", "ArgumentParser.parse_args"),
    ("cli.dispatch", "projnorm.cli", "dispatch"),
    ("exactalg.elementary_symmetric", "projnorm.exactalg", "elementary_symmetric"),
    ("exactalg.splitting_oracle", "projnorm.exactalg", "splitting_oracle"),
    ("exactalg.GradedClass.mul", "projnorm.exactalg", "GradedClass.__mul__"),
    ("exactalg.GradedClass.add", "projnorm.exactalg", "GradedClass.__add__"),
    ("exactalg.GradedClass.of", "projnorm.exactalg", "GradedClass.of"),
    ("exactalg.ring_degree", "projnorm.exactalg", "ring_degree"),
    *((f"chern.{name}", "projnorm.chern", name) for name in CLOSED_FORMS),
    ("chern.bundle_from_roots", "projnorm.chern", "bundle_from_roots"),
    ("rr.solve_ulrich_chern", "projnorm.rr", "solve_ulrich_chern"),
    ("rr.chi_surface", "projnorm.rr", "chi_surface"),
    ("rr.chi_threefold_hypersurface", "projnorm.rr", "chi_threefold_hypersurface"),
    ("rr.HypersurfaceP3.surface", "projnorm.rr", "HypersurfaceP3.surface"),
    ("ulrich.h0_powers_p3_hypersurface", "projnorm.ulrich", "h0_powers_p3_hypersurface"),
    ("ulrich.chi_powers_p4_hypersurface", "projnorm.ulrich", "chi_powers_p4_hypersurface"),
    ("normality.curve_thresholds", "projnorm.normality", "curve_thresholds"),
    ("normality.mrc_check", "projnorm.normality", "mrc_check"),
    ("normality.classify_p3_hypersurface", "projnorm.normality", "classify_p3_hypersurface"),
    ("normality.classify_p4_hypersurface", "projnorm.normality", "classify_p4_hypersurface"),
    ("normality.dimension_test", "projnorm.normality", "dimension_test"),
    ("normality.surface_acm_criterion", "projnorm.normality", "surface_acm_criterion"),
    ("normality.sectional_curve_criterion", "projnorm.normality", "sectional_curve_criterion"),
    ("report.ScanReport.build", "projnorm.report", "ScanReport.build"),
    ("report.to_table", "projnorm.report", "ScanReport.to_table"),
    ("report.to_json", "projnorm.report", "ScanReport.to_json"),
    ("report.to_csv", "projnorm.report", "ScanReport.to_csv"),
    ("verify.formula_suite", "projnorm.verify", "formula_suite"),
)

_CHERN = tuple(f"chern.{name}" for name in CLOSED_FORMS)

_ALL = ("checks", "scans", "verify")
_CHECKS_VERIFY = ("checks", "verify")
_CHECKS_SCANS = ("checks", "scans")

#: Workloads on which each span must be entered at least once.  A span with
#: no calls where the work is known to happen means a binding was missed,
#: so the run fails instead of reporting a fast layer.
HOT = {
    "cli.build_parser": _ALL,
    "cli.parse_args": _ALL,
    "cli.dispatch": _ALL,
    "exactalg.elementary_symmetric": ("verify",),
    "exactalg.splitting_oracle": ("verify",),
    "exactalg.GradedClass.mul": _CHECKS_VERIFY,
    "exactalg.GradedClass.add": _CHECKS_VERIFY,
    "exactalg.GradedClass.of": _CHECKS_VERIFY,
    "exactalg.ring_degree": _CHECKS_VERIFY,
    "chern.tensor_square": ("verify",),
    "chern.sym2": ("verify",),
    "chern.sym3": ("verify",),
    "chern.wedge2": ("verify",),
    "chern.twist": _CHECKS_VERIFY,
    "chern.direct_sum": ("verify",),
    "chern.chern_character": _CHECKS_VERIFY,
    "chern.graded_product": ("verify",),
    "chern.segre_dual": ("checks",),
    "chern.bundle_from_roots": ("verify",),
    "rr.solve_ulrich_chern": _CHECKS_VERIFY,
    "rr.chi_surface": _CHECKS_VERIFY,
    "rr.chi_threefold_hypersurface": _CHECKS_VERIFY,
    "rr.HypersurfaceP3.surface": _CHECKS_VERIFY,
    "ulrich.h0_powers_p3_hypersurface": _CHECKS_SCANS,
    "ulrich.chi_powers_p4_hypersurface": _CHECKS_SCANS,
    "normality.curve_thresholds": _CHECKS_SCANS,
    "normality.mrc_check": _CHECKS_SCANS,
    "normality.classify_p3_hypersurface": _CHECKS_SCANS,
    "normality.classify_p4_hypersurface": _CHECKS_SCANS,
    "normality.dimension_test": _CHECKS_SCANS,
    "normality.surface_acm_criterion": ("checks",),
    "normality.sectional_curve_criterion": ("checks",),
    "report.ScanReport.build": _ALL,
    "report.to_table": _ALL,
    "report.to_json": _ALL,
    "report.to_csv": _ALL,
    "verify.formula_suite": ("verify",),
}

_CHI = ("rr.chi_surface", "rr.chi_threefold_hypersurface")
_RENDER = ("report.to_table", "report.to_json", "report.to_csv")


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.op_id = array("l")
        self.op = [-1]  # the current operation's index, set by the caller
        self._stack = [-1]
        self._undo = []

    def wrap(self, name_id: int, fn):
        start, end, parent, name, op_id, op, stack = (
            self.start, self.end, self.parent, self.name, self.op_id, self.op, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            name.append(name_id)
            op_id.append(op[0])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for name_id, (_, module_name, attr) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[member]
                if isinstance(raw, staticmethod):
                    patched = staticmethod(self.wrap(name_id, raw.__func__))
                else:
                    patched = self.wrap(name_id, raw)
                setattr(owner, member, patched)
                self._undo.append((owner, member, raw))
                continue
            original = getattr(module, member)
            traced = self.wrap(name_id, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "projnorm" or mod_name.startswith("projnorm.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    def layer_metrics(self, op_seconds: float) -> dict:
        """Per-layer counts and self times of the recorded round."""
        own = self_times(self.start, self.end, self.parent)
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        for name_id, t in zip(self.name, own):
            calls[name_id] += 1
            busy[name_id] += t
        per = {name: (calls[i], busy[i]) for i, name in enumerate(self.names)}
        out = {}
        for name, (n, t) in per.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = t
        out["chern.closed_forms.calls"] = sum(per[name][0] for name in _CHERN)
        out["chern.closed_forms.self_s"] = sum(per[name][1] for name in _CHERN)
        solve = self.names.index("rr.solve_ulrich_chern")
        chi = {self.names.index(name) for name in _CHI}
        under_solve = sum(
            1 for i, name_id in enumerate(self.name) if name_id in chi and self._has_ancestor(i, solve)
        )
        solves = per["rr.solve_ulrich_chern"][0]
        out["rr.chi_evals_per_solve"] = under_solve / solves if solves else 0.0
        render = sum(per[name][1] for name in _RENDER)
        out["report.render_share"] = render / op_seconds if op_seconds else 0.0
        out["trace.spans"] = len(self.start)
        return out

    def _has_ancestor(self, i: int, name_id: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == name_id:
                return True
            p = self.parent[p]
        return False

    def write(self, path: str) -> None:
        """Write the round's spans as gzipped TSV: name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\t{self.op_id[i]}\n"
                )


def self_times(start, end, parent) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in range(len(start))]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for c in sorted(children[i], key=start.__getitem__):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


def unused_hot(workload: str, calls: dict) -> list:
    """Span names that must have been entered on ``workload`` but were not."""
    return [name for name, hot in HOT.items() if workload in hot and calls.get(f"{name}.calls", 0) == 0]

