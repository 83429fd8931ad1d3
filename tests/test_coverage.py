"""Decision coverage: how often the engine decides, pinned cell by cell.

A cell is *obstructed* if some verdict row prints ``not-k-normal`` for
some k, *positive* if a ``positive`` row fires, and *undecided* otherwise;
a ``not-strongly-2-normal`` row alone leaves a cell undecided, since
strong 2-normality is not needed for projective normality.  The tallies
are taken through the public entry points, over the parity-valid cells
``2 <= d <= 40, r <= 16`` of each hypersurface check and over every curve
cell ``g <= 60, d <= 120`` that a curve can have (``2g <= (d-1)(d-2)``).
A change that moves a tally updates the pinned numbers here and says why.
"""

import re
from collections import Counter

from projnorm.cli import check_surface_hyp, check_threefold_hyp
from projnorm.normality import POSITIVE, CurveCase, curve_verdicts
from projnorm.rr import parity_ok

_OBSTRUCTED = re.compile(r"not-\d+-normal")


def _decision(statuses) -> str:
    if any(_OBSTRUCTED.fullmatch(s) for s in statuses):
        return "obstructed"
    return "positive" if POSITIVE in statuses else "undecided"


def _hypersurface_statuses(check):
    """Each parity-valid cell's verdict rows, as ``{rule: status}``."""
    for d in range(2, 41):
        for r in range(1, 17):
            if parity_ok(r, d):
                yield {row.params[1]: row.values[0] for row in check(d, r).rows if row.params[0] == "verdict"}


def test_p3_tallies():
    cells = list(_hypersurface_statuses(check_surface_hyp))
    assert len(cells) == 464
    assert Counter(_decision(c.values()) for c in cells) == {"obstructed": 442, "positive": 3, "undecided": 19}


def test_p4_tallies():
    cells = list(_hypersurface_statuses(check_threefold_hyp))
    assert len(cells) == 464
    assert Counter(_decision(c.values()) for c in cells) == {"obstructed": 214, "positive": 1, "undecided": 249}
    # the plain 2-count alone
    assert Counter(_decision([c["2-normality-count"]]) for c in cells) == {"obstructed": 214, "undecided": 250}


def test_curve_tallies():
    tally, mrc_only = Counter(), 0
    for g in range(61):
        for d in range(1, 121):
            if 2 * g <= (d - 1) * (d - 2):
                verdicts = curve_verdicts(CurveCase(g, d))
                tally[_decision([v.status_label for v in verdicts])] += 1
                mrc_only += [v.rule for v in verdicts if v.status == POSITIVE] == ["mrc-count"]
    assert tally == {"positive": 6819, "undecided": 1}
    assert mrc_only == 1124
