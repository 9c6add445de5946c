"""Closed-form corner values of the determinants behind the gradient signs.

Every determinant entering the gradient factorization is multilinear in
the adaptive player's entries, so its sign over the cube is decided at the
corners.  This module transcribes the closed-form corner values and checks
each one against direct determinant evaluation.

Legend for the context fields used in the cell expressions: ``hX`` is
1 - X, ``dpJ`` is 1 - delta*pJ, ``ddpJ`` is 1 - delta^2*pJ, ``hd`` is
1 - delta, ``hd2`` is 1 - delta^2, ``th`` is T + S, and ``tm2`` is
2 - (T + S).

Tables 1 and 2 hold for any opponent strategy; tables 3, 4, and 5
substitute the enforcer consistency relation during simplification, so
their closed forms match direct evaluation only when ``p`` is a ZD
strategy (table 5 additionally fixes p0 = p1 = 1).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import DegenerateError
from .game import PayoffParams, strategy_tuple, validate_delta
from .gradients import _minors, _q0_reduction, _reduced_det_q0, _reduced_from_r, _row_reduction
from .payoffs import _cofactors, _matrix_rows, _weigh
from .zd import NotZD, recover_zd

# Largest closed-form/direct difference that verify_tables accepts.
_TOL = 1e-12


def _ctx(p, delta: float, theta: float) -> SimpleNamespace:
    """The named quantities that the cell expressions read (see the legend)."""
    p0, p1, p2, p3, p4 = p
    d = delta
    return SimpleNamespace(
        p0=p0, p1=p1, p2=p2, p3=p3, p4=p4,
        hp0=1.0 - p0, hp1=1.0 - p1, hp2=1.0 - p2, hp3=1.0 - p3, hp4=1.0 - p4,
        dp1=1.0 - d * p1, dp2=1.0 - d * p2, dp3=1.0 - d * p3, dp4=1.0 - d * p4,
        ddp1=1.0 - d * d * p1, ddp2=1.0 - d * d * p2,
        ddp3=1.0 - d * d * p3, ddp4=1.0 - d * d * p4,
        d=d, d2=d * d, d3=d * d * d, hd=1.0 - d, hd2=1.0 - d * d,
        th=theta, tm2=2.0 - theta,
    )


# --- Table 1: the normalizer at the corners of (q1, q2, q3, q4) -------------

TABLE1 = {
    (0, 0, 0, 0): lambda c: c.dp2 + c.d * c.p4,
    (0, 0, 0, 1): lambda c: c.d2 * c.p1 * c.p4 + (1 + c.d) * c.dp2 + c.d2 * c.p3 * c.hp4,
    (0, 0, 1, 0): lambda c: c.ddp1 * c.p2 + c.hp2 * c.ddp3 + c.d * (1 + c.d) * c.p4,
    (0, 0, 1, 1): lambda c: (1 + c.d) * (1 - c.d2 * (c.p1 - c.p3) * (c.p2 - c.p4)),
    (0, 1, 0, 0): lambda c: (c.dp2 + c.d * c.p4) * (c.d * c.p3 + c.hd),
    (0, 1, 0, 1): lambda c: c.d3 * c.p1 * c.p3 + c.dp2 * (c.ddp4 + c.d * (1 + c.d) * c.p3)
    + c.d2 * c.hd * c.p1 * c.p4,
    (0, 1, 1, 0): lambda c: c.d * c.ddp1 * c.p3 + c.d * (c.ddp2 + c.d * (1 + c.d) * c.p3) * c.p4
    + c.hd * (1 - c.d2 * c.p1 * c.p2),
    (0, 1, 1, 1): lambda c: c.hd * (1 + c.d) + c.d2 * c.p1 * c.hp2
    + c.d2 * c.hp1 * c.hp4 + c.d * (1 + c.d) * c.p3,
    (1, 0, 0, 0): lambda c: c.dp1 * (c.dp2 + c.d * c.p4),
    (1, 0, 0, 1): lambda c: c.dp1 * ((1 + c.d) * c.dp2 + c.d2 * c.p3)
    + c.d2 * (c.d * c.hp2 + c.hd * c.hp3) * c.p4,
    (1, 0, 1, 0): lambda c: c.dp1 * (c.ddp3 + c.d * (1 + c.d) * c.p4)
    + c.d3 * c.p2 * c.p4 + c.d2 * c.hd * c.p2 * c.p3,
    (1, 0, 1, 1): lambda c: (1 + c.d) * c.dp1 + c.d2 * c.p2 * c.p3 + c.d2 * c.hp3 * c.p4,
    (1, 1, 0, 0): lambda c: c.hd * (c.dp2 + c.d * c.p4) * (c.dp1 + c.d * c.p3),
    (1, 1, 0, 1): lambda c: (c.dp1 + c.d * c.p3) * c.dp2,
    (1, 1, 1, 0): lambda c: (c.dp1 + c.d * c.p3) * (c.d * c.p4 + c.hd),
    (1, 1, 1, 1): lambda c: c.dp1 + c.d * c.p3,
}


# --- Table 2: sign-adjusted minors at the corners of the other four entries -
# Key: values of (q_j, j != ell) in increasing j (q0 included).
# Value: printed columns ((-1)**ell * minor_ell) for ell = 1..4.

TABLE2 = {
    (0, 0, 0, 0): (
        lambda c: 0.0,
        lambda c: 0.0,
        lambda c: c.d * c.p4 + c.hd * c.p0,
        lambda c: c.d * c.hp2 + c.hd * c.hp0,
    ),
    (0, 0, 0, 1): (
        lambda c: c.d * c.p4 * (c.d * c.hp2 + c.hd * c.hp0),
        lambda c: c.d * c.hp4 * (c.d * c.hp2 + c.hd * c.hp0),
        lambda c: c.d2 * (c.p1 * c.p4 + c.p3 * c.hp4) + c.hd2 * c.p0,
        lambda c: c.d2 * (c.hp1 * c.p2 + c.hp2 * c.hp3) + c.hd2 * c.hp0,
    ),
    (0, 0, 1, 0): (
        lambda c: c.d * c.p2 * (c.d * c.p4 + c.hd * c.p0),
        lambda c: c.d * c.hp2 * (c.d * c.p4 + c.hd * c.p0),
        lambda c: (c.d * c.p3 + c.hd) * (c.d * c.p4 + c.hd * c.p0),
        lambda c: (c.d * c.p3 + c.hd) * (c.d * c.hp2 + c.hd * c.hp0),
    ),
    (0, 0, 1, 1): (
        lambda c: c.d3 * (c.p2 * c.p3 + c.hp3 * c.p4) + c.d * c.hd2 * (c.p0 * c.p2 + c.hp0 * c.p4),
        lambda c: c.d3 * (c.p1 * c.hp2 + c.hp1 * c.hp4) + c.d * c.hd2 * (c.p0 * c.hp2 + c.hp0 * c.hp4),
        lambda c: c.d2 * c.p1 * (c.d * c.p3 + c.hd * c.p4) + c.p0 * (c.hd * c.ddp4 + c.d * c.hd2 * c.p3),
        lambda c: c.d2 * c.hp1 * (c.d * c.p3 + c.hd * c.p2) + c.hp0 * (c.hd * c.ddp2 + c.d * c.hd2 * c.p3),
    ),
    (0, 1, 0, 0): (
        lambda c: 0.0,
        lambda c: 0.0,
        lambda c: c.dp1 * (c.d * c.p4 + c.hd * c.p0),
        lambda c: c.dp1 * (c.d * c.hp2 + c.hd * c.hp0),
    ),
    (0, 1, 0, 1): (
        lambda c: c.d * (c.d * c.hp2 + c.hd * c.hp0) * (c.d * c.p3 + c.hd * c.p4),
        lambda c: c.d * (c.d * c.hp2 + c.hd * c.hp0) * (c.d * c.hp1 + c.hd * c.hp4),
        lambda c: c.d2 * c.p3 * (c.d * c.hp1 + c.hd * c.hp4) + c.p0 * (c.hd2 * c.dp1 + c.d2 * c.hd * c.p4),
        lambda c: c.d2 * c.hp3 * (c.d * c.hp1 + c.hd * c.hp2) + c.hp0 * (c.hd2 * c.dp1 + c.d2 * c.hd * c.p2),
    ),
    (0, 1, 1, 0): (
        lambda c: c.d * (c.d * c.p4 + c.hd * c.p0) * (c.d * c.p3 + c.hd * c.p2),
        lambda c: c.d * (c.d * c.p4 + c.hd * c.p0) * (c.d * c.hp1 + c.hd * c.hp2),
        lambda c: c.hd * (c.d * c.p4 + c.hd * c.p0) * (c.d * c.p3 + c.dp1),
        lambda c: c.hd * (c.d * c.hp2 + c.hd * c.hp0) * (c.d * c.p3 + c.dp1),
    ),
    (0, 1, 1, 1): (
        lambda c: c.d2 * c.p3 + c.d * c.hd * (c.p0 * c.p2 + c.hp0 * c.p4),
        lambda c: c.d2 * c.hp1 + c.d * c.hd * (c.hp0 * c.hp4 + c.p0 * c.hp2),
        lambda c: c.hd * c.p0 * (c.dp1 + c.d * c.p3),
        lambda c: c.hd * c.hp0 * (c.dp1 + c.d * c.p3),
    ),
    (1, 0, 0, 0): (
        lambda c: c.hd * c.p0 * (c.dp2 + c.d * c.p4),
        lambda c: c.hd * c.hp0 * (c.dp2 + c.d * c.p4),
        lambda c: c.d2 * c.p4 + c.d * c.hd * (c.hp0 * c.p3 + c.p0 * c.p1),
        lambda c: c.d2 * c.hp2 + c.d * c.hd * (c.hp0 * c.hp3 + c.p0 * c.hp1),
    ),
    (1, 0, 0, 1): (
        lambda c: c.d2 * c.p4 * (c.d * c.hp2 + c.hd * c.hp3) + c.p0 * (c.hd2 * c.dp2 + c.d2 * c.hd * c.p3),
        lambda c: c.d2 * c.hp4 * (c.d * c.hp2 + c.hd * c.hp1) + c.hp0 * (c.hd2 * c.dp2 + c.d2 * c.hd * c.p1),
        lambda c: c.d3 * (c.p1 * c.p4 + c.p3 * c.hp4) + c.d * c.hd2 * (c.p0 * c.p1 + c.hp0 * c.p3),
        lambda c: c.d3 * (c.hp1 * c.p2 + c.hp2 * c.hp3) + c.d * c.hd2 * (c.p0 * c.hp1 + c.hp0 * c.hp3),
    ),
    (1, 0, 1, 0): (
        lambda c: c.d2 * c.p2 * (c.d * c.p4 + c.hd * c.p3) + c.p0 * (c.hd * c.ddp3 + c.d * c.hd2 * c.p4),
        lambda c: c.d2 * c.hp2 * (c.d * c.p4 + c.hd * c.p1) + c.hp0 * (c.hd * c.ddp1 + c.d * c.hd2 * c.p4),
        lambda c: c.d * (c.d * c.p4 + c.hd * c.p1) * (c.d * c.p3 + c.hd * c.p0),
        lambda c: c.d * (c.d * c.hp2 + c.hd * c.hp1) * (c.d * c.p3 + c.hd * c.p0),
    ),
    (1, 0, 1, 1): (
        lambda c: c.d2 * (c.hp3 * c.p4 + c.p2 * c.p3) + c.hd2 * c.p0,
        lambda c: c.d2 * (c.hp1 * c.hp4 + c.p1 * c.hp2) + c.hd2 * c.hp0,
        lambda c: c.d2 * c.p1 * c.p3 + c.d * c.hd * c.p0 * c.p1,
        lambda c: c.d2 * c.hp1 * c.p3 + c.d * c.hd * c.p0 * c.hp1,
    ),
    (1, 1, 0, 0): (
        lambda c: c.hd * (c.d * c.p3 + c.hd * c.p0) * (c.d * c.p4 + c.dp2),
        lambda c: c.hd * (c.d * c.hp1 + c.hd * c.hp0) * (c.d * c.p4 + c.dp2),
        lambda c: c.d * (c.d * c.hp1 + c.hd * c.hp0) * (c.d * c.p4 + c.hd * c.p3),
        lambda c: c.d * (c.d * c.hp1 + c.hd * c.hp0) * (c.d * c.hp2 + c.hd * c.hp3),
    ),
    (1, 1, 0, 1): (
        lambda c: c.dp2 * (c.d * c.p3 + c.hd * c.p0),
        lambda c: c.dp2 * (c.d * c.hp1 + c.hd * c.hp0),
        lambda c: c.d * c.p3 * (c.d * c.hp1 + c.hd * c.hp0),
        lambda c: c.d * c.hp3 * (c.d * c.hp1 + c.hd * c.hp0),
    ),
    (1, 1, 1, 0): (
        lambda c: (c.d * c.p3 + c.hd * c.p0) * (c.d * c.p4 + c.hd),
        lambda c: (c.d * c.hp1 + c.hd * c.hp0) * (c.d * c.p4 + c.hd),
        lambda c: 0.0,
        lambda c: 0.0,
    ),
    (1, 1, 1, 1): (
        lambda c: c.d * c.p3 + c.hd * c.p0,
        lambda c: c.d * c.hp1 + c.hd * c.hp0,
        lambda c: 0.0,
        lambda c: 0.0,
    ),
}


# --- Table 3: sign-adjusted reduced determinants at the corners of the
# three conditional entries other than ell (first-round entry drops out).

TABLE3 = {
    (0, 0, 0): (
        lambda c: c.p1 + c.th * c.hp1,
        lambda c: c.p3 + c.th * c.hp3,
        lambda c: c.p2 + c.th * c.hp2,
        lambda c: c.p4 + c.th * c.hp4,
    ),
    (0, 0, 1): (
        lambda c: c.tm2 * c.p1 + c.d * c.hp3 + c.d * (c.p1 - c.p2) + c.hd * c.hp1,
        lambda c: c.p3 + c.th * c.hp3 + c.d * c.tm2 * (c.p3 - c.p4),
        lambda c: c.tm2 * c.p2 + c.d * c.hp3 + c.d * c.th * (c.p1 - c.p2) + c.hd * c.hp2,
        lambda c: c.d * c.p2 + c.th * c.hp4 + c.hd * c.p4,
    ),
    (0, 1, 0): (
        lambda c: c.th * c.hp1 + c.d * c.p2 + c.hd * c.p1,
        lambda c: c.d * c.p2 + c.th * c.hp3 + c.hd * c.p3,
        lambda c: c.th * c.hp2 + c.d * c.p3 + c.hd * c.p2,
        lambda c: c.d * c.p3 + c.th * c.hp4 + c.hd * c.p4,
    ),
    (0, 1, 1): (
        lambda c: c.tm2 * c.p1 + c.d * c.hp3 + c.hd * c.hp1,
        lambda c: c.d * c.p2 + c.th * c.hp3 + c.hd * c.p3 + c.d * c.tm2 * (c.p3 - c.p4),
        lambda c: c.hp2 + c.tm2 * c.p2 + c.d * c.th * (c.p1 - c.p2),
        lambda c: c.d * c.p2 + c.th * c.hp3 + (c.d + c.th) * (c.p3 - c.p4) + c.hd * c.p4,
    ),
    (1, 0, 0): (
        lambda c: c.th * c.hp1 + c.d * c.p3 + c.hd * c.p1,
        lambda c: c.d * c.th * c.hp1 + c.p3 + c.hd * c.th * c.hp3,
        lambda c: c.d * c.th * c.hp1 + c.p2 + c.hd * c.th * c.hp2,
        lambda c: c.d * c.th * c.hp1 + c.p4 + c.hd * c.th * c.hp4,
    ),
    (1, 0, 1): (
        lambda c: c.tm2 * c.p1 + c.d * c.hp2 + c.hd * c.hp1,
        lambda c: c.d * c.hp2 + c.tm2 * c.p3 + c.hd * c.hp3,
        lambda c: c.tm2 * c.p2 + c.d * c.hp3 + c.hd * c.hp2,
        lambda c: c.d * c.th * c.hp1 + c.d * c.p2 + c.hd * c.th * c.hp4 + c.hd * c.p4,
    ),
    (1, 1, 0): (
        lambda c: c.hp1 + c.d * c.tm2 * c.p4 + c.hd * c.tm2 * c.p1,
        lambda c: c.hp3 + c.d * c.tm2 * c.p4 + c.hd * c.tm2 * c.p3,
        lambda c: c.hp2 + c.d * c.tm2 * c.p4 + c.hd * c.tm2 * c.p2,
        lambda c: c.d * c.hp2 + c.tm2 * c.p4 + c.hd * c.hp4,
    ),
    (1, 1, 1): (
        lambda c: c.hp1 + c.tm2 * c.p1,
        lambda c: c.hp3 + c.tm2 * c.p3,
        lambda c: c.hp2 + c.tm2 * c.p2,
        lambda c: c.hp4 + c.tm2 * c.p4,
    ),
}


# --- Table 4: first-round reduced determinant at the corners of
# (q1, q2, q3, q4); valid when p is a ZD strategy.

TABLE4 = {
    (0, 0, 0, 0): lambda c: c.p0 + c.th * c.hp0,
    (0, 0, 0, 1): lambda c: c.d * (c.th - 1.0) * c.p1 + c.d * (c.p1 - c.p2) + c.dp3
    + (1.0 - c.th + c.d * c.tm2) * c.p0,
    (0, 0, 1, 0): lambda c: c.d * c.p2 + c.th * c.hp0 + c.hd * c.p0,
    (0, 0, 1, 1): lambda c: c.d * c.th * c.p1 + c.dp3 + (1 + c.d) * (1.0 - c.th) * c.p0,
    (0, 1, 0, 0): lambda c: c.d * c.p3 + c.th * c.hp0 + c.hd * c.p0,
    (0, 1, 0, 1): lambda c: c.d * c.th * c.p1 + c.dp2 + (1 + c.d) * (1.0 - c.th) * c.p0,
    (0, 1, 1, 0): lambda c: c.th + c.d * c.p2 + c.d * c.p3 + (1.0 - 2.0 * c.d - c.th) * c.p0,
    (0, 1, 1, 1): lambda c: 1.0 + c.d * c.th * c.p1 + (1.0 - (1 + c.d) * c.th) * c.p0,
    (1, 0, 0, 0): lambda c: c.th * (c.hd * c.hp0 + c.d * c.hp1) + c.p0,
    (1, 0, 0, 1): lambda c: c.tm2 * c.p0 + c.d * (c.hp2 + c.hp3) + (1.0 - 2.0 * c.d) * c.hp0,
    (1, 0, 1, 0): lambda c: c.tm2 * (c.hd * c.p0 + c.d * c.p4) + c.hd * c.hp0 + c.d * c.hp3,
    (1, 0, 1, 1): lambda c: c.tm2 * c.p0 + c.hd * c.hp0 + c.d * c.hp3,
    (1, 1, 0, 0): lambda c: c.th * (c.hd * c.hp0 + c.d * c.hp1) + c.hd * c.p0 + c.d * c.p3,
    (1, 1, 0, 1): lambda c: c.tm2 * c.p0 + c.hd * c.hp0 + c.d * c.hp2,
    (1, 1, 1, 0): lambda c: c.tm2 * (c.hd * c.p0 + c.d * c.p4) + c.hp0,
    (1, 1, 1, 1): lambda c: c.tm2 * c.p0 + c.hp0,
}


# --- Table 5: first-round reduced determinant at the corners of
# (q2, q3, q4) with q1 = 1, for ZD p with p0 = p1 = 1.  Every cell is
# positive because 0 < theta < 2.

TABLE5 = {
    (0, 0, 0): lambda c: c.tm2 * (c.hd + c.d * c.p4) + c.d * (c.hp2 + c.hp3),
    (0, 0, 1): lambda c: c.tm2 + c.d * c.hp2 + c.d * c.hp3,
    (0, 1, 0): lambda c: c.tm2 * (c.hd + c.d * c.p4) + c.d * c.hp3,
    (0, 1, 1): lambda c: c.tm2 + c.d * c.hp3,
    (1, 0, 0): lambda c: c.tm2 * (c.hd + c.d * c.p4) + c.d * c.hp2,
    (1, 0, 1): lambda c: c.tm2 + c.d * c.hp2,
    (1, 1, 0): lambda c: c.tm2 * (c.hd + c.d * c.p4),
    (1, 1, 1): lambda c: c.tm2,
}


class CellReport(NamedTuple):
    table: str
    corner: tuple
    column: str
    closed: float
    direct: float
    diff: float

    def label(self) -> str:
        corner = "(" + ",".join(str(v) for v in self.corner) + ")"
        return f"{self.table} {corner} {self.column}"


def _cells(which: str) -> dict:
    # looked up per call, so that a replaced TABLEn is the one checked
    return {"1": TABLE1, "2": TABLE2, "3": TABLE3, "4": TABLE4, "5": TABLE5}[which]


def corner_table(which: str, p, delta, params: PayoffParams) -> dict:
    """Closed-form values of one table, keyed by corner tuple.

    ``which`` is one of "1".."5".  Tables 1 and 4/5 map corner -> value;
    tables 2 and 3 map corner -> 4-tuple of the printed signed columns.
    """
    c = _ctx(strategy_tuple(p), validate_delta(delta), params.theta)
    out = {}
    for corner, cell in _cells(which).items():
        if isinstance(cell, tuple):
            out[corner] = tuple(f(c) for f in cell)
        else:
            out[corner] = cell(c)
    return out


def _from_cofactors(pt, qt, delta, theta, ell):
    """The normalizer for ell = 0, else the minor dropping row ell."""
    c = _cofactors(_matrix_rows(pt, qt, delta))
    return _weigh(c, (1.0, 1.0, 1.0, 1.0)) if ell == 0 else _minors(c)[ell - 1]


def _reduced(pt, qt, delta, theta, ell):
    """The reduced determinant of entry ell; ell = 0 is the first round."""
    if ell == 0:
        return _reduced_det_q0(_q0_reduction(pt, qt, delta), theta)
    return _reduced_from_r(_row_reduction(_matrix_rows(pt, qt, delta), pt, ell), ell, theta)


class _Spec(NamedTuple):
    """How one table's cells are checked: the cell of column ``ell`` (0 in
    a one-column table) at ``corner`` against ``(-1)**ell`` times
    ``direct(p, place(corner, ell), delta, theta, ell)``."""

    place: object  # (corner k of floats, ell) -> q
    column: str  # column name, formatted with ell
    direct: object


_SPECS = {
    "1": _Spec(lambda k, ell: (0.5, *k), "D", _from_cofactors),
    # the corner holds (q_j, j != ell) in increasing j, q0 included
    "2": _Spec(lambda k, ell: (*k[:ell], 0.5, *k[ell:]), "M{ell}", _from_cofactors),
    # a free q0, and a free q_ell placed among q1..q4
    "3": _Spec(lambda k, ell: (0.3, *k[:ell - 1], 0.7, *k[ell - 1:]), "d{ell}", _reduced),
    "4": _Spec(lambda k, ell: (0.3, *k), "d0", _reduced),
    "5": _Spec(lambda k, ell: (0.3, 1.0, *k), "d0", _reduced),
}


def _report(which: str, pt, delta, theta: float) -> list[CellReport]:
    """One table's cells, on a coerced ``pt`` and ``delta``: floats, or
    arrays with one element per strategy, whose cells then hold arrays (a
    constant closed form stays one float).

    Each column's direct values come from one pass over all the corners:
    their placed q entries are ``(corners, 1)`` arrays, which broadcast
    against the entries of ``pt``, so that row i holds, element by
    element, what a pass at corner i alone gives."""
    spec = _SPECS[which]
    c = _ctx(pt, delta, theta)
    table = f"Table {which}"
    cells = _cells(which)
    corners = sorted(cells)
    at = [tuple(float(v) for v in corner) for corner in corners]
    ells = range(1, 5) if isinstance(cells[corners[0]], tuple) else (0,)
    direct = {}
    for ell in ells:
        q = [np.array(v).reshape(-1, 1) for v in zip(*(spec.place(k, ell) for k in at))]
        values = spec.direct(pt, q, delta, theta, ell)
        signed = values if ell % 2 == 0 else -values
        # one float per corner on floats, one row per corner on arrays
        direct[ell] = signed[:, 0].tolist() if np.ndim(delta) == 0 else list(signed)
    out = []
    for i, corner in enumerate(corners):
        forms = cells[corner]
        for ell, form in (enumerate(forms, 1) if isinstance(forms, tuple) else [(0, forms)]):
            closed = form(c)
            signed = direct[ell][i]
            out.append(CellReport(table, corner, spec.column.format(ell=ell), closed, signed,
                                  abs(closed - signed)))
    return out


def applicable_tables(p, delta, params: PayoffParams) -> tuple[str, ...]:
    """Tables whose closed forms are exact for this ``p``.

    Tables 3, 4, and 5 substitute the enforcer consistency relation, so
    they apply only to ZD strategies; table 5 further needs p0 = p1 = 1.
    """
    pt, delta = strategy_tuple(p), validate_delta(delta)
    tables = ["1", "2"]
    try:
        recovered = recover_zd(pt, delta, params)
    except (DegenerateError, np.linalg.LinAlgError):
        recovered = NotZD(residual=float("inf"))
    if not isinstance(recovered, NotZD):
        tables.extend(["3", "4"])
        if abs(pt[0] - 1.0) <= 1e-12 and abs(pt[1] - 1.0) <= 1e-12:
            tables.append("5")
    return tuple(tables)


def table_report(p, delta, params: PayoffParams, tables=None) -> list[CellReport]:
    """Per-cell comparison of closed forms against direct determinant values."""
    pt = strategy_tuple(p)
    delta = validate_delta(delta)
    if tables is None:
        tables = applicable_tables(pt, delta, params)
    return [r for t in tables for r in _report(str(t), pt, delta, params.theta)]


def verify_tables(p, delta, params: PayoffParams, tables=None) -> list[CellReport]:
    """Return the cells whose closed form and direct value differ by more
    than ``_TOL`` (1e-12), or by an amount that is not finite."""
    return [r for r in table_report(p, delta, params, tables) if not r.diff <= _TOL]
