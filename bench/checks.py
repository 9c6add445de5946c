"""Checks of zdgame's output files, computed apart from the program.

Nothing here imports zdgame.  Payoffs come from a numpy solve of the
resolvent ``(I - delta*M)^T w = v0``, gradients from differences of those
payoffs, and seeded draws from numpy's own generators.  Each check returns
plain data, so the benchmark can count a path or property that fails a
check as a failed operation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

# A path ends in unconditional cooperation when q0, q1, q2 reach 1 within this.
T1_TOL = 1e-6
# The ascent stops once nu*|gradient| < 1e-12, so an interior entry of the
# endpoint has |gradient| < 1e-11; the central differences below carry about
# 1e-11 of rounding, so 1e-9 separates "vanished" from a live gradient.
GRAD_TOL = 1e-9
DIFF_STEP = 1e-4
# Payoff pairs of a ZD opponent lie on s_X - kappa = chi*(s_Y - kappa).
ZD_LINE_TOL = 1e-9
ZD_OPPONENTS = 200


# --- numpy payoffs -----------------------------------------------------------

def transition(p, q) -> np.ndarray:
    """One-round transition matrix over (CC, CD, DC, DD), X's action first.

    Y's entries are owner-perspective, so state CD uses q3 and DC uses q2.
    """
    x = np.array([p[1], p[2], p[3], p[4]], dtype=float)
    y = np.array([q[1], q[3], q[2], q[4]], dtype=float)
    return np.stack([x * y, x * (1 - y), (1 - x) * y, (1 - x) * (1 - y)], axis=1)


def payoffs(p, q, delta, T, S) -> tuple[float, float]:
    """Discounted average payoffs (s_X, s_Y) from the resolvent solve."""
    v0 = np.array([p[0] * q[0], p[0] * (1 - q[0]), (1 - p[0]) * q[0], (1 - p[0]) * (1 - q[0])])
    w = (1 - delta) * np.linalg.solve((np.eye(4) - delta * transition(p, q)).T, v0)
    return float(w @ np.array([1.0, S, T, 0.0])), float(w @ np.array([1.0, T, S, 0.0]))


def gradient_y(p, q, delta, T, S, h=DIFF_STEP) -> np.ndarray:
    """Central differences of s_Y in each entry of q.

    s_Y is linear in q0 and a ratio of linear functions in q1..q4, so the
    difference has the sign of the derivative and vanishes with it.
    """
    g = np.empty(5)
    for j in range(5):
        plus, minus = list(q), list(q)
        plus[j] += h
        minus[j] -= h
        g[j] = (payoffs(p, plus, delta, T, S)[1] - payoffs(p, minus, delta, T, S)[1]) / (2 * h)
    return g


def is_stationary(p, q, delta, T, S) -> bool:
    """True when no entry of q can move under the clamped ascent."""
    g = gradient_y(p, q, delta, T, S)
    for qj, gj in zip(q, g):
        if abs(gj) <= GRAD_TOL:
            continue
        if qj == 1.0 and gj > 0.0:
            continue
        if qj == 0.0 and gj < 0.0:
            continue
        return False
    return True


def zd_line(p, delta, T, S):
    """Solve the enforcer equations for (phi, chi, kappa) by least squares.

    p~ = (delta*p1 - 1 + (1-delta)*p0, delta*p2 - 1 + (1-delta)*p0,
    delta*p3 + (1-delta)*p0, delta*p4 + (1-delta)*p0) must equal
    alpha*S_X + beta*S_Y + gamma*1; then chi = -beta/alpha and
    kappa = -gamma/(alpha + beta).  Returns (phi, chi, kappa, residual).
    """
    base = (1 - delta) * p[0]
    target = np.array([delta * p[1] - 1 + base, delta * p[2] - 1 + base,
                       delta * p[3] + base, delta * p[4] + base])
    a = np.array([[1.0, 1.0, 1.0], [S, T, 1.0], [T, S, 1.0], [0.0, 0.0, 1.0]])
    (alpha, beta, gamma), *_ = np.linalg.lstsq(a, target, rcond=None)
    residual = float(np.max(np.abs(a @ np.array([alpha, beta, gamma]) - target)))
    return alpha, -beta / alpha, -gamma / (alpha + beta), residual


def zd_line_holds(p, delta, T, S, rng, n=ZD_OPPONENTS) -> bool:
    """The opponent p enforces a line of slope chi >= 1 through (kappa, kappa)
    on ``n`` random opponents drawn from ``rng``."""
    phi, chi, kappa, _ = zd_line(p, delta, T, S)
    if not (phi > 0 and chi >= 1):
        return False
    for q in rng.random((n, 5)):
        s_x, s_y = payoffs(p, q, delta, T, S)
        if abs((s_x - kappa) - chi * (s_y - kappa)) > ZD_LINE_TOL * max(1.0, chi):
            return False
    return True


def initial_strategy(seed: int, index: int) -> list[float]:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    return [float(v) for v in rng.random(5)]


# --- sweep -------------------------------------------------------------------

@dataclass
class SweepCheck:
    failed: list[int] = field(default_factory=list)
    steps: int = 0
    problems: list[str] = field(default_factory=list)  # malformed output: not correct


def check_sweep(text: str, seed: int, n_paths: int, p, delta, T, S, rng) -> SweepCheck:
    """Check a sweep CSV: every row's initial strategy, T1 endpoint and
    stationarity, the opponent's ZD line, and the trailing aggregate."""
    out = SweepCheck()
    lines = text.splitlines()
    header = ("path,seed,init_q0,init_q1,init_q2,init_q3,init_q4,"
              "final_q0,final_q1,final_q2,final_q3,final_q4,class,steps")
    if not lines or lines[0] != header:
        out.problems.append("missing sweep header")
        out.failed = list(range(n_paths))
        return out
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    trailer = [ln for ln in lines[1:] if ln.startswith("#")]
    if [r[0] for r in rows] != [str(i) for i in range(n_paths)]:
        out.problems.append(f"expected paths 0..{n_paths - 1}, got {len(rows)} rows")
    zd_ok = zd_line_holds(p, delta, T, S, rng)
    classes = {"T1": 0, "T2": 0, "OTHER": 0}
    for i in range(n_paths):
        row = rows[i] if i < len(rows) else None
        if row is None or len(row) != 14 or row[1] != str(seed):
            out.failed.append(i)
            continue
        try:
            init = [float(v) for v in row[2:7]]
            final = [float(v) for v in row[7:12]]
            tag, steps = row[12], int(row[13])
        except ValueError:
            out.failed.append(i)
            continue
        classes[tag] = classes.get(tag, 0) + 1
        out.steps += steps
        t1 = all(v >= 1 - T1_TOL for v in final[:3])
        ok = (
            zd_ok
            and init == initial_strategy(seed, i)
            and t1
            and tag == "T1"
            and is_stationary(p, final, delta, T, S)
        )
        if not ok:
            out.failed.append(i)
    expected = "# " + ", ".join(f"{k}: {v}" for k, v in classes.items())
    if trailer != [expected]:
        out.problems.append(f"aggregate {trailer} does not match the class column ({expected})")
    return out


# --- verify ------------------------------------------------------------------

# (name, sample count at scale 1, comparison, threshold).  corner-tables
# counts cells: 232 per draw, from tables 1-2 on a random p, 1-4 on a pcZD p
# and 4-5 on a pcZD p with p0 = p1 = 1.
VERIFY_PROPERTIES = (
    ("normalizer-positive", 100_000, ">", 1e-12),
    ("regularity-identity", 10_000, "<", 1e-10),
    ("oracle-triangle", 1_000, "<", 1e-8),
    ("zd-linear-relation", 1_000, "<", 1e-9),
    ("factorization-match", 10_000, "<", 1e-9),
    ("gradient-nonnegative", 10_000, ">=", -1e-12),
    ("corner-tables", 100, "<", 1e-12),
    ("fd-analytic-match", 1_000, "<", 1e-7),
)
CORNER_CELLS_PER_DRAW = 232
# Random draws of the seven property functions at scale 1, one per sample;
# factorization-match and gradient-nonnegative share one stream of draws.
VERIFY_DRAWS = 100_000 + 10_000 + 1_000 + 1_000 + 10_000 + 100 + 1_000

_LINE = re.compile(
    r"^(PASS|FAIL) (\S+) samples=(\d+) worst=(\S+) \(required (>=|>|<) (\S+)\)$"
)
_COMPARE = {">": float.__gt__, ">=": float.__ge__, "<": float.__lt__}


def expected_samples(name: str, base: int, scale: float) -> int:
    if name == "oracle-triangle":
        return max(2, int(base * scale))
    if name == "corner-tables":
        return max(1, int(base * scale)) * CORNER_CELLS_PER_DRAW
    return max(1, int(base * scale))


def normalizer_minimum(seed: int, scale: float) -> float:
    """Smallest det(I - delta*M)/(1 - delta) over normalizer-positive's draws.

    The property draws p = random(5), q = random(5), delta = uniform(0.01,
    0.99) in turn from stream (seed, 1); those are 11 consecutive doubles of
    the generator, so one block draw reproduces them.
    """
    n = max(1, int(100_000 * scale))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    u = rng.random((n, 11))
    p, q = u[:, :5], u[:, 5:10]
    d = 0.01 + (0.99 - 0.01) * u[:, 10]
    x = p[:, 1:5]
    y = q[:, [1, 3, 2, 4]]
    m = np.stack([x * y, x * (1 - y), (1 - x) * y, (1 - x) * (1 - y)], axis=2)
    dets = np.linalg.det(np.eye(4) - d[:, None, None] * m) / (1 - d)
    return float(dets.min())


@dataclass
class VerifyCheck:
    failed: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def check_verify(text: str, exit_code: int, seed: int, scale: float) -> VerifyCheck:
    """Check the verify report: all eight properties with their sample counts,
    verdicts that follow from worst and threshold, the recomputed
    normalizer minimum, and an exit code and summary that match."""
    out = VerifyCheck()
    found = {}
    for line in text.splitlines():
        m = _LINE.match(line)
        if m:
            found[m.group(2)] = m.groups()
    for name, base, comparison, threshold in VERIFY_PROPERTIES:
        if name not in found:
            out.failed.append(name)
            continue
        status, _, samples, worst, cmp_text, thr_text = found[name]
        try:
            worst_v, thr_v = float(worst), float(thr_text)
        except ValueError:
            out.failed.append(name)
            continue
        ok = (
            status == "PASS"
            and int(samples) == expected_samples(name, base, scale)
            and cmp_text == comparison
            and thr_v == threshold
            and _COMPARE[comparison](worst_v, thr_v)
        )
        if ok and name == "normalizer-positive":
            ok = abs(normalizer_minimum(seed, scale) - worst_v) <= 5.01e-4 * abs(worst_v)
        if not ok:
            out.failed.append(name)
    reported = {n for n, g in found.items() if g[0] == "FAIL"}
    last = text.rstrip("\n").rsplit("\n", 1)[-1]
    summary = f"FAILED: {', '.join(n for n, *_ in VERIFY_PROPERTIES if n in reported)}"
    if reported:
        if last != summary or exit_code != 3:
            out.problems.append(f"summary {last!r} or exit code {exit_code} disagrees with FAIL lines")
    elif last != "all properties passed" or exit_code != 0:
        out.problems.append(f"summary {last!r} or exit code {exit_code} disagrees with PASS lines")
    return out
