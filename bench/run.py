"""Benchmark of the zdgame command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--workload-seed K]

Each workload is a closed batch job: one ``zdgame.cli.main`` call in a
fresh interpreter, run one at a time from this single process, with
``--workers`` left at 1.  A run repeats the call (a round) for as many
whole rounds as fit in S seconds, at least one, and checks every round's
output with ``checks.py``, which computes its references apart from the
program.  Bare imports of ``zdgame.cli`` before and between the rounds,
together with the rounds' own starts, are the set-up samples.  The last
line of standard output is one JSON object: the end-to-end metrics
(medians over the run) with ``--trace 0``; with ``--trace 1`` one more,
traced round gives the per-layer metrics.

The program's inputs are pinned per workload (sweep seed 2024, verify
seed 0; see README.md for why); ``--workload-seed`` reruns a workload on
another seed.  ``--seed`` seeds the benchmark's own draws, the random
opponents on which the ZD-line check is made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from layertrace import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_STARTS = 3
DEADLINE_S = 170.0  # a run must end within 180 s


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _p_text(p) -> str:
    return ",".join(format(v, ".17g") for v in p)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sweep" or "verify"
    T: float
    S: float
    seed: int
    delta: float = 0.0
    p: tuple = ()
    n_paths: int = 0
    gradient: str | None = None  # None keeps the CLI's finite-difference default

    def cli_args(self, seed: int, out: Path) -> list[str]:
        args = [self.command, "--T", repr(self.T), "--S", repr(self.S), "--seed", str(seed)]
        if self.command == "sweep":
            args += ["--delta", repr(self.delta), "--p", _p_text(self.p),
                     "--n-paths", str(self.n_paths)]
            if self.gradient:
                args += ["--gradient", self.gradient]
        else:
            args += ["--sample-scale", "1"]
        return args + ["--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline sweep (acceptance C11) against the Fig. 3 enforcer.
        Workload("sweep-main-fd", "sweep", 1.5, -0.5, 2024, delta=0.99,
                 p=(0.0, 0.75, 0.25, 0.5, 0.0), n_paths=100),
        # Heavy-tailed path lengths against the exact pcZD point; the first 40
        # paths of seed 2024 include path 29, the longest of the 100.
        Workload("sweep-wide-analytic", "sweep", 2.0, -0.1, 2024, delta=0.51,
                 p=(0.75, 1.0, 0.0, 0.069 / 0.51, 0.0), n_paths=40, gradient="analytic"),
        # The README's verify command; fd-analytic-match fails on it every time.
        Workload("verify-seed0", "verify", 1.5, -0.5, 0),
    )
}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts the child interpreters of one run, each within the run's deadline."""

    def __init__(self):
        self.deadline = clock() + DEADLINE_S
        self.result = OUT / "child.json"

    def child(self, cli_args=(), trace_path=None) -> dict:
        timeout = self.deadline - clock()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        self.result.unlink(missing_ok=True)
        start = clock()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(self.result),
                 str(trace_path) if trace_path else "-", *cli_args],
                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("child interpreter overran the run deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"child interpreter failed:\n{proc.stderr[-2000:]}")
        data = json.loads(self.result.read_text())
        data["setup_s"] = data["imported_at"] - start
        return data


@dataclass
class Round:
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    work: int  # ascent steps, or random draws for verify
    ops: int
    failed: int
    problems: list
    sha256: str
    out_bytes: int


def run_round(runner: Runner, w: Workload, seed: int, rng, trace_path=None) -> Round:
    out = OUT / f"{w.name}.out"
    out.unlink(missing_ok=True)
    data = runner.child(w.cli_args(seed, out), trace_path)
    raw = out.read_bytes() if out.exists() else b""
    text = raw.decode()
    code = data["exit_code"]
    if w.command == "sweep":
        c = checks.check_sweep(text, seed, w.n_paths, w.p, w.delta, w.T, w.S, rng)
        problems = list(c.problems)
        if code not in (0, 2) or (code == 2 and not c.failed):
            problems.append(f"sweep exit code {code} disagrees with its rows")
        ops, failed, work = w.n_paths, len(c.failed), c.steps
    else:
        c = checks.check_verify(text, code, seed, 1.0)
        problems = list(c.problems)
        ops, failed = len(checks.VERIFY_PROPERTIES), len(c.failed)
        work = checks.VERIFY_DRAWS
    return Round(data["wall_s"], data["setup_s"], data["peak_rss_mb"], work, ops, failed,
                 problems, hashlib.sha256(raw).hexdigest(), len(raw))


def layer_metrics(trace: dict, traced: Round, untraced_wall: float, w: Workload) -> dict:
    funcs = {f["name"]: f for f in trace["functions"]}

    def calls(*names):
        return sum(funcs[n]["calls"] for n in names if n in funcs)

    out = {}
    for layer in LAYERS:
        mine = [f for n, f in funcs.items() if n.split(".")[0] == layer]
        name = layer.lstrip("_")  # metric names start with a letter
        out[f"{name}.calls"] = (sum(f["calls"] for f in mine), "count")
        out[f"{name}.self_s"] = (sum(f["self_s"] for f in mine), "s")
    steps = traced.work if w.command == "sweep" else 0
    paths = w.n_paths if w.command == "sweep" else 0

    def per_step(n):
        return n / steps if steps else 0.0

    evals = calls("payoffs._cofactors")
    draws = sum(e["calls"] for e in trace["edges"]
                if e["caller"] == "zd.sample_pczd" and e["callee"] == "zd.feasible_phi_interval")
    accepted = calls("zd.sample_pczd") - funcs.get("zd.sample_pczd", {}).get("raised", 0)
    out.update({
        "payoffs.evals": (evals, "count"),
        "payoffs.evals_per_step": (per_step(evals), "count"),
        "linalg.det3_calls": (calls("_linalg.det3"), "count"),
        "gradients.evals": (calls("gradients.gradient_quotient", "gradients.gradient_factorized"),
                            "count"),
        "linalg.det4_calls": (calls("_linalg.det4"), "count"),
        "game.coercions_per_step": (per_step(calls("game.strategy_tuple", "game.validate_delta")),
                                    "count"),
        "adaptive.steps": (steps, "count"),
        "adaptive.paths": (paths, "count"),
        "adaptive.us_per_step": (per_step(untraced_wall * 1e6), "us"),
        "adaptive.recorded_points": (trace["made"].get("adaptive.PathStep", 0), "count"),
        "zd.draws": (draws, "count"),
        "zd.accept_ratio": (accepted / draws if draws else 0.0, "ratio"),
        "tables.cells": (trace["made"].get("tables.CellReport", 0), "count"),
    })
    for prop in ("normalizer_positive", "regularity_identity", "oracle_triangle",
                 "zd_linear_relation", "factorization_and_signs", "corner_tables",
                 "fd_analytic_match"):
        out[f"verify.{prop}.s"] = (funcs.get(f"verify._{prop}", {}).get("total_s", 0.0), "s")
    out["cli.out_bytes"] = (traced.out_bytes, "bytes")
    out["trace.overhead_s"] = (traced.wall_s - untraced_wall, "s")
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="seed of the benchmark's own draws")
    ap.add_argument("--seconds", type=float, default=10.0, help="how long to repeat the call")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload-seed", type=int, default=None,
                    help="seed passed to zdgame (default: the workload's pinned seed)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "zdgame" / "cli.py").is_file():
        print(f"error: no zdgame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    seed = w.seed if args.workload_seed is None else args.workload_seed
    rng = np.random.default_rng(args.seed)
    OUT.mkdir(exist_ok=True)
    runner = Runner()
    try:
        runner.child()  # compiles bytecode on a fresh checkout; not timed
        setup = [runner.child()["setup_s"] for _ in range(SETUP_STARTS)]
        rounds = []
        begin = clock()
        while True:
            rounds.append(run_round(runner, w, seed, rng))
            # Set-up samples spread over the run, like the rounds, so that
            # drift in the machine's speed weighs on both alike.
            setup += [rounds[-1].setup_s, runner.child()["setup_s"]]
            elapsed = clock() - begin
            if elapsed + elapsed / len(rounds) > args.seconds:  # the next round would overrun
                break
        traced = trace = None
        if args.trace:
            trace_path = OUT / f"trace-{w.name}.json"
            traced = run_round(runner, w, seed, rng, trace_path)
            trace = json.loads(trace_path.read_text())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    done = rounds + ([traced] if traced else [])
    for i, r in enumerate(done):
        print(f"round {i}: wall_s={r.wall_s:.4f} setup_s={r.setup_s:.4f} work={r.work} "
              f"failed={r.failed}/{r.ops} sha256={r.sha256[:16]}"
              + (" traced" if r is traced else ""))
    fingerprints = sorted({r.sha256 for r in done})
    print(f"fingerprint {w.name} seed={seed} sha256={fingerprints[0]}"
          + ("" if len(fingerprints) == 1 else f" (rounds differ: {len(fingerprints)} outputs)"))
    problems = [p for r in done for p in r.problems]
    for p in problems[:10]:
        print(f"problem: {p}")

    wall = statistics.median(r.wall_s for r in rounds)
    if args.trace:
        metrics = layer_metrics(trace, traced, wall, w)
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "work_per_s": (statistics.median(r.work / r.wall_s for r in rounds), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in rounds), "MB"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.ops for r in done),
        "failed": sum(r.failed for r in done),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
