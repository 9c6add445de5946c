"""Command-line front end.

Subcommands: ``run`` (one ascent trajectory), ``sweep`` (many seeded
trajectories), ``verify`` (randomized property suite), ``zd`` (construct
or recover an enforcer strategy), and ``tables`` (corner-value report).

Exit codes: 0 success, 1 spec/usage error, 2 non-convergence,
3 verification failure.  All floating-point output uses 17 significant
digits, so parsing a file reproduces the in-memory values exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

from .adaptive import SimConfig, initial_strategy, run_path, sweep
from .errors import (
    DegenerateError,
    DomainError,
    InfeasibleError,
    MaxStepsError,
    NumericalError,
)
from .game import Strategy, validate_delta, validate_payoffs
from .tables import table_report
from .verify import run_verification
from .zd import (
    NotZD,
    ZDParams,
    critical_discount,
    is_pczd,
    make_zd,
    recover_zd,
    zd_consistency_residual,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFY_FAILED = 3

_GRADIENT_MODES = {"fd": "finite_difference", "analytic": "analytic"}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class RunSpec:
    """Validated execution request shared by the subcommands."""

    command: str
    T: float = 1.5
    S: float = -0.5
    delta: float = 0.99
    p: str | None = None
    q0: str | None = None
    nu: float = 0.1
    dq: float = 1e-4
    step_tol: float = 1e-12
    max_steps: int = 1_000_000
    seed: int | None = None
    n_paths: int = 100
    gradient: str = "fd"
    out: str | None = None
    format: str = "csv"
    strict_payoffs: bool = False
    workers: int = 1
    phi: float | None = None
    chi: float | None = None
    kappa: float | None = None
    p0: float | None = None
    pczd: bool = False
    sample_scale: float = 1.0
    tol: float = 1e-12

    def sim_config(self) -> SimConfig:
        return SimConfig(
            nu=self.nu,
            dq=self.dq,
            step_tol=self.step_tol,
            max_steps=self.max_steps,
            gradient_mode=_GRADIENT_MODES[self.gradient],
        )

    def payoffs(self, strict: bool | None = None):
        if strict is None:
            strict = self.strict_payoffs
        return validate_payoffs(self.T, self.S, strict=strict)


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--T", type=float, default=None, help="temptation payoff (> 1)")
    sub.add_argument("--S", type=float, default=None, help="sucker payoff (< 0)")
    sub.add_argument("--delta", type=float, default=None, help="discount factor in (0, 1)")
    sub.add_argument("--p", type=str, default=None,
                     help='opponent strategy as "p0,p1,p2,p3,p4"')
    sub.add_argument("--q0", type=str, default=None,
                     help='initial adaptive strategy as "q0,q1,q2,q3,q4"')
    sub.add_argument("--nu", type=float, default=None, help="learning rate")
    sub.add_argument("--dq", type=float, default=None, help="finite-difference step")
    sub.add_argument("--step-tol", dest="step_tol", type=float, default=None,
                     help="termination threshold on the update size")
    sub.add_argument("--max-steps", dest="max_steps", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--n-paths", dest="n_paths", type=int, default=None)
    sub.add_argument("--gradient", choices=sorted(_GRADIENT_MODES), default=None)
    sub.add_argument("--out", type=str, default=None, help="output file (default: stdout)")
    sub.add_argument("--format", choices=["csv", "json"], default=None)
    sub.add_argument("--config", type=str, default=None,
                     help="JSON file of defaults; explicit flags override it")
    sub.add_argument("--strict-payoffs", dest="strict_payoffs",
                     action="store_const", const=True, default=None,
                     help="additionally require 0 < T + S")
    sub.add_argument("--workers", type=int, default=None,
                     help="parallel worker processes for sweeps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdgame",
        description="Discounted repeated prisoner's dilemma with zero-determinant strategies",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("run", "run one gradient-ascent trajectory and write it as CSV/JSON"),
        ("sweep", "run many seeded trajectories and summarize their endpoints"),
        ("verify", "run the randomized property suite"),
        ("zd", "construct or recover an enforcer strategy"),
        ("tables", "report closed-form corner values against direct determinants"),
    ]:
        sub = subs.add_parser(name, help=text)
        _add_common(sub)
        if name == "zd":
            sub.add_argument("--phi", type=float, default=None)
            sub.add_argument("--chi", type=float, default=None)
            sub.add_argument("--kappa", type=float, default=None)
            sub.add_argument("--p0", type=float, default=None)
            sub.add_argument("--pczd", action="store_const", const=True, default=None,
                             help="require a positively correlated enforcer")
        if name == "verify":
            sub.add_argument("--sample-scale", dest="sample_scale", type=float, default=None,
                             help="multiplier on every property's sample count")
        if name == "tables":
            sub.add_argument("--tol", type=float, default=None,
                             help="mismatch threshold for the exit code")
    return parser


def spec_from_args(args: argparse.Namespace) -> RunSpec:
    merged: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise DomainError(f"config file {config_path} must hold a JSON object")
        merged.update(loaded)
    known = {f.name for f in fields(RunSpec)}
    unknown = set(merged) - known
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    for key, value in vars(args).items():
        if key in known and value is not None:
            merged[key] = value
    for key in ("p", "q0"):
        value = merged.get(key)
        if isinstance(value, (list, tuple)):
            merged[key] = ",".join(str(v) for v in value)
    merged["command"] = args.command
    return RunSpec(**merged)


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _trajectory_csv(path) -> str:
    lines = ["n,q0,q1,q2,q3,q4,s_Y,s_X"]
    for s in path.steps:
        lines.append(
            ",".join([str(s.n)] + [_fmt(v) for v in s.q] + [_fmt(s.s_y), _fmt(s.s_x)])
        )
    return "\n".join(lines) + "\n"


def _trajectory_json(path, seed) -> str:
    doc = {
        "seed": seed,
        "terminated_at": path.terminated_at,
        "converged": path.converged,
        "terminal": path.terminal.tag,
        "monotonic_violations": path.monotonic_violations,
        "steps": [
            {"n": s.n, "q": list(s.q), "s_Y": s.s_y, "s_X": s.s_x} for s in path.steps
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def cmd_run(spec: RunSpec) -> int:
    if spec.p is None:
        raise DomainError("run needs --p (the opponent strategy)")
    params = spec.payoffs(strict=True)
    delta = validate_delta(spec.delta)
    p = Strategy.parse(spec.p)
    if spec.q0 is not None:
        q0 = Strategy.parse(spec.q0)
    elif spec.seed is not None:
        q0 = initial_strategy(int(spec.seed), 0)
    else:
        raise DomainError("run needs --q0 or --seed to fix the initial strategy")
    code = EXIT_OK
    try:
        path = run_path(q0, spec.sim_config(), p, delta, params)
    except MaxStepsError as exc:
        path = exc.path
        code = EXIT_NO_CONVERGENCE
    text = (
        _trajectory_csv(path) if spec.format == "csv" else _trajectory_json(path, spec.seed)
    )
    _write_text(spec.out, text)
    summary = (
        f"terminal={path.terminal.tag} steps={path.terminated_at} "
        f"converged={path.converged} monotonic_violations={path.monotonic_violations}"
    )
    print(summary, file=sys.stdout if spec.out else sys.stderr)
    return code


_SWEEP_HEADER = (
    "path,seed,"
    "init_q0,init_q1,init_q2,init_q3,init_q4,"
    "final_q0,final_q1,final_q2,final_q3,final_q4,"
    "class,steps"
)


def _aggregate(results) -> dict:
    counts = {"T1": 0, "T2": 0, "OTHER": 0}
    for r in results:
        counts[r.terminal] += 1
    return counts


def cmd_sweep(spec: RunSpec) -> int:
    if spec.p is None:
        raise DomainError("sweep needs --p (the opponent strategy)")
    if spec.seed is None:
        raise DomainError("sweep needs --seed for reproducible initial strategies")
    params = spec.payoffs(strict=True)
    delta = validate_delta(spec.delta)
    p = Strategy.parse(spec.p)
    results = sweep(
        spec.n_paths, int(spec.seed), spec.sim_config(), p, delta, params,
        workers=spec.workers,
    )
    counts = _aggregate(results)
    aggregate = ", ".join(f"{k}: {v}" for k, v in counts.items())
    if spec.format == "csv":
        lines = [_SWEEP_HEADER]
        for r in results:
            lines.append(
                ",".join(
                    [str(r.index), str(r.seed)]
                    + [_fmt(v) for v in r.initial]
                    + [_fmt(v) for v in r.final]
                    + [r.terminal, str(r.steps)]
                )
            )
        lines.append(f"# {aggregate}")
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "seed": spec.seed,
            "aggregate": counts,
            "paths": [
                {
                    "path": r.index,
                    "seed": r.seed,
                    "initial": list(r.initial),
                    "final": list(r.final),
                    "class": r.terminal,
                    "steps": r.steps,
                    "converged": r.converged,
                }
                for r in results
            ],
        }
        text = json.dumps(doc, indent=2) + "\n"
    _write_text(spec.out, text)
    print(aggregate, file=sys.stdout if spec.out else sys.stderr)
    return EXIT_OK if all(r.converged for r in results) else EXIT_NO_CONVERGENCE


def cmd_verify(spec: RunSpec) -> int:
    params = spec.payoffs()
    seed = 0 if spec.seed is None else int(spec.seed)
    results = run_verification(params, seed=seed, scale=spec.sample_scale)
    failed = [r.name for r in results if not r.passed]
    lines = [r.line() for r in results]
    if failed:
        lines.append(f"FAILED: {', '.join(failed)}")
    else:
        lines.append("all properties passed")
    _write_text(spec.out, "\n".join(lines) + "\n")
    if spec.out:
        print("all properties passed" if not failed else f"FAILED: {', '.join(failed)}")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_zd(spec: RunSpec) -> int:
    params = spec.payoffs()
    delta = validate_delta(spec.delta)
    dc = critical_discount(params)
    out = [f"delta_c = {_fmt(dc)}"]
    if spec.p is not None:
        p = Strategy.parse(spec.p)
        out.append("strategy p = " + ",".join(_fmt(v) for v in p))
        try:
            recovered = recover_zd(p, delta, params)
        except DegenerateError as exc:
            out.append(f"equalizer: {exc}")
            recovered = None
        if isinstance(recovered, NotZD):
            out.append(f"not ZD (worst equation residual {_fmt(recovered.residual)})")
        elif recovered is not None:
            out.append(
                f"phi = {_fmt(recovered.phi)}, chi = {_fmt(recovered.chi)}, "
                f"kappa = {_fmt(recovered.kappa)}"
            )
        report = is_pczd(p, delta, params)
        out.append(f"pcZD: {'yes' if report else 'no'}")
        out.append(f"consistency residual = {_fmt(zd_consistency_residual(p, delta, params))}")
        print("\n".join(out))
        return EXIT_OK
    if None in (spec.phi, spec.chi, spec.kappa, spec.p0):
        raise DomainError("zd needs either --p or all of --phi, --chi, --kappa, --p0")
    if spec.pczd and spec.chi < 1.0:
        raise DomainError(f"pcZD requested but chi={spec.chi} < 1")
    if spec.pczd and not delta > dc:
        raise DomainError(f"pcZD requested but delta={delta} <= delta_c={_fmt(dc)}")
    zd = ZDParams(phi=spec.phi, chi=spec.chi, kappa=spec.kappa)
    p = make_zd(zd, spec.p0, delta, params)
    out.append("strategy p = " + ",".join(_fmt(v) for v in p))
    report = is_pczd(p, delta, params)
    out.append(f"pcZD: {'yes' if report else 'no'}")
    out.append(f"consistency residual = {_fmt(zd_consistency_residual(p, delta, params))}")
    print("\n".join(out))
    return EXIT_OK


def cmd_tables(spec: RunSpec) -> int:
    if spec.p is None:
        raise DomainError("tables needs --p")
    params = spec.payoffs()
    delta = validate_delta(spec.delta)
    p = Strategy.parse(spec.p)
    reports = table_report(p, delta, params)
    lines = [
        f"{r.label()} closed={_fmt(r.closed)} direct={_fmt(r.direct)} diff={r.diff:.3e}"
        for r in reports
    ]
    bad = [r for r in reports if r.diff > spec.tol]
    lines.append(f"{len(reports)} cells checked, {len(bad)} mismatches (tol {spec.tol:g})")
    _write_text(spec.out, "\n".join(lines) + "\n")
    return EXIT_VERIFY_FAILED if bad else EXIT_OK


_HANDLERS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "zd": cmd_zd,
    "tables": cmd_tables,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
        return _HANDLERS[spec.command](spec)
    except (DomainError, InfeasibleError, DegenerateError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
