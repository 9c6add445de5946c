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
import math
import sys
from dataclasses import dataclass, fields

from .adaptive import _NOT_PCZD, SimConfig, initial_strategy, run_path, sweep
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


# RunSpec field -> declared type names, "float | None" -> ["float", "None"]
_FIELD_TYPES = {f.name: f.type.split(" | ") for f in fields(RunSpec)}

# The RunSpec fields each subcommand reads, as flags and config keys
# ("config" itself is a flag only).  run and sweep always need 0 < T + S.
_TAKES = {
    "run": "T S config delta p seed nu dq step_tol max_steps gradient format out q0".split(),
    "sweep": "T S config delta p seed nu dq step_tol max_steps gradient format out n_paths".split(),
    "verify": "T S config strict_payoffs seed sample_scale out".split(),
    "zd": "T S config strict_payoffs delta p phi chi kappa p0 pczd".split(),
    "tables": "T S config strict_payoffs delta p tol out".split(),
}

_COMMAND_HELP = {
    "run": "run one gradient-ascent trajectory and write it as CSV/JSON",
    "sweep": "run many seeded trajectories and summarize their endpoints",
    "verify": "run the randomized property suite",
    "zd": "recover an enforcer from --p, or construct one from --phi --chi --kappa --p0",
    "tables": "report closed-form corner values against direct determinants",
}

_HELP = {
    "T": "temptation payoff (> 1)",
    "S": "sucker payoff (< 0)",
    "config": "JSON file of defaults for this command's flags; explicit flags override it",
    "strict_payoffs": "additionally require 0 < T + S",
    "delta": "discount factor in (0, 1)",
    "p": 'opponent strategy as "p0,p1,p2,p3,p4"',
    "q0": 'initial adaptive strategy as "q0,q1,q2,q3,q4"',
    "seed": "seed of the random initial strategies or draws (verify: default 0)",
    "nu": "learning rate",
    "dq": "finite-difference step, in (0, 1)",
    "step_tol": "termination threshold on the update size",
    "max_steps": "step cap per path",
    "gradient": "fd or analytic (default fd)",
    "format": "csv or json (default csv)",
    "out": "output file (default: stdout)",
    "n_paths": "number of paths (default 100)",
    "sample_scale": "multiplier on every property's sample count",
    "phi": "ZD scale phi",
    "chi": "ZD slope chi",
    "kappa": "ZD baseline payoff kappa",
    "p0": "first-round cooperation probability",
    "pczd": "require a positively correlated enforcer",
    "tol": "mismatch threshold for the exit code",
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as DomainError, so it exits 1 with one line.

    Flags must be spelled out: with abbreviations on, ``--max 5`` would
    silently stand for ``--max-steps 5``.  The subcommand parsers are of
    this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zdgame",
        description="Discounted repeated prisoner's dilemma with zero-determinant strategies",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, names in _TAKES.items():
        sub = subs.add_parser(command, help=_COMMAND_HELP[command])
        for name in names:
            switch = _FIELD_TYPES.get(name) == ["bool"]
            sub.add_argument("--" + name.replace("_", "-"), default=None, help=_HELP[name],
                             **(dict(action="store_const", const=True) if switch else {}))
    return parser


_NUMBERS = {"float": float, "int": int}
_CHOICES = {"gradient": tuple(_GRADIENT_MODES), "format": ("csv", "json")}


def _coerce(key: str, value):
    """Convert a flag or config value to its RunSpec field's type.

    This is the only converter: the parser hands every flag over as a
    string.  Numbers may be given as strings; floats must be finite and
    integers whole.  Strings and booleans must already have their type.
    """
    kind, *optional = _FIELD_TYPES[key]
    if value is None and optional:
        return None
    out = None
    if kind in _NUMBERS and not isinstance(value, bool):
        try:
            out = _NUMBERS[kind](value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            finite = kind == "int" or math.isfinite(out)  # a huge int overflows isfinite
            if not (finite and (isinstance(value, str) or out == value)):
                out = None
    elif type(value).__name__ == kind:
        out = value
    if out is None:
        wanted = {"float": "a finite number", "int": "an integer"}.get(kind, f"a {kind}")
        raise DomainError(f"{key} must be {wanted}, got {value!r}")
    if key in _CHOICES and out not in _CHOICES[key]:
        raise DomainError(f"{key} must be one of {_CHOICES[key]}, got {value!r}")
    return out


def spec_from_args(args: argparse.Namespace) -> RunSpec:
    takes = [key for key in _TAKES[args.command] if key != "config"]
    merged: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise DomainError(
                    f"config file {config_path} is not valid JSON: {exc}"
                ) from None
        if not isinstance(loaded, dict):
            raise DomainError(f"config file {config_path} must hold a JSON object")
        merged.update(loaded)
    unknown = set(merged) - set(takes)
    if unknown:
        raise DomainError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    for key in takes:
        if (value := getattr(args, key, None)) is not None:
            merged[key] = value
    for key in ("p", "q0"):
        value = merged.get(key)
        if isinstance(value, (list, tuple)):
            merged[key] = ",".join(str(v) for v in value)
    merged = {key: _coerce(key, value) for key, value in merged.items()}
    if merged.get("seed") is not None and merged["seed"] < 0:
        raise DomainError(f"seed must be a non-negative integer, got {merged['seed']}")
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


def _game(spec: RunSpec):
    """Validated ``(params, delta, p)`` of run, sweep, zd and tables.

    Only zd goes without --p (p is then None), and run and sweep always
    need 0 < T + S.
    """
    if spec.p is None and spec.command != "zd":
        raise DomainError(f"{spec.command} needs --p (the opponent strategy)")
    strict = spec.strict_payoffs or spec.command in ("run", "sweep")
    params = validate_payoffs(spec.T, spec.S, strict=strict)
    delta = validate_delta(spec.delta)
    return params, delta, None if spec.p is None else Strategy.parse(spec.p)


def cmd_run(spec: RunSpec) -> int:
    params, delta, p = _game(spec)
    if spec.q0 is not None:
        q0 = Strategy.parse(spec.q0)
    elif spec.seed is not None:
        q0 = initial_strategy(int(spec.seed), 0)
    else:
        raise DomainError("run needs --q0 or --seed to fix the initial strategy")
    code = EXIT_OK
    try:
        path = run_path(q0, spec.sim_config(), p, delta, params, check_pczd=False)
    except MaxStepsError as exc:
        path = exc.path
        code = EXIT_NO_CONVERGENCE
    if not is_pczd(p, delta, params):
        print(f"warning: {_NOT_PCZD}", file=sys.stderr)
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


def cmd_sweep(spec: RunSpec) -> int:
    params, delta, p = _game(spec)
    if spec.seed is None:
        raise DomainError("sweep needs --seed for reproducible initial strategies")
    results = sweep(spec.n_paths, int(spec.seed), spec.sim_config(), p, delta, params)
    counts = {tag: sum(r.terminal == tag for r in results) for tag in ("T1", "T2", "OTHER")}
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
    params = validate_payoffs(spec.T, spec.S, strict=spec.strict_payoffs)
    seed = 0 if spec.seed is None else int(spec.seed)
    results = run_verification(params, seed=seed, scale=spec.sample_scale)
    failed = [r.name for r in results if not r.passed]
    summary = f"FAILED: {', '.join(failed)}" if failed else "all properties passed"
    _write_text(spec.out, "\n".join([*(r.line() for r in results), summary]) + "\n")
    if spec.out:
        print(summary)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_zd(spec: RunSpec) -> int:
    construct = (spec.phi, spec.chi, spec.kappa, spec.p0)
    if spec.p is not None and (spec.pczd or construct != (None,) * 4):
        raise DomainError("zd takes either --p (recover) or --phi, --chi, --kappa, --p0 "
                          "[--pczd] (construct), not both")
    if spec.p is None and None in construct:
        raise DomainError("zd needs either --p or all of --phi, --chi, --kappa, --p0")
    params, delta, p = _game(spec)
    dc = critical_discount(params)
    if p is None:
        if spec.pczd and spec.chi < 1.0:
            raise DomainError(f"pcZD requested but chi={spec.chi} < 1")
        if spec.pczd and not delta > dc:
            raise DomainError(f"pcZD requested but delta={delta} <= delta_c={_fmt(dc)}")
        p = make_zd(ZDParams(phi=spec.phi, chi=spec.chi, kappa=spec.kappa), spec.p0,
                    delta, params)
    out = [f"delta_c = {_fmt(dc)}", "strategy p = " + ",".join(_fmt(v) for v in p)]
    if spec.p is not None:
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
    out.append(f"pcZD: {'yes' if is_pczd(p, delta, params) else 'no'}")
    out.append(f"consistency residual = {_fmt(zd_consistency_residual(p, delta, params))}")
    print("\n".join(out))
    return EXIT_OK


def cmd_tables(spec: RunSpec) -> int:
    params, delta, p = _game(spec)
    if not spec.tol >= 0.0:
        raise DomainError(f"tol must be finite and at least 0, got {spec.tol}")
    reports = table_report(p, delta, params)
    lines = [
        f"{r.label()} closed={_fmt(r.closed)} direct={_fmt(r.direct)} diff={r.diff:.3e}"
        for r in reports
    ]
    bad = [r for r in reports if not r.diff <= spec.tol]
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
    try:
        spec = spec_from_args(build_parser().parse_args(argv))
        return _HANDLERS[spec.command](spec)
    except (DomainError, InfeasibleError, DegenerateError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
