"""The compiled ascent loop of sweeps: ``_climb.c``, built on first use.

:func:`climber` gives a function that runs one path's whole ascent in a
single C call through ctypes.  It ends the path exactly as
``adaptive._climb`` does: the same final q bit for bit, the same step
count and converged flag, and the same :class:`NumericalError` on a
vanished normalizer.

The library is compiled once, by the C compiler Python was built with
(``sysconfig``'s ``CC``), with the flags below.  ``-ffp-contract=off``
keeps the compiler from fusing ``a*b + c`` into one rounding, which would
change the bytes.  The file is named by the sha256 of the source, the
compiler, the flags and the platform, and cached in the package's
``__pycache__``.  A build goes to a temporary name and is renamed into
place, so concurrent builds are safe.  Any failure (no compiler, a cache
that cannot be written or that anyone may write, a failed load) makes
:func:`climber` return None, and the sweep runs its Python loop instead.
Only a sweep imports this module.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import stat
import sysconfig
import tempfile
from pathlib import Path

from .payoffs import NORMALIZER_FLOOR, _vanished_normalizer

SOURCE = Path(__file__).with_name("_climb.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
LIBS = ("-lm",)
_INT64_MAX = 2**63 - 1
_CONVERGED, _VANISHED = 0, 2  # zd_climb's other status, 1, is the step cap
_BUILD_TIMEOUT_S = 120


def _compiler() -> list[str]:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _build(cc: list[str], path: Path) -> bool:
    """Compile the source to a temporary name beside ``path``, then rename
    it into place; false if the compiler is missing or fails."""
    import subprocess  # only a build starts a process

    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([*cc, *FLAGS, "-o", tmp, str(SOURCE), *LIBS],
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True, timeout=_BUILD_TIMEOUT_S)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        Path(tmp).unlink(missing_ok=True)
    return True


@functools.cache
def _kernel():
    """``zd_climb`` of the cached library, built first if no cache holds it;
    None if it cannot be built or loaded."""
    try:
        source = SOURCE.read_bytes()
    except OSError:
        return None
    cc = _compiler()
    recipe = "\0".join(["", *cc, *FLAGS, *LIBS, sysconfig.get_platform()]).encode()
    path = CACHE_DIR / f"_climb-{hashlib.sha256(source + recipe).hexdigest()[:24]}.so"
    try:
        CACHE_DIR.mkdir(exist_ok=True)
        if CACHE_DIR.stat().st_mode & stat.S_IWOTH:
            return None  # anyone could put a library of that name there
        if not path.exists() and not _build(cc, path):
            return None
        run = ctypes.CDLL(str(path)).zd_climb
    except (OSError, AttributeError):
        return None  # an unwritable cache or a failed load
    double_p = ctypes.POINTER(ctypes.c_double)
    run.argtypes = [double_p, ctypes.c_int64, ctypes.c_int, double_p,
                    ctypes.POINTER(ctypes.c_int64), double_p]
    run.restype = ctypes.c_int
    return run


def climber(config, pt, delta, params):
    """A function from a start q to its path's (final q, steps, converged),
    one C call per path; None if the kernel is unavailable.

    The cap is clamped to the int64 range, which no path can reach: ctypes
    would silently wrap a larger one.
    """
    run = _kernel()
    if run is None:
        return None
    cap = min(config.max_steps, _INT64_MAX)
    game = (ctypes.c_double * 12)(
        *pt, delta, params.T, params.S, config.nu, config.dq, config.step_tol, NORMALIZER_FLOOR,
    )
    analytic = config.gradient_mode == "analytic"

    def climb(q0):
        q = (ctypes.c_double * 5)(*q0)
        steps, vanished = ctypes.c_int64(), ctypes.c_double()
        status = run(game, cap, analytic, q, ctypes.byref(steps), ctypes.byref(vanished))
        if status == _VANISHED:
            raise _vanished_normalizer(vanished.value)
        return tuple(q), steps.value, status == _CONVERGED

    return climb
