"""zdgame's compiled loops: ``_climb.c``, built on first use.

:func:`climber` gives a function that runs one path's whole ascent in a
single C call through ctypes.  It ends the path exactly as
``adaptive._climb`` does: the same final q bit for bit, the same step
count and converged flag, and the same :class:`NumericalError` on a
vanished normalizer.  :func:`series` sums the discounted payoff series
of many strategy pairs in one C call, each pair's sums bit for bit those
of ``payoffs._series_rounds``.  :func:`stream` gives verify's random
streams, numpy's seeded PCG64 drawn by the library from a state of its
own, so that verify never loads ``numpy.random``.  A stream is read
through ``random()`` and ``random(size)`` alone, and through its
``bit_generator``: two kernels read a generator themselves, through its
``next_double`` and under its lock, that of :func:`stream` or any numpy
generator.  :func:`residuals` gives the normalizer or regularity
residuals of a chunk of verify's random draws in one C call; :func:`pczd`
runs pcZD draws in one C call, each try ``zd._try_pczd``'s step for step:
a chunk of verify's factorization-and-signs stream, or one enforcer of
its corner-tables streams.  Both give a function of the draw count that
reuses its arguments and one output buffer from call to call.  Each has
one Python twin, ``verify._residuals`` and ``verify._walk``, which takes
the same arguments, the draw count for the buffer size, gives the same
values bit for bit, and is what a caller names after ``or``.

The library is compiled once, by the C compiler Python was built with
(``sysconfig``'s ``CC``), with the flags below.  ``-ffp-contract=off``
keeps the compiler from fusing ``a*b + c`` into one rounding, which would
change the bytes.  The file is named by the sha256 of the source, the
compiler, the flags and the platform, and cached in the package's
``__pycache__``.  The digest comes from the interpreter's lean sha256
module (``_sha2``, or ``_sha256`` before Python 3.12), as ``random``
takes its sha512, because ``hashlib`` loads OpenSSL; ``hashlib``'s
sha256, the same digest, is the fallback.  A build goes to a temporary
name and is renamed into place, so concurrent builds are safe, and once
it loads, the cache's other ``_climb-*.so`` files, builds of older
sources, are removed.  Any failure (no compiler, a cache that cannot be
written or that anyone may write, a failed load) makes :func:`_kernel`
return None, and with it every kernel function here, and the caller runs
its Python loop, numpy passes or numpy's generator instead.  Only a
sweep and verify import this module.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import shlex
import stat
import sysconfig
import tempfile
import threading
import types
from pathlib import Path

import numpy as np

try:  # hashlib would load OpenSSL for this one digest
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import _pcg
from .payoffs import NORMALIZER_FLOOR, _vanished_normalizer
from .zd import _CHI_MAX, _CHI_MIN, _DELTA_MAX, _INT64_MAX, _delta_low, critical_discount

SOURCE = Path(__file__).with_name("_climb.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
LIBS = ("-lm",)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
# Each entry point's (restype, argtypes), in the order of its C prototype;
# an array's data is passed as its address.
PROTOTYPES = {
    "zd_climb": (ctypes.c_int, (_DOUBLE_P, ctypes.c_int64, ctypes.c_int, _DOUBLE_P,
                                ctypes.POINTER(ctypes.c_int64), _DOUBLE_P)),
    "zd_series": (None, (ctypes.c_int64, *[ctypes.c_void_p] * 8)),
    "zd_pczd": (ctypes.c_int64, (*[ctypes.c_void_p] * 3, ctypes.c_int64, ctypes.c_int,
                                 ctypes.c_int64, ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64))),
    "zd_residuals": (None, (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_double, ctypes.c_double,
                            ctypes.c_int, ctypes.c_int64, ctypes.c_void_p)),
    "zd_pcg_double": (ctypes.c_double, (ctypes.c_void_p,)),
    "zd_pcg_fill": (None, (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)),
}
_CONVERGED, _VANISHED = 0, 2  # zd_climb's other status, 1, is the step cap
_BUILD_TIMEOUT_S = 120


def _compiler() -> list[str]:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _library(source: bytes, cc: list[str]) -> Path:
    """The cache path of the library built from ``source`` by ``cc``."""
    recipe = "\0".join(["", *cc, *FLAGS, *LIBS, sysconfig.get_platform()]).encode()
    return CACHE_DIR / f"_climb-{sha256(source + recipe).hexdigest()[:24]}.so"


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


def _prune(keep: Path):
    """Remove the cache's builds other than ``keep``; a process that has one
    loaded keeps its mapping.  In-flight ``.tmp`` builds are left alone."""
    for old in keep.parent.glob("_climb-*.so"):
        if old != keep:
            try:
                old.unlink()
            except OSError:
                pass  # removed already, or not ours to remove


@functools.cache
def _kernel():
    """The cached library, built first if no cache holds it, with its
    entry points typed as :data:`PROTOTYPES` says; None if it cannot be
    built or loaded, or lacks an entry point."""
    try:
        source = SOURCE.read_bytes()
    except OSError:
        return None
    cc = _compiler()
    path = _library(source, cc)
    try:
        CACHE_DIR.mkdir(exist_ok=True)
        if CACHE_DIR.stat().st_mode & stat.S_IWOTH:
            return None  # anyone could put a library of that name there
        built = not path.exists()
        if built and not _build(cc, path):
            return None
        lib = ctypes.CDLL(str(path))
        for name, (restype, argtypes) in PROTOTYPES.items():
            function = getattr(lib, name)
            function.restype, function.argtypes = restype, argtypes
    except (OSError, AttributeError):
        return None  # an unwritable cache or a failed load
    if built:
        _prune(path)
    return lib


def climber(config, pt, delta, params):
    """A function from a start q to its path's (final q, steps, converged),
    one C call per path; None if the kernel is unavailable.

    The cap is clamped to the int64 range, which no path can reach: ctypes
    would silently wrap a larger one.
    """
    lib = _kernel()
    if lib is None:
        return None
    run = lib.zd_climb
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


def series(rounds, v, rows, delta, sx, sy):
    """The sums ``(acc_x, acc_y)`` of ``payoffs._series_rounds`` for ``n``
    strategy pairs, as two ``(n,)`` arrays, in one C call; None if the
    kernel is unavailable.

    Pair ``k`` sums ``rounds[k]`` terms from the first-round distribution
    ``v[:, k]`` (``v`` of shape ``(4, n)``) through the transition matrix
    ``rows[:, :, k]`` (``rows`` of shape ``(4, 4, n)``) at discount
    ``delta[k]``, with the outcome payoffs ``sx`` and ``sy``.
    """
    lib = _kernel()
    if lib is None:
        return None
    n = len(delta)
    shapes = [np.shape(a) for a in (rounds, v, rows, sx, sy)]
    if shapes != [(n,), (4, n), (4, 4, n), (4,), (4,)]:
        raise ValueError(f"series inputs for {n} pairs have shapes {shapes}")
    sum_x, sum_y = np.empty(n), np.empty(n)
    arrays = [np.ascontiguousarray(rounds, dtype=np.int64),
              *(np.ascontiguousarray(a, dtype=np.float64) for a in (v, rows, delta, sx, sy)),
              sum_x, sum_y]
    lib.zd_series(n, *(a.ctypes.data for a in arrays))
    return sum_x, sum_y


class _Stream:
    """The stream of ``numpy.random.default_rng(SeedSequence(entropy=seed,
    spawn_key=(key,)))``, drawn by the library's PCG64 from a state buffer
    of its own.  It offers the whole stream contract: ``random()`` and
    ``random(size)``, bit for bit numpy's, which verify and
    ``zd._try_pczd`` call, and ``bit_generator``'s ``lock``,
    ``ctypes.next_double`` and ``ctypes.state_address``, which
    :func:`_locked` reads."""

    def __init__(self, lib, state, inc):
        words = (state & _pcg.M64, state >> 64, inc & _pcg.M64, inc >> 64)
        self._words = (ctypes.c_uint64 * 4)(*words)
        self._state = ctypes.addressof(self._words)
        self._double, self._fill = lib.zd_pcg_double, lib.zd_pcg_fill
        self.bit_generator = types.SimpleNamespace(
            lock=threading.Lock(),  # ctypes calls release the GIL
            ctypes=types.SimpleNamespace(next_double=self._double, state_address=self._state))

    def random(self, size=None):
        """A float, or an array of ``size`` values, as ``rng.random(size)``."""
        with self.bit_generator.lock:
            if size is None:
                return self._double(self._state)
            out = np.empty(size)
            self._fill(self._state, out.size, out.ctypes.data)
        return out


def stream(seed, key):
    """A :class:`_Stream` seeded as ``SeedSequence(entropy=seed,
    spawn_key=(key,))``; None if the kernel is unavailable.  A seed or key
    that is not a non-negative integer raises :class:`DomainError`."""
    lib = _kernel()
    if lib is None:
        return None
    return _Stream(lib, *_pcg.seeded(seed, key))


def _locked(rng, kernel):
    """``kernel``'s calls bound to the ctypes ``next_double`` and state of
    ``rng.bit_generator`` and run under its lock, as numpy's own draws
    are, so that ``rng`` ends where numpy's draws of the same values
    leave it."""
    bits = rng.bit_generator
    next_double, state = bits.ctypes.next_double, bits.ctypes.state_address

    def call(*args):
        with bits.lock:
            return kernel(next_double, state, *args)

    return call


def residuals(rng, size, lo, hi, identity):
    """A function from a count ``n <= size`` to its twin
    ``verify._residuals(rng, n, lo, hi, identity)``, in one C call each:
    the normalizers ``D(p, q, delta, 1)`` of the next ``n`` draws, or where
    ``identity`` is set their regularity residuals; None if the kernel is
    unavailable.  The result is a view of one buffer of ``size`` doubles,
    which the next call overwrites."""
    lib = _kernel()
    if lib is None:
        return None
    run, out = _locked(rng, lib.zd_residuals), np.empty(size)
    address = out.ctypes.data

    def draw(n):
        if not 0 <= n <= size:
            raise ValueError(f"{n} draws do not fit a buffer of {size}")
        run(lo, hi, identity, n, address)
        return out[:n]

    return draw


def pczd(rng, size, params, p0=None, kappa=None, tries=_INT64_MAX, q=True):
    """A function from a count ``n <= size`` to ``n`` draws of
    ``zd.sample_pczd(rng, params, p0=p0, kappa=kappa)``'s tries in one C
    call, each accepted try followed, where ``q`` is true, by
    ``rng.random(5)``: the ``(11, k)`` columns (p0..p4, the five values
    as q, delta), or ``(6, k)`` without q, and the tries rejected; None if
    the kernel is unavailable.  A draw whose ``tries`` tries are all
    rejected ends the call, so ``k < n`` only then; by default no draw
    runs out.  A call is its twin ``verify._walk(rng, n, params, p0,
    kappa, tries, q)``.  The columns are a view of one buffer, which the
    next call overwrites.  The kernel's arguments are built once, here:
    built per call they cost ~4 us, twenty times the kernel's work on one
    draw."""
    lib = _kernel()
    if lib is None:
        return None
    run, rows = _locked(rng, lib.zd_pczd), 11 if q else 6
    draw = (ctypes.c_double * 8)(_delta_low(critical_discount(params)), _DELTA_MAX,
                                 _CHI_MIN, _CHI_MAX, params.T, params.S,
                                 math.nan if p0 is None else p0,  # NaN: drawn
                                 math.nan if kappa is None else kappa)
    out, rejected = np.empty(rows * size), ctypes.c_int64()
    address, rejected_p = out.ctypes.data, ctypes.byref(rejected)

    def walk(n):
        if not 0 <= n <= size:
            raise ValueError(f"{n} draws do not fit a buffer of {size}")
        k = run(draw, tries, q, n, address, rejected_p)
        # the kernel stores its columns row-major as (rows, n)
        return out[:rows * n].reshape(rows, n)[:, :k], rejected.value

    return walk
