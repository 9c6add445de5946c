"""One fresh interpreter of the benchmark: import zdgame, run one CLI call.

    python3 bench/child.py RESULT_JSON TRACE_JSON|- [CLI ARGS...]

Writes to RESULT_JSON the monotonic-clock time at which ``zdgame.cli``
finished importing (the parent subtracts its own spawn time), and, when
CLI ARGS are given, the wall time and exit code of ``zdgame.cli.main``
and the peak resident memory.  That is VmHWM of this process: its
``ru_maxrss`` would report the parent's peak, inherited at exec.  Without
CLI ARGS it only imports, which is one set-up sample.  A TRACE_JSON path
turns on the per-layer tracer for the call and writes its counts there.
"""

import json
import sys
import time
from pathlib import Path


def clock() -> float:
    # CLOCK_MONOTONIC is one clock for every process, so parent and child
    # readings can be subtracted.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    result_path, trace_path, *cli_args = argv
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    import zdgame.cli

    out = {"imported_at": clock()}
    if cli_args:
        tracer = None
        if trace_path != "-":
            import layertrace

            tracer = layertrace.install()
        start = clock()
        code = zdgame.cli.main(cli_args)
        out["wall_s"] = clock() - start
        out["exit_code"] = code
        if tracer is not None:
            tracer.write(trace_path)
        out["peak_rss_mb"] = peak_rss_kib() / 1024.0
    Path(result_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
