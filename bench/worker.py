"""Fork server that runs the benchmark's gpsde commands.

    python3 bench/worker.py

It imports gpsde once, then reads one JSON request per line from standard
input: ``{"argv": [...], "traced": false, "result": "path.json"}``.  Each
command runs in a child forked for it, so it starts from the state of a
freshly started ``gpsde`` process without paying for the imports again.
The child times ``gpsde.cli.main`` and writes the exit code, the wall time,
the number of objective evaluations a fit made and, when traced, the span
summary to ``result``.  The server answers each
request with one line, ``{"status": ..., "maxrss_mb": ...}``: the child's
exit status and its peak resident memory, as ``wait4`` reports them.  The
command's own output goes to standard error.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def count_evaluations(fit) -> list:
    """Count the objective evaluations ``gpsde.fit`` makes; the returned
    one-item list holds the count."""
    evals = [0]
    objective = fit.evaluate_with_increments

    def counted(*args, **kwargs):
        evals[0] += 1
        return objective(*args, **kwargs)

    fit.evaluate_with_increments = counted
    return evals


def run_command(cli, req: dict):
    """Body of the forked child."""
    from gpsde import fit

    # before the tracer, which then wraps the counter
    evals = count_evaluations(fit)
    tracer = None
    run = cli.main
    if req["traced"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

        def run(args):
            return tracer.span("cli.main", cli.main, args)

    with contextlib.redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        try:
            rc = run(req["argv"])
        except SystemExit as exc:      # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:              # report, do not hide, a crash of the command
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - t0
    Path(req["result"]).write_text(json.dumps({
        "rc": rc,
        "wall_s": wall,
        "evals": evals[0],
        "trace": tracer.summary() if tracer is not None else None,
    }))


def main() -> int:
    from gpsde import cli

    # forking copies only the calling thread; refuse if imports started more
    threads = len(os.listdir("/proc/self/task"))
    if threads != 1:
        print(f"worker: {threads} threads after import; pin BLAS to one thread",
              file=sys.stderr)
        return 2
    for line in sys.stdin:
        req = json.loads(line)
        pid = os.fork()
        if pid == 0:
            # the child must never return into this loop, whatever happens
            code = 0
            try:
                run_command(cli, req)
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                sys.stderr.flush()
                os._exit(code)
        _, status, usage = os.wait4(pid, 0)
        print(json.dumps({"status": os.waitstatus_to_exitcode(status),
                          "maxrss_mb": usage.ru_maxrss / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
