"""One benchmark op: a fresh interpreter that runs ``decoyroute.cli.main`` once.

Usage: ``python3 op.py '<json spec>'`` with the spec keys

* ``argv``: the CLI arguments;
* ``t0``: ``CLOCK_MONOTONIC`` reading taken by the parent just before it
  started this process, so that ``setup_s`` covers interpreter start-up
  plus ``import decoyroute.cli``;
* ``trace``: install the per-layer hooks of ``hooks.py`` before the call;
* ``reference``: the function of ``reference.py`` timed before, during and
  after the call, to track the host's speed;
* ``op_id`` and ``process``: the op and its process index, which label spans.

The process prints one JSON line: exit code, CSV output, timings, the
reference timings, its own peak RSS and, when traced, the hook summary.
``wall_s`` leaves out the reference runs made during the call.
``PYTHONPATH`` must reach the package sources.
"""

import gc
import io
import json
import resource
import signal
import sys
import time
import traceback

_SPEC = json.loads(sys.argv[1])

import decoyroute.cli  # noqa: E402  (the timed import)

SETUP_S = time.clock_gettime(time.CLOCK_MONOTONIC) - _SPEC["t0"]

import reference  # noqa: E402

_REFERENCE = getattr(reference, _SPEC["reference"])
_ref_s: list[float] = []
_busy = False


def _time_reference(*_signal) -> None:
    global _busy
    if _busy:  # a timer that fires during a reference run skips its turn
        return
    _busy = True
    # A collection here would traverse the program's heap and time that instead.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    _REFERENCE()
    _ref_s.append(time.perf_counter() - start)
    if gc_was_enabled:
        gc.enable()
    _busy = False


def main() -> None:
    tracer = None
    if _SPEC["trace"]:
        import hooks

        tracer = hooks.Tracer(op_id=_SPEC["op_id"], process=_SPEC["process"])
        tracer.install()
    buffer = io.StringIO()
    error = None
    _time_reference()
    signal.signal(signal.SIGALRM, _time_reference)
    signal.setitimer(signal.ITIMER_REAL, reference.PERIOD_S, reference.PERIOD_S)
    start = time.perf_counter()
    try:
        if tracer is not None:
            exit_code = tracer.run_main(decoyroute.cli.main, _SPEC["argv"], buffer)
        else:
            exit_code = decoyroute.cli.main(_SPEC["argv"], stdout=buffer)
    except Exception:  # reported to the parent, which counts the op as failed
        exit_code = None
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall_s -= sum(_ref_s[1:])
    _time_reference()
    result = {
        "exit": exit_code,
        "error": error,
        "csv": buffer.getvalue(),
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "ref_s": _ref_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "trace": tracer.summary() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
