"""Per-layer timing hooks for a traced benchmark op.

Each hook wraps one public function of a ``decoyroute`` module and records
``calls``, ``errors`` and ``self_s`` (its duration minus the time spent in
nested hooks).  Hooks that fire hundreds of thousands of times per op are
aggregated as in-memory counters only; the coarse boundaries marked
``span=True`` also keep a full span (name, start, end, parent span, op id).
A hook may also add up named counts computed from its arguments and result.

A hook is installed under every name its callers look up: modules such as
``cli`` and ``protocol`` bind functions by name at import time, so wrapping
only the defining module would record nothing.  A hook whose target no
longer exists, or a count whose inputs no longer exist, is reported as
absent instead of reading zero.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

PACKAGE = "decoyroute"


def _decoys(a, result):
    return len(a["node_pairs"]) * (a["h2_per_pair"] + a["h3_per_pair"])


def _cycles(a, result):
    return a["K"] * (1 if a["node_pairs"] is None else len(a["node_pairs"]))


def _ledger_entries(a, result):
    ledger = result.eavesdropper.ledger
    return len(ledger.learned_endpoints) + len(ledger.learned_bits)


def _escape_terms(a, result):
    # Number of hypergeometric terms in the exact escape sum.
    K, H3, m = a["K"], a["H3"], a["m_intercepted"]
    return min(H3, m) - max(0, m - (K - H3)) + 1 if H3 and m else 0


@dataclass(frozen=True)
class Hook:
    """A public function to wrap: a module of the package, then a dotted name.

    ``span`` marks a coarse boundary that keeps full spans; only those take
    ``counts``, which map a count name to ``f(arguments, result)`` added up
    over the hook's calls.
    """

    module: str
    qualname: str
    span: bool = False
    counts: tuple[tuple[str, Callable], ...] = ()

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


HOOKS = (
    Hook("cli", "cmd_simulate"),
    Hook("cli", "cmd_overhead"),
    Hook("cli", "cmd_verify"),
    Hook("cli", "cmd_figure2"),
    Hook("config", "RunConfig.build"),
    Hook("seeding", "stream_rng"),
    Hook(
        "protocol",
        "run_simulation",
        span=True,
        counts=(("cycles", _cycles), ("ledger_entries", _ledger_entries)),
    ),
    Hook("protocol", "generate_schedule", span=True, counts=(("decoys", _decoys),)),
    Hook(
        "protocol",
        "Schedule.for_pair",
        span=True,
        counts=(
            ("scanned", lambda a, result: len(a["self"].assignments)),
            ("returned", lambda a, result: len(result)),
        ),
    ),
    Hook("protocol", "run_type1_slot"),
    Hook("protocol", "run_type2_slot"),
    Hook("protocol", "run_type3_slot"),
    Hook("quantum", "prepare_path_packet"),
    Hook("quantum", "measure_qubit"),
    Hook("quantum", "interfere_path_packet"),
    Hook("channel", "transmit"),
    Hook("adversary", "decide_intercept"),
    Hook("adversary", "intercept_path"),
    Hook("adversary", "intercept_message"),
    Hook("adversary", "learned_traffic_fraction"),
    Hook(
        "overhead",
        "montecarlo_escape",
        span=True,
        counts=(("draws", lambda a, result: a["trials"] * a["K"]),),
    ),
    Hook("overhead", "exact_escape_prob", span=True, counts=(("terms", _escape_terms),)),
    Hook("constraints", "run_verification", span=True),
    Hook("constraints", "tradeoff_scatter"),
    Hook("constraints", "random_unitary"),
    Hook("analysis", "security_curve"),
)


class _Stats:
    __slots__ = ("calls", "errors", "self_s", "counts", "absent_counts")

    def __init__(self) -> None:
        self.calls = 0
        self.errors = 0
        self.self_s = 0.0
        self.counts: Counter = Counter()
        self.absent_counts: set[str] = set()


class Tracer:
    """Installs the hooks in this process and summarises what they recorded."""

    def __init__(self, op_id: int = 0, process: int = 0) -> None:
        # Spans are identified by (op, process, id): an op may run several processes.
        self.op_id = op_id
        self.process = process
        self.stats: dict[str, _Stats] = {}
        self.absent: list[str] = []
        self.spans: list[dict] = []
        # One [child_time] cell per active hook call, innermost last.
        self._stack: list[list[float]] = []
        self._span_stack: list[dict] = []

    def install(self) -> None:
        importlib.import_module(PACKAGE)
        for hook in HOOKS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{hook.module}")
            except ImportError:
                self.absent.append(hook.name)
                continue
            owner_name, _, attr = hook.qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if not callable(raw) and not isinstance(raw, classmethod):
                self.absent.append(hook.name)
                continue
            stats = self.stats[hook.name] = _Stats()
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(hook, raw.__func__, stats)))
                continue
            wrapper = self._wrap(hook, raw, stats)
            setattr(owner, attr, wrapper)
            if owner is module:
                _rebind(raw, wrapper)

    def _wrap(self, hook: Hook, fn, stats: _Stats):
        stack = self._stack
        clock = time.perf_counter

        if not hook.span:
            # Fine-grained hooks fire up to ~1e6 times per op: counters only.

            def counted(*args, **kwargs):
                cell = [0.0]
                stack.append(cell)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stats.errors += 1
                    raise
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stats.calls += 1
                    stats.self_s += elapsed - cell[0]
                    if stack:
                        stack[-1][0] += elapsed

            return counted

        signature = inspect.signature(fn)

        def spanned(*args, **kwargs):
            span = self._open_span(hook.name)
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed
                self._close_span(span, start, end)
            if hook.counts:
                _add_counts(hook, signature, args, kwargs, result, stats)
            return result

        return spanned

    def _open_span(self, name: str) -> dict:
        parent = self._span_stack[-1]["id"] if self._span_stack else None
        span = {"id": len(self.spans), "name": name, "parent": parent,
                "op": self.op_id, "process": self.process}
        self.spans.append(span)
        self._span_stack.append(span)
        return span

    def _close_span(self, span: dict, start: float, end: float) -> None:
        self._span_stack.pop()
        span.update(start=start, end=end)

    def run_main(self, main, argv, stdout) -> int:
        """Call ``cli.main`` inside the root span of this process."""
        span = self._open_span("cli.main")
        start = time.perf_counter()
        try:
            return main(argv, stdout=stdout)
        finally:
            self._close_span(span, start, time.perf_counter())

    def summary(self) -> dict:
        """JSON-ready hook statistics, absent hooks and spans of this process."""
        overhead = sys.modules.get(f"{PACKAGE}.overhead")
        table = getattr(overhead, "_log_fact_table", None)
        return {
            "hooks": {
                name: {
                    "calls": s.calls,
                    "errors": s.errors,
                    "self_s": s.self_s,
                    "counts": dict(s.counts),
                    "absent_counts": sorted(s.absent_counts),
                }
                for name, s in self.stats.items()
            },
            "absent": list(self.absent),
            "log_factorial_bytes": None if table is None else int(table.nbytes),
            "spans": self.spans,
        }


def _rebind(original, wrapper) -> None:
    """Replace every module-level alias of ``original`` in the package."""
    for name, module in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _add_counts(hook: Hook, signature, args, kwargs, result, stats: _Stats) -> None:
    try:
        bound = signature.bind(*args, **kwargs)
    except TypeError:
        stats.absent_counts.update(key for key, _ in hook.counts)
        return
    bound.apply_defaults()
    for key, count in hook.counts:
        try:
            stats.counts[key] += count(bound.arguments, result)
        except (AttributeError, KeyError, TypeError):
            # The argument or result field this count reads has gone.
            stats.absent_counts.add(key)
