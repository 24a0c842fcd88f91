"""Self-time accounting for the program's layers, measured from outside.

:class:`LayerClock` replaces chosen functions and methods of the
``repro`` package with timing wrappers for the duration of one run.
Each wrapper charges its call's wall time to a named layer and removes
the time spent in wrapped callees, so a layer's *self time* is the time
spent in its own code.  Calls are nested on one stack, so the self
times of every wrapped frame inside an op add up to that op's wall
time.  Nothing inside the package is edited: serializer functions are
wrapped at the engines' import sites (``repro.backends.sqlite`` and
``repro.store.storage``), which is where the engines look them up.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LayerClock", "install_probes", "install_layers"]

_now = time.perf_counter


class LayerClock:
    """Per-layer self time, call counts and row counts.

    ``self_s[layer]`` is self time in seconds.  ``calls[(key, parent)]``
    counts calls of the wrapped function *key* made directly from the
    wrapped function *parent* (``None`` at the top), which is how the
    benchmark tells a session read served from the prefetch cache from
    one that reached the engine.  ``rows[(key, parent)]`` sums the
    lengths of the results of wrappers installed with ``rows=True``.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.rows: Counter = Counter()
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    def wrap(self, owner: object, attr: str, layer: str, *,
             rows: bool = False,
             before: Optional[Callable[[tuple], None]] = None,
             after: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a timed wrapper charged to *layer*.

        ``before(args)`` runs just before the call and ``after(result,
        args, elapsed)`` once it has returned; both run outside the timed
        span of the wrapped frame but inside its parent's.
        """
        original = getattr(owner, attr)
        key = f"{getattr(owner, '__name__', owner)}.{attr}"
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        row_counts = self.rows

        def timed(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            start = _now()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = _now() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                calls[(key, parent)] += 1
                if stack:
                    stack[-1][1] += elapsed
            if rows:
                row_counts[(key, parent)] += len(result)
            if after is not None:
                after(result, args, elapsed)
            return result

        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def count(self, key: str, parent: Optional[str] = "*") -> int:
        """Calls of *key*; from *parent* only, unless it is ``"*"``."""
        return _total(self.calls, key, parent)

    def row_count(self, key: str, parent: Optional[str] = "*") -> int:
        """Rows returned by *key*; from *parent* only, unless ``"*"``."""
        return _total(self.rows, key, parent)

    def snapshot(self) -> Tuple[Dict[str, float], Counter, Counter]:
        """A copy of the accumulators, for :meth:`since`."""
        return dict(self.self_s), Counter(self.calls), Counter(self.rows)

    def since(self, mark: Tuple[Dict[str, float], Counter, Counter]
              ) -> "LayerClock":
        """A detached clock holding what accrued after *mark*."""
        delta = LayerClock()
        before_s, before_calls, before_rows = mark
        for layer, seconds in self.self_s.items():
            delta.self_s[layer] = seconds - before_s.get(layer, 0.0)
        delta.calls = self.calls - before_calls
        delta.rows = self.rows - before_rows
        return delta

    def add(self, other: "LayerClock") -> None:
        """Fold another (detached) clock's totals into this one."""
        for layer, seconds in other.self_s.items():
            self.self_s[layer] += seconds
        self.calls.update(other.calls)
        self.rows.update(other.rows)


def _total(counter: Counter, key: str, parent: Optional[str]) -> int:
    return sum(n for (k, p), n in counter.items()
               if k == key and (parent == "*" or p == parent))


def install_probes(clock: LayerClock, recorder) -> None:
    """The op-level wrappers every run needs, traced or not.

    ``recorder`` is told about every op: its wall time (from
    ``ClientExecutor.step``) and its logical result (from
    ``run_transaction_entry`` and the generic ``op_*`` methods).  These
    are a handful of calls per op, each of which takes milliseconds.
    """
    from repro.core.scenario import ClientExecutor

    clock.wrap(ClientExecutor, "step", "scenario",
               before=lambda args: recorder.op_start(args[0]),
               after=lambda result, args, elapsed: recorder.op_done(
                   args[0], elapsed))
    clock.wrap(ClientExecutor, "run_transaction_entry", "scenario",
               after=lambda result, args, elapsed: recorder.transaction(
                   args[0], *result))
    for name in ("op_insert", "op_update", "op_delete", "op_range_lookup",
                 "op_sequential_scan", "op_structure_traversal"):
        clock.wrap(ClientExecutor, name, "scenario",
                   after=lambda result, args, elapsed: recorder.operation(
                       args[0], result))


def install_layers(clock: LayerClock) -> None:
    """The per-layer wrappers of a traced run."""
    import repro.backends.sqlite as sqlite_module
    import repro.core.scenario as scenario_module
    import repro.store.storage as storage_module
    from repro.backends.sqlite import SQLiteBackend
    from repro.clustering.dstc import DSTCPolicy
    from repro.core.scenario import ClientExecutor
    from repro.core.session import Measurement, Session
    from repro.store.buffer import BufferPool
    from repro.store.storage import ObjectStore
    from repro.store.swizzle import SwizzleTable

    for name in ("draw_entry", "draw_transaction_spec"):
        clock.wrap(ClientExecutor, name, "scenario.draw")
    clock.wrap(scenario_module, "run_transaction", "transactions")
    for name in ("access", "touch", "prefetch", "traverse_refs_many",
                 "end_transaction", "write_record", "write_records",
                 "insert_record", "delete_record", "flush", "current_order"):
        clock.wrap(Session, name, "session")
    clock.wrap(Measurement, "__enter__", "session")
    clock.wrap(Measurement, "__exit__", "session")
    for name in ("observe_access", "on_transaction_end"):
        clock.wrap(DSTCPolicy, name, "clustering.observe")

    clock.wrap(SQLiteBackend, "read_object", "backends.read")
    for name in ("read_many", "traverse_refs_many", "current_order"):
        clock.wrap(SQLiteBackend, name, "backends.read", rows=True)
    for name in ("write_object", "write_many", "insert_object",
                 "delete_object", "flush"):
        clock.wrap(SQLiteBackend, name, "backends.write")

    for module in (sqlite_module, storage_module):
        for name in ("decode_object", "decode_object_lazy", "decode_refs"):
            if hasattr(module, name):
                clock.wrap(module, name, "serializer.decode")
        clock.wrap(module, "encode_object", "serializer.encode")

    clock.wrap(ObjectStore, "read_object", "store.read")
    # BufferPool has no public eviction method: _evict_one is the seam
    # every capacity eviction passes through (it calls back into
    # SwizzleTable.unswizzle_page, which drop_caches also uses).
    clock.wrap(BufferPool, "_evict_one", "store.evict")
    clock.wrap(SwizzleTable, "unswizzle_page", "store.evict")
