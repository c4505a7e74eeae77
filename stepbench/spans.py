"""In-memory span tracer and the layer wrappers of the step benchmark.

The benchmark measures the repository's layers from outside: for the
duration of a traced pass, :func:`instrument` replaces each public call
into a layer module (the :data:`LAYERS` table) with a wrapper that
records a span — name, start, end, parent, rank — and restores the
originals on exit.  The program itself is not edited.

A step is the span ``engine.step``, opened by the benchmark's step
clock (:mod:`stepbench.workloads`) when the engine asks for the next
dt and closed after the last user observer ran.  Every span opened in
between is a descendant of it, so the self times of the step's
descendants plus the step's own self time add up to the step exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

STEP = "engine.step"

#: (module, attribute path, span name).  A function is patched in its
#: module and wherever a ``repro`` module imported it by name.
LAYERS: tuple[tuple[str, str, str], ...] = (
    # repro.fd — the panel RHS kernels (whichever backend resolved)
    ("repro.mhd.equations", "PanelEquations.rhs", "fd.rhs"),
    # repro.core — the driver RHS minus the panel RHS = base residual
    ("repro.core.yycore", "YinYangDynamo.rhs", "core.base_residual"),
    ("repro.parallel.parallel_solver", "ParallelYinYangDynamo.rhs",
     "core.base_residual"),
    ("repro.core.checkpoint", "save_checkpoint", "core.ckpt_save"),
    ("repro.core.checkpoint", "load_checkpoint", "core.ckpt_load"),
    # repro.mhd — RK4 stage/accumulate algebra, walls, CFL, filter
    ("repro.mhd.state", "MHDState.axpy", "mhd.rk4_algebra"),
    ("repro.mhd.state", "MHDState.axpy_into", "mhd.rk4_algebra"),
    ("repro.mhd.state", "MHDState.iadd_scaled", "mhd.rk4_algebra"),
    ("repro.mhd.boundary", "WallBC.apply", "mhd.wall_bc"),
    ("repro.mhd.boundary", "WallBC.apply_columns", "mhd.wall_bc"),
    ("repro.mhd.cfl", "estimate_dt", "mhd.cfl"),
    ("repro.parallel.parallel_solver", "ParallelYinYangDynamo.estimate_dt",
     "mhd.cfl"),
    ("repro.mhd.filter", "filter_state", "mhd.filter"),
    # repro.grids — serial overset interpolation
    ("repro.grids.yinyang", "YinYangGrid.apply_overset_scalar", "grids.overset"),
    ("repro.grids.yinyang", "YinYangGrid.apply_overset_vector", "grids.overset"),
    # repro.parallel — exchanges and the final gather
    ("repro.parallel.overset_comm", "OversetExchanger.exchange_state",
     "parallel.overset_exchange"),
    ("repro.parallel.overset_comm", "OversetExchanger.exchange_state_begin",
     "parallel.overset_exchange"),
    ("repro.parallel.overset_comm", "OversetExchanger.exchange_state_finish",
     "parallel.overset_exchange"),
    ("repro.parallel.halo", "HaloExchanger.exchange", "parallel.halo"),
    ("repro.parallel.halo", "HaloExchanger.exchange_begin", "parallel.halo"),
    ("repro.parallel.halo", "HaloExchanger.exchange_finish", "parallel.halo"),
    ("repro.parallel.parallel_solver", "ParallelYinYangDynamo.gather_state",
     "parallel.gather"),
    # repro.checkers — state digests (checkpoint embedding, fingerprints)
    ("repro.checkers.fingerprint", "states_root_digest", "checkers.digest"),
    ("repro.checkers.fingerprint", "fingerprint_state", "checkers.digest"),
)

#: calls made inside these spans are booked to the enclosing span: the
#: base-residual pass is an ``iadd_scaled`` the driver RHS makes itself
_OPAQUE = {"mhd.rk4_algebra": frozenset({"core.base_residual"})}


class Tracer:
    """Spans of one process (one rank), kept in memory as
    ``[name, start, end, parent]``.

    ``parent`` indexes :attr:`spans` (-1 for a root); a span is appended
    when it opens, so a parent always precedes its children.  Times are
    ``time.perf_counter`` (the system-wide monotonic clock on Linux), so
    the spans of ranks on one host share a time base.
    """

    def __init__(self):
        self.spans: list[list] = []
        #: while False the wrappers call straight through (gate work)
        self.enabled = True
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top_name(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def begin(self, name: str) -> int:
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           stack[-1] if stack else -1])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()
        else:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    def drop(self, idx: int) -> None:
        """Discard the innermost open span (a step the engine never ran)."""
        stack = self._stack()
        if stack and stack[-1] == idx == len(self.spans) - 1:
            stack.pop()
            self.spans.pop()
        else:
            raise RuntimeError("only the newest open span can be dropped")

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside (the correctness gate is not measured)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)


def _wrap(fn, name: str, tracer: Tracer):
    opaque = _OPAQUE.get(name, frozenset())

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled or (opaque and tracer.top_name() in opaque):
            return fn(*args, **kwargs)
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every :data:`LAYERS` call site to record spans; restore on exit."""
    undo: list[tuple[object, str, object]] = []
    try:
        for modname, path, name in LAYERS:
            mod = importlib.import_module(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(_wrap(raw.__func__, name, tracer))
            else:
                new = _wrap(raw, name, tracer)
            undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            if owner is mod:
                # `from module import fn` copies the binding: patch those too
                for other in list(sys.modules.values()):
                    if (other is not mod
                            and getattr(other, "__name__", "").startswith("repro")
                            and other.__dict__.get(attr) is raw):
                        undo.append((other, attr, raw))
                        setattr(other, attr, new)
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


# ---- analysis ---------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover
    (children of one thread are sequential, so their durations add)."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def step_layers(spans: list[list]) -> tuple[dict[str, float], dict[str, int], int, float]:
    """Per-step self seconds and call counts of every layer inside steps.

    Returns ``(seconds, calls, n_steps, traced_step_mean)``; seconds
    and calls are means per step.  The self seconds of all names,
    ``engine.step`` included, sum to the mean traced step.
    """
    root = [0] * len(spans)
    for i, s in enumerate(spans):
        root[i] = i if s[3] < 0 else root[s[3]]
    selfs = self_times(spans)
    steps = [i for i, s in enumerate(spans) if s[0] == STEP and s[3] < 0]
    n = len(steps)
    step_set = set(steps)
    sec: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        if root[i] in step_set:
            sec[s[0]] += selfs[i]
            calls[s[0]] += 1
    total = sum(spans[i][2] - spans[i][1] for i in steps)
    if n:
        sec = {k: v / n for k, v in sec.items()}
        calls = {k: v / n for k, v in calls.items()}
    return dict(sec), dict(calls), n, total / max(n, 1)


def root_seconds(spans: list[list], name: str) -> float:
    """Total duration of the root-level (outside any step) spans ``name``."""
    return sum(s[2] - s[1] for s in spans if s[0] == name and s[3] < 0)


def write_trace_events(path: Path, per_rank: dict[int, list[list]],
                       labels: dict[int, str], metadata: dict) -> None:
    """Merge the ranks' spans into one Chrome trace-event JSON file."""
    t0 = min((s[1] for spans in per_rank.values() for s in spans), default=0.0)
    events: list[dict] = []
    for pid, spans in sorted(per_rank.items()):
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": labels.get(pid, f"rank {pid}")}})
        selfs = self_times(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": 0,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": i, "parent": parent, "self_us": selfs[i] * 1e6},
            })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "metadata": metadata}))
