"""The step-level workloads, their correctness gate and the rank program.

Every workload is a closed loop of whole RK4 steps through the shared
engine (:class:`repro.engine.Integrator`); one step is one engine
iteration — dt request, advance, user observers — timed by
:class:`StepClock`.  Step counts are fixed by ``--seconds`` (the rates
below were set on a 2-CPU x86-64 container so a run measures about
that long), so a run does the same work on any host.

* ``block-c`` — serial dynamo, 32x64x128 per panel, compiled kernels,
  fixed dt, no filter: kernel, RK4 algebra and state-layout changes.
* ``demo-fused`` — the ``repro-paper run`` demo (11x14x42, CFL dt,
  Shapiro filter, energy history) on the fused NumPy kernels: per-call
  Python overhead, CFL, filter and observers.
* ``ranks2-ckpt`` — a 2-rank socket world (one Yin rank, one Yang
  rank) at 32x64x128 on compiled kernels, checkpointing every quarter
  of the run, then a serial restart from the last mid-run family that
  continues to the end: launch, overset comm, checkpoint I/O, digests.

The serial workloads also write and restore checkpoints — probes
spread over the run (:class:`Probes`) that also sample set-up and the
first step — so every workload reports the same metrics.  Correctness
gate, outside every timed region: state fingerprints compared bitwise
against a configuration ``repro-paper verify-bitwise`` proves equal,
``verify_checkpoint`` on every archive, a bitwise round trip through
every serial restore, and finite final states.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.checkers.fingerprint import fingerprint_state
from repro.core.checkpoint import verify_checkpoint
from repro.core.config import RunConfig
from repro.core.yycore import YinYangDynamo
from repro.engine import (
    CadenceController,
    CheckpointObserver,
    HistoryRecorder,
    Integrator,
    StepObserver,
)
from repro.fd.stencils import stencil_counts
from repro.grids.component import Panel
from repro.mhd.parameters import MHDParameters
from repro.parallel.parallel_solver import ParallelYinYangDynamo
from repro.parallel.tracing import CommTrace, TracedCommunicator

from stepbench.spans import STEP, Tracer, instrument, root_seconds, self_times, step_layers

pc = time.perf_counter

#: (set-up, checkpoint) probes per serial run (see :class:`Probes`)
PROBES = {"block-c": (10, 5), "demo-fused": (32, 32)}
#: launches per ``ranks2-ckpt`` run: one-step set-up launches before and
#: after the checkpointing one; ``setup_s`` is the median over all
LAUNCHES = 7
#: seconds one :meth:`HostSpeed.sample` takes at the host's nominal speed
#: (its median on the 2-CPU x86-64 container the benchmark was tuned on)
REF_NOMINAL_S = 3.5e-3
#: host-speed samples per run (at most; one after every few steps)
SPEED_SAMPLES = 64
#: metrics that are times, reported at nominal host speed
TIME_METRICS = ("setup_s", "first_step_s", "step_s_p50", "step_s_tail", "run_s",
                "ckpt_write_s", "restart_s")
#: fixed dt of the 32x64x128 workloads (a third of the initial CFL limit)
BLOCK_DT = 5e-4
#: steps compared bitwise against the reference configuration
GATE_PREFIX = {"block-c": 2, "demo-fused": 100}
#: compulsory bytes of one panel RHS per grid point: 8 fields read, 8 written
RHS_BYTES_PER_POINT = 16 * 8


class WorkloadError(RuntimeError):
    """The workload could not run as specified (no result is printed)."""


@dataclass(frozen=True)
class Workload:
    name: str
    kernel: str  #: REPRO_KERNELS value the run must resolve to
    launcher: str  #: "serial" or a launcher registry name


WORKLOADS = {w.name: w for w in (Workload("block-c", "c", "serial"),
                                 Workload("demo-fused", "fused", "serial"),
                                 Workload("ranks2-ckpt", "c", "socket"))}


@dataclass
class Outcome:
    """One pass of a workload: end-to-end metrics, gate tally, spans."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: dict = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    #: pid -> spans (``Tracer.spans``), for the trace-event file
    spans: dict[int, list] = field(default_factory=dict)


# ---- shared pieces -------------------------------------------------------------


def block_config(seed: int) -> RunConfig:
    return RunConfig(nr=32, nth=64, nph=128, dt=BLOCK_DT, seed=seed)


def demo_config(seed: int) -> RunConfig:
    """The configuration ``repro-paper run`` builds at its default grid."""
    return RunConfig(nr=11, nth=14, nph=42, params=MHDParameters.laptop_demo(),
                     amp_temperature=2e-2, filter_strength=0.05, seed=seed)


def steps_for(name: str, seconds: int) -> tuple[int, int]:
    """``(n_steps, checkpoint_every)`` of a run asked to last ``seconds``."""
    if name == "block-c":
        return max(4, round(1.4 * seconds)), 0
    if name == "demo-fused":
        return max(GATE_PREFIX[name], round(22 * seconds)), 0
    every = max(2, round(0.3 * seconds))
    return 4 * every, every


def set_kernels(name: str) -> None:
    """Kernel backends are read from the environment at construction."""
    os.environ["REPRO_KERNELS"] = name


def require_backend(what: str, resolved: str, spec: str) -> None:
    if resolved != spec:
        raise WorkloadError(
            f"{what} resolved to {resolved!r} but the workload requires "
            f"{spec!r}; refusing to measure it under the wrong name"
        )


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    q = max(0.0, np.floor(1000.0 * (n - 10) / n) / 10.0) if n else 0.0
    return float(np.percentile(values, q)) if n else float("nan"), float(q)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finite(states) -> bool:
    items = states.values() if isinstance(states, dict) else [states]
    return all(bool(np.isfinite(a).all()) for s in items for a in s.arrays())


def perturb_one_ulp(states) -> None:
    """Move one interior density value up by one unit in the last place."""
    s = states[Panel.YIN] if isinstance(states, dict) else states
    idx = tuple(n // 2 for n in s.rho.shape)
    s.rho[idx] = np.nextafter(s.rho[idx], np.inf)


def paused(tracer: Tracer | None):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


class StepClock(StepObserver):
    """Times each engine iteration and is its dt controller.

    The step opens when the engine asks for the next dt and closes in
    ``after_step``; place the clock after the user observers and before
    the gate observers, so gate work falls between steps.  With a
    tracer the step is the ``engine.step`` span.  ``perturb_at`` moves
    the state one ULP after that step (the gate's self-test).
    """

    def __init__(self, controller, tracer: Tracer | None = None,
                 perturb_at: int | None = None):
        self.inner = controller
        self.tracer = tracer
        self.perturb_at = perturb_at
        self.windows: list[tuple[float, float]] = []
        #: stencil sweeps executed inside the steps
        self.stencils = {"diff": 0, "diff2": 0}
        self._t0 = 0.0
        self._st0: dict[str, int] = {}
        self._span: int | None = None

    def next_dt(self, driver, k: int):
        self._st0 = stencil_counts()
        self._t0 = pc()
        if self.tracer is not None:
            self._span = self.tracer.begin(STEP)
        dt = self.inner.next_dt(driver, k)
        if dt is None and self._span is not None:
            self.tracer.drop(self._span)
            self._span = None
        return dt

    def after_step(self, event) -> None:
        if self._span is not None:
            self.tracer.end(self._span)
            self._span = None
        self.windows.append((self._t0, pc()))
        for key, n in stencil_counts().items():
            self.stencils[key] += n - self._st0[key]
        if self.perturb_at == event.step:
            perturb_one_ulp(event.driver.state)

    @property
    def times(self) -> list[float]:
        return [b - a for a, b in self.windows]


class Traced(StepObserver):
    """A user observer whose ``after_step`` is an ``engine.observer`` span."""

    def __init__(self, inner: StepObserver, tracer: Tracer | None):
        self.inner = inner
        self.tracer = tracer

    def on_start(self, driver) -> None:
        self.inner.on_start(driver)

    def after_step(self, event) -> None:
        if self.tracer is None:
            self.inner.after_step(event)
        else:
            with self.tracer.span("engine.observer"):
                self.inner.after_step(event)

    def on_finish(self, driver) -> None:
        self.inner.on_finish(driver)


class TimedCheckpoints(CheckpointObserver):
    """Periodic checkpoints, recording each save's wall seconds."""

    def __init__(self, directory, every: int):
        super().__init__(directory, every)
        self.save_seconds: list[float] = []

    def after_step(self, event) -> None:
        n, t0 = len(self.paths), pc()
        super().after_step(event)
        if len(self.paths) > n:
            self.save_seconds.append(pc() - t0)


class HostSpeed(StepObserver):
    """Samples of a fixed reference workload, taken between timed regions.

    The shared host's speed swings by up to ~45 % within minutes, the
    same for every kind of work (a C stencil step, zlib compression and
    the interpreter move together; correlation ~0.9 against this probe),
    so raw times spread more across runs than any useful bound.  Each
    run therefore reports its times at nominal host speed:
    ``raw * REF_NOMINAL_S / median(sample seconds)``.  The probe is an
    interpreter loop plus in-cache NumPy passes, independent of the
    program; as an observer it samples after every ``every``-th step.
    """

    def __init__(self, every: int = 1):
        self.every = every
        self.seconds: list[float] = []
        self._a = np.linspace(1.0, 2.0, 50_000)
        self._o = np.empty_like(self._a)

    def sample(self) -> None:
        t0 = pc()
        x = 0
        for i in range(30_000):
            x += i * i
        for _ in range(20):
            np.sqrt(self._a, out=self._o)
            self._o *= 1.0001
        self.seconds.append(pc() - t0)

    def after_step(self, event) -> None:
        if event.step % self.every == 0:
            self.sample()


def at_nominal_speed(metrics: dict, samples: list[float]) -> tuple[dict, dict]:
    """``(metrics with times scaled to nominal host speed, raw times)``."""
    factor = REF_NOMINAL_S / statistics.median(samples)
    raw = {k: metrics[k] for k in TIME_METRICS}
    return {k: v * factor if k in raw else v for k, v in metrics.items()}, raw


class GateFingerprints(StepObserver):
    """Root digests of the state after the given steps (untimed, untraced)."""

    def __init__(self, steps, tracer: Tracer | None):
        self.steps = set(steps)
        self.tracer = tracer
        self.roots: dict[int, str] = {}

    def after_step(self, event) -> None:
        if event.step in self.steps:
            with paused(self.tracer):
                self.roots[event.step] = fingerprint_state(event.driver.state).root


class Probes(StepObserver):
    """Set-up and checkpoint probes spread evenly over a serial run.

    Every ``every`` steps (after the step clock, so outside the step
    times) a probe builds a fresh driver and takes its first step; every
    ``ckpt_every``-th probe then also writes the running state as a
    checkpoint and restores it into the fresh driver.  The host's speed
    drifts by tens of percent within seconds, so samples spread over the
    run like the steps are, not taken in one burst, keep run-to-run
    spread down.  A restored state that is not bitwise the written one
    counts as a failure.
    """

    def __init__(self, config: RunConfig, kernel: str, every: int,
                 ckpt_every: int, workdir: Path, tracer: Tracer | None):
        self.config, self.kernel = config, kernel
        self.every, self.ckpt_every = every, ckpt_every
        self.workdir, self.tracer = workdir, tracer
        self.setups: list[float] = []
        self.firsts: list[float] = []
        self.saves: list[float] = []
        self.restores: list[float] = []
        self.paths: list[Path] = []
        self.mismatches = 0
        #: peak RSS before the first probe's extra driver existed
        self.rss_mb: float | None = None

    def after_step(self, event) -> None:
        if event.step % self.every:
            return
        if self.rss_mb is None:
            self.rss_mb = peak_rss_mb()
        t0 = pc()
        fresh = YinYangDynamo(self.config)
        self.setups.append(pc() - t0)
        require_backend("probe kernel backend", _resolved(fresh), self.kernel)
        t0 = pc()
        fresh.step()
        self.firsts.append(pc() - t0)
        if (len(self.firsts) - 1) % self.ckpt_every:
            return
        path = self.workdir / f"probe_{event.step:06d}.npz"
        t0 = pc()
        self.paths.append(event.driver.save_checkpoint(path))
        self.saves.append(pc() - t0)
        t0 = pc()
        fresh.restore_checkpoint(self.paths[-1])
        self.restores.append(pc() - t0)
        with paused(self.tracer):
            same = (fingerprint_state(fresh.state).root
                    == fingerprint_state(event.driver.state).root)
        self.mismatches += not same


def step_stats(times: list[float]) -> dict:
    """first step, then median and tail of the rest."""
    rest = times[1:] or times
    value, q = tail(rest)
    return {"first_step_s": times[0], "step_s_p50": float(np.median(rest)),
            "step_s_tail": value, "tail_pct": q, "tail_n": len(rest)}


def layer_metrics(spans: list, *, n_saves: int, n_restores: int,
                  points_per_rhs: int, stencils: dict, n_steps: int) -> dict:
    """Per-layer metrics of one process's spans (see ``BENCHMARK.json``)."""
    sec, calls, n, step_mean = step_layers(spans)
    selfs = self_times(spans)
    accounted = sum(sec.values())
    if abs(accounted - step_mean) > 1e-9 + 1e-6 * step_mean:
        raise WorkloadError(f"trace accounting broken: layer self times sum to "
                            f"{accounted} s per step, traced step is {step_mean} s")
    get = sec.get
    out = {
        "fd.rhs_s": get("fd.rhs", 0.0),
        "fd.rhs_calls": calls.get("fd.rhs", 0),
        "fd.stencil_diff": stencils["diff"] / max(n_steps, 1),
        "fd.stencil_diff2": stencils["diff2"] / max(n_steps, 1),
        "fd.rhs_mb_computed": calls.get("fd.rhs", 0) * points_per_rhs
        * RHS_BYTES_PER_POINT / 1e6,
        "core.base_residual_s": get("core.base_residual", 0.0),
        "mhd.rk4_algebra_s": get("mhd.rk4_algebra", 0.0),
        "mhd.rk4_algebra_calls": calls.get("mhd.rk4_algebra", 0),
        "mhd.wall_bc_s": get("mhd.wall_bc", 0.0),
        "mhd.cfl_s": get("mhd.cfl", 0.0),
        "mhd.filter_s": get("mhd.filter", 0.0),
        "grids.overset_s": get("grids.overset", 0.0),
        "grids.overset_calls": calls.get("grids.overset", 0),
        "engine.observer_s": get("engine.observer", 0.0),
        "engine.step_self_s": get(STEP, 0.0),
        "parallel.overset_exchange_s": get("parallel.overset_exchange", 0.0),
        "parallel.halo_s": get("parallel.halo", 0.0),
    }
    ckpt_save = sum(t for s, t in zip(spans, selfs) if s[0] == "core.ckpt_save")
    ckpt_load = sum(t for s, t in zip(spans, selfs) if s[0] == "core.ckpt_load")
    digest = sum(t for s, t in zip(spans, selfs)
                 if s[0] == "checkers.digest" and s[3] >= 0
                 and spans[s[3]][0] == "core.ckpt_save")
    out["core.ckpt_save_s"] = ckpt_save / max(n_saves, 1)
    out["core.ckpt_load_s"] = ckpt_load / max(n_restores, 1)
    out["checkers.digest_s"] = digest / max(n_saves, 1)
    out["parallel.gather_s"] = root_seconds(spans, "parallel.gather")
    # bookkeeping for the accounting check, not reported
    out["_traced_step_s"] = step_mean
    out["_accounted_s"] = accounted
    out["_steps"] = n
    return out


# ---- serial workloads ---------------------------------------------------------------


def _resolved(dyn: YinYangDynamo) -> str:
    kinds = {eq.kernel_backend for eq in dyn.equations.values()}
    return kinds.pop() if len(kinds) == 1 else "+".join(sorted(kinds))


def _reference_root(config: RunConfig, kernel: str, n_steps: int) -> str:
    """State fingerprint after ``n_steps`` of the reference configuration."""
    set_kernels(kernel)
    ref = YinYangDynamo(config)
    Integrator(ref, CadenceController.from_config(config, n_steps)).run()
    require_backend(f"gate reference kernels ({kernel})", _resolved(ref), kernel)
    return fingerprint_state(ref.state).root


def run_serial(wl: Workload, config: RunConfig, n_steps: int, workdir: Path, *,
               tracer: Tracer | None = None, history_every: int = 0,
               ref_kernel: str, gate_steps: int, probes: tuple[int, int],
               perturb_at: int | None = None) -> Outcome:
    with instrument(tracer) if tracer is not None else contextlib.nullcontext():
        set_kernels(wl.kernel)
        t0 = pc()
        dyn = YinYangDynamo(config)
        setup = pc() - t0
        require_backend("kernel backend", _resolved(dyn), wl.kernel)
        clock = StepClock(CadenceController.from_config(config, n_steps),
                          tracer, perturb_at)
        gate = GateFingerprints({gate_steps}, tracer)
        n_setup, n_ckpt = probes
        probe = Probes(config, wl.kernel, max(1, n_steps // n_setup),
                       -(-n_setup // n_ckpt), workdir, tracer)
        observers = []
        if history_every:
            observers.append(Traced(HistoryRecorder(history_every), tracer))
        speed = HostSpeed(max(1, n_steps // SPEED_SAMPLES))
        observers += [clock, gate, probe, speed]
        Integrator(dyn, clock, observers).run()
        # fallback can happen lazily on the first compiled evaluation
        require_backend("kernel backend after the run", _resolved(dyn), wl.kernel)
    failed = probe.mismatches + (not finite(dyn.state))
    for path in probe.paths:
        try:
            verify_checkpoint(path)
        except ValueError:
            failed += 1
    ref = _reference_root(config, ref_kernel, gate_steps)
    failed += gate.roots.get(gate_steps) != ref
    stats = step_stats(clock.times)
    metrics = {
        "setup_s": statistics.median([setup] + probe.setups),
        "first_step_s": statistics.median([stats["first_step_s"]] + probe.firsts),
        "step_s_p50": stats["step_s_p50"],
        "step_s_tail": stats["step_s_tail"],
        "run_s": setup + sum(clock.times) + statistics.median(probe.saves),
        "ckpt_write_s": statistics.median(probe.saves),
        "restart_s": statistics.median(probe.restores),
        "ckpt_mb": probe.paths[0].stat().st_size / 1e6,
        "peak_rss_mb": probe.rss_mb,
    }
    metrics, raw = at_nominal_speed(metrics, speed.seconds)
    n_probes = len(probe.saves)
    out = Outcome(metrics, attempted=n_steps + 2 * n_probes + 1, failed=failed,
                  notes={"kernel": _resolved(dyn), "launcher": "serial",
                         "grid": [config.nr, config.nth, config.nph],
                         "steps": n_steps, "setup_probes": len(probe.firsts),
                         "ckpt_probes": n_probes,
                         "raw_times_s": raw,
                         "host_speed_probe_s": statistics.median(speed.seconds),
                         "tail_pct": stats["tail_pct"], "tail_n": stats["tail_n"],
                         "gate_steps": gate_steps,
                         "gate_reference": f"{ref_kernel} kernels"})
    if tracer is not None:
        shape = dyn.grid.panel(Panel.YIN).shape
        layers = layer_metrics(
            tracer.spans, n_saves=n_probes, n_restores=n_probes,
            points_per_rhs=int(np.prod(shape)),
            stencils=clock.stencils, n_steps=n_steps)
        layers.update({"parallel.launch_s": 0.0, "parallel.teardown_s": 0.0,
                       "parallel.msgs_per_step": 0, "parallel.bytes_per_step": 0,
                       "parallel.rank_imbalance": 0.0})
        out.layers = layers
        out.spans = {0: tracer.spans}
    return out


def run_block_c(seed: int, seconds: int, workdir: Path, tracer=None) -> Outcome:
    n, _ = steps_for("block-c", seconds)
    return run_serial(WORKLOADS["block-c"], block_config(seed), n, workdir,
                      tracer=tracer, ref_kernel="fused",
                      gate_steps=min(n, GATE_PREFIX["block-c"]),
                      probes=PROBES["block-c"])


def run_demo_fused(seed: int, seconds: int, workdir: Path, tracer=None) -> Outcome:
    n, _ = steps_for("demo-fused", seconds)
    return run_serial(WORKLOADS["demo-fused"], demo_config(seed), n, workdir,
                      tracer=tracer, history_every=5, ref_kernel="c",
                      gate_steps=min(n, GATE_PREFIX["demo-fused"]),
                      probes=PROBES["demo-fused"])


# ---- the 2-rank world ---------------------------------------------------------------


def rank_program(world, spec: dict) -> dict:
    """One rank of the ``ranks2-ckpt`` world: build, run, gather.

    Module-level so the socket launcher can pickle it by import path
    for its spawned workers.  ``spec["every"] == 0`` writes no
    checkpoints (the one-step set-up launches).
    """
    t_entry = pc()
    tracer = Tracer() if spec["trace"] else None
    comm_trace = None
    with instrument(tracer) if tracer is not None else contextlib.nullcontext():
        comm = world
        if tracer is not None:
            comm_trace = CommTrace()
            comm = TracedCommunicator(world, comm_trace)
        config = spec["config"]
        solver = ParallelYinYangDynamo(comm, config, 1, 1, overlap=False)
        out = {"rank": world.rank, "entry": t_entry, "ready": pc()}
        clock = StepClock(CadenceController.from_config(config, spec["steps"]),
                          tracer)
        speed = HostSpeed(max(1, spec["steps"] // SPEED_SAMPLES))
        if not spec["every"]:
            Integrator(solver, clock, [clock, speed]).run()
            out.update(windows=clock.windows, speed=speed.seconds, exit=pc())
            return out
        ckpt = TimedCheckpoints(spec["ckpt_dir"], spec["every"])
        Integrator(solver, clock, [Traced(ckpt, tracer), clock, speed]).run()
        pair = solver.gather_state()
        with paused(tracer):
            root = fingerprint_state(pair).root if pair is not None else None
            ok = finite(solver.state)
        out.update({
            "kernel": solver.equations.kernel_backend,
            "windows": clock.windows,
            "speed": speed.seconds,
            "save_seconds": ckpt.save_seconds,
            "paths": [str(p) for p in ckpt.paths],
            "root": root,
            "finite": ok,
            "rss_mb": peak_rss_mb(),
            "stencils": clock.stencils,
            "points": int(np.prod(solver.local_patch.shape)),
        })
        if tracer is not None:
            out["spans"] = tracer.spans
            out["messages"] = [(r.timestamp, r.nbytes) for r in comm_trace.records]
    out["exit"] = pc()
    return out


class Reloads(StepObserver):
    """After each step, time one more restore of ``path`` into ``spare``."""

    def __init__(self, spare: YinYangDynamo, path: Path, seconds: list[float]):
        self.spare, self.path, self.seconds = spare, path, seconds

    def after_step(self, event) -> None:
        t0 = pc()
        self.spare.restore_checkpoint(self.path)
        self.seconds.append(pc() - t0)


def _launch(launcher, spec: dict, timeout: float) -> tuple[list[dict], float, float]:
    t_call = pc()
    results = launcher.run(2, rank_program, spec, timeout=timeout)
    return results, t_call, pc()


def _rank_layers(r: dict, n_saves: int) -> dict:
    layers = layer_metrics(r["spans"], n_saves=n_saves, n_restores=1,
                           points_per_rhs=r["points"], stencils=r["stencils"],
                           n_steps=len(r["windows"]))
    inside = [nb for t, nb in r["messages"]
              if any(a <= t <= b for a, b in r["windows"])]
    n = max(len(r["windows"]), 1)
    layers["parallel.msgs_per_step"] = len(inside) / n
    layers["parallel.bytes_per_step"] = sum(inside) / n
    return layers


def run_ranks2_ckpt(seed: int, seconds: int, workdir: Path, tracer=None) -> Outcome:
    from repro.parallel.backends import get_backend, select

    wl = WORKLOADS["ranks2-ckpt"]
    config = block_config(seed)
    n_steps, every = steps_for(wl.name, seconds)
    require_backend("launcher", select(wl.launcher), wl.launcher)
    set_kernels(wl.kernel)  # spawned ranks inherit the environment
    launcher = get_backend(wl.launcher)
    timeout = 150.0
    setups, firsts = [], []
    speed = HostSpeed()

    def setup_launch() -> None:
        res, t_call, _ = _launch(launcher, {"config": config, "steps": 1,
                                            "every": 0, "trace": False}, timeout)
        setups.append(max(r["ready"] for r in res) - t_call)
        firsts.append(max(b - a for r in res for a, b in r["windows"][:1]))
        for r in res:
            speed.seconds += r["speed"]

    for _ in range((LAUNCHES - 1) // 2):
        setup_launch()
    ckpt_dir = workdir / "ckpt"
    spec = {"config": config, "steps": n_steps, "every": every,
            "ckpt_dir": str(ckpt_dir), "trace": tracer is not None}
    res, t_call, t_ret = _launch(launcher, spec, timeout)
    setups.append(max(r["ready"] for r in res) - t_call)
    firsts.append(max(r["windows"][0][1] - r["windows"][0][0] for r in res))
    for r in res:
        require_backend(f"rank {r['rank']} kernel backend", r["kernel"], wl.kernel)
        speed.seconds += r["speed"]
    steps = [max(r["windows"][i][1] - r["windows"][i][0] for r in res)
             for i in range(n_steps)]
    families = len(res[0]["save_seconds"])
    writes = [max(r["save_seconds"][i] for r in res) for i in range(families)]
    family_paths = list(zip(*(r["paths"] for r in res)))
    family_mb = [sum(Path(p).stat().st_size for p in fam) / 1e6
                 for fam in family_paths]
    failed = sum(not r["finite"] for r in res)
    for fam in family_paths:
        for path in fam:
            try:
                verify_checkpoint(path)
            except ValueError:
                failed += 1

    # serial restart from the last mid-run family (elastic 2 -> 1 read path)
    restart_step = every * (families - 1)
    base = ckpt_dir / f"checkpoint_{restart_step:06d}.npz"
    with instrument(tracer) if tracer is not None else contextlib.nullcontext():
        set_kernels(wl.kernel)
        t0 = pc()
        dyn = YinYangDynamo(config)
        construct = pc() - t0
        t0 = pc()
        dyn.restore_checkpoint(base)
        restores = [pc() - t0]
        require_backend("restart kernel backend", _resolved(dyn), wl.kernel)
        # more restart samples, one after each continued step
        reloads = Reloads(YinYangDynamo(config), base, restores)
        clock = StepClock(CadenceController.from_config(config, n_steps - restart_step))
        Integrator(dyn, clock, [clock, reloads, speed]).run()
    for _ in range(LAUNCHES - 1 - (LAUNCHES - 1) // 2):
        setup_launch()
    with paused(tracer):
        failed += fingerprint_state(dyn.state).root != res[0]["root"]
        failed += dyn.step_count != n_steps
    stats = step_stats(steps)
    metrics = {
        "setup_s": statistics.median(setups),
        "first_step_s": statistics.median(firsts + [stats["first_step_s"]]),
        "step_s_p50": stats["step_s_p50"],
        "step_s_tail": stats["step_s_tail"],
        "run_s": (t_ret - t_call) + construct + restores[0] + sum(clock.times),
        "ckpt_write_s": statistics.median(writes),
        "restart_s": statistics.median(restores),
        "ckpt_mb": statistics.median(family_mb),
        "peak_rss_mb": sum(r["rss_mb"] for r in res),
    }
    metrics, raw = at_nominal_speed(metrics, speed.seconds)
    out = Outcome(metrics, failed=failed,
                  attempted=n_steps + 2 * families + len(restores) + 1,
                  notes={"kernel": res[0]["kernel"], "launcher": wl.launcher,
                         "grid": [config.nr, config.nth, config.nph],
                         "ranks": len(res), "steps": n_steps,
                         "raw_times_s": raw,
                         "host_speed_probe_s": statistics.median(speed.seconds),
                         "checkpoint_every": every, "families": families,
                         "restart_from_step": restart_step,
                         "tail_pct": stats["tail_pct"], "tail_n": stats["tail_n"],
                         "gate_reference": "serial restart vs gathered 2-rank state"})
    if tracer is not None:
        per_rank = [_rank_layers(r, families) for r in res]
        layers = {k: max(p[k] for p in per_rank) for k in per_rank[0]}
        load = sum(t for s, t in zip(tracer.spans, self_times(tracer.spans))
                   if s[0] == "core.ckpt_load")
        layers["core.ckpt_load_s"] = load / len(restores)
        layers["parallel.launch_s"] = max(r["entry"] for r in res) - t_call
        layers["parallel.teardown_s"] = t_ret - max(r["exit"] for r in res)
        # busy = the traced step minus the time spent inside exchanges
        busy = [p["_traced_step_s"] - p["parallel.overset_exchange_s"]
                - p["parallel.halo_s"] for p in per_rank]
        layers["parallel.rank_imbalance"] = max(busy) / (sum(busy) / len(busy)) - 1.0
        out.layers = layers
        out.spans = {r["rank"]: r["spans"] for r in res}
        out.spans[len(res)] = tracer.spans
    return out


RUNNERS = {"block-c": run_block_c, "demo-fused": run_demo_fused,
           "ranks2-ckpt": run_ranks2_ckpt}


def run(name: str, seed: int, seconds: int, workdir: Path, *,
        tracer: Tracer | None = None) -> Outcome:
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return RUNNERS[name](seed, seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
