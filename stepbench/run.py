"""Step-level benchmark of the Yin-Yang dynamo — command-line entry.

Run from the root of a checkout::

    python3 stepbench/run.py --workload block-c --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced and then traced, and prints every per-layer metric
plus the tracing overhead, writing the merged trace-event JSON under
the build directory.  The last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; ``failed/attempted``
is the failure fraction (steps, checkpoints, restores and the run's
bitwise gate).  ``--self-test`` checks that the gate reports a one-ULP
perturbation injected by the step clock.

Build outputs (compiled kernels, checkpoints, traces, temporaries) go
to ``$CARGO_TARGET_DIR`` or ``.bench_build`` in the checkout.  Importing
this file only sets ``sys.path``: spawned rank processes re-import it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_HERE = str(Path(__file__).resolve().parent)
sys.path[:] = [p for p in sys.path if p != _HERE]
for _p in (str(ROOT), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

#: (name, unit) of the end-to-end metrics, printed by every --trace 0 run
END_TO_END = (
    ("setup_s", "s"), ("first_step_s", "s"), ("step_s_p50", "s"),
    ("step_s_tail", "s"), ("run_s", "s"), ("ckpt_write_s", "s"),
    ("restart_s", "s"), ("ckpt_mb", "MB"), ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics, printed by every --trace 1 run
PER_LAYER = (
    ("fd.rhs_s", "s"), ("fd.rhs_calls", "count"), ("fd.stencil_diff", "count"),
    ("fd.stencil_diff2", "count"), ("fd.rhs_mb_computed", "MB"),
    ("fd.rhs_roofline_frac", "frac"),
    ("core.base_residual_s", "s"), ("core.ckpt_save_s", "s"),
    ("core.ckpt_load_s", "s"),
    ("mhd.rk4_algebra_s", "s"), ("mhd.rk4_algebra_calls", "count"),
    ("mhd.wall_bc_s", "s"), ("mhd.cfl_s", "s"), ("mhd.filter_s", "s"),
    ("grids.overset_s", "s"), ("grids.overset_calls", "count"),
    ("engine.observer_s", "s"), ("engine.step_self_s", "s"),
    ("parallel.launch_s", "s"), ("parallel.teardown_s", "s"),
    ("parallel.overset_exchange_s", "s"), ("parallel.halo_s", "s"),
    ("parallel.msgs_per_step", "count"), ("parallel.bytes_per_step", "B"),
    ("parallel.gather_s", "s"), ("parallel.rank_imbalance", "frac"),
    ("checkers.digest_s", "s"),
    ("host.stream_gbps", "GB/s"), ("trace_overhead_frac", "frac"),
)


def _build_dir() -> Path:
    import os

    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else Path.cwd() / d


def _prepare(build: Path) -> None:
    """Pin the environment: no inherited REPRO_* switch changes what runs,
    and every file the run writes stays under ``build``."""
    import os
    import tempfile

    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["REPRO_CKERNELS_CACHE"] = str(build / "ckernels")


def _build_kernels() -> None:
    """Compile the C kernels into the cache before anything is timed.

    The compile runs in a child process (a no-op once cached), so the
    compiler's memory never shows in this process's peak RSS; a failure
    leaves the cache empty and the compiled workloads refuse to run.
    """
    import subprocess

    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from repro.fd.ckernels.build import load; load()")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True)
    if proc.returncode:
        print(f"stepbench: compiled kernels unavailable:\n{proc.stderr}",
              file=sys.stderr)


def _work_dir(build: Path) -> Path:
    """Scratch space for one pass's checkpoints (removed when it ends)."""
    import os

    return build / f"work-{os.getpid()}"


def _print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:>14.6g} {unit}")


def _run_traced(wl, args, build: Path, manifest: dict):
    from stepbench import hostinfo, spans, workloads

    probe = hostinfo.stream_probe(manifest["llc_bytes"])
    manifest["stream_probe"] = probe
    plain = workloads.run(wl.name, args.seed, args.seconds, _work_dir(build))
    tracer = spans.Tracer()
    traced = workloads.run(wl.name, args.seed, args.seconds, _work_dir(build),
                           tracer=tracer)
    layers = dict(traced.layers)
    for key in [k for k in layers if k.startswith("_")]:
        del layers[key]
    bandwidth = layers["fd.rhs_mb_computed"] * 1e6 / max(layers["fd.rhs_s"], 1e-12)
    layers["fd.rhs_roofline_frac"] = bandwidth / (probe["stream_gbps"] * 1e9)
    layers["host.stream_gbps"] = probe["stream_gbps"]
    layers["trace_overhead_frac"] = (traced.metrics["step_s_p50"]
                                     / plain.metrics["step_s_p50"] - 1.0)
    step = traced.layers["_traced_step_s"]
    print(f"trace accounting: layer self times + engine.step_self_s = "
          f"{traced.layers['_accounted_s']:.6f} s, traced step = {step:.6f} s "
          f"(mean over {traced.layers['_steps']} steps, slowest rank)")
    labels = {pid: f"rank {pid}" for pid in traced.spans}
    if len(traced.spans) > 1:
        labels[max(traced.spans)] = "coordinator"
    path = build / "traces" / f"{wl.name}-seed{args.seed}.json"
    spans.write_trace_events(path, traced.spans, labels,
                             {**manifest, **traced.notes})
    print(f"trace events: {path}")
    return plain, traced, layers


def _self_test(build: Path) -> int:
    """The gate must pass a clean tiny run and fail a one-ULP-perturbed one."""
    import shutil

    from repro.core.config import RunConfig
    from stepbench import workloads

    config = RunConfig(nr=8, nth=12, nph=24, dt=workloads.BLOCK_DT, seed=1)
    wl = workloads.WORKLOADS["block-c"]
    verdicts = {}
    for label, perturb_at in (("clean", None), ("one-ULP perturbed", 1)):
        work = _work_dir(build)
        work.mkdir(parents=True, exist_ok=True)
        try:
            out = workloads.run_serial(wl, config, 3, work, ref_kernel="fused",
                                       gate_steps=2, probes=(1, 1),
                                       perturb_at=perturb_at)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        verdicts[label] = out.failed
        print(f"self-test {label}: {out.failed} of {out.attempted} failed")
    ok = verdicts["clean"] == 0 and verdicts["one-ULP perturbed"] > 0
    print("self-test", "PASSED" if ok else "FAILED: the gate missed the perturbation")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("block-c", "demo-fused", "ranks2-ckpt"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"stepbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.self_test:
        parser.error("--workload is required")
    build = _build_dir()
    _prepare(build)

    _build_kernels()
    from stepbench import hostinfo, workloads
    if args.self_test:
        return _self_test(build)

    wl = workloads.WORKLOADS[args.workload]
    manifest = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                **hostinfo.manifest(ROOT)}
    try:
        if args.trace:
            plain, traced, layers = _run_traced(wl, args, build, manifest)
            passes = (plain, traced)
            shown, units = layers, dict(PER_LAYER)
        else:
            plain = workloads.run(wl.name, args.seed, args.seconds, _work_dir(build))
            passes = (plain,)
            shown, units = plain.metrics, dict(END_TO_END)
    except workloads.WorkloadError as exc:
        print(f"stepbench: {exc}", file=sys.stderr)
        return 1
    manifest.update(plain.notes)
    print("manifest " + json.dumps(manifest))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    n = plain.notes
    print(f"step_s_tail is p{n['tail_pct']:g} of {n['tail_n']} steps; "
          f"failed_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    _print_metrics(f"{wl.name} (seed {args.seed}):", shown, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": shown[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if one started.

    Spawned rank processes make this process fork a tracker that only
    exits once this process has exited; unreaped, it would outlive the
    run as an orphan.  ``_stop`` closes its pipe and waits for it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_resource_tracker()
    sys.exit(code)
