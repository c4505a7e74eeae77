"""Run manifest and the host memory-bandwidth probe."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

_CACHE_SYSFS = Path("/sys/devices/system/cpu/cpu0/cache")


def _parse_size(text: str) -> int:
    text = text.strip().upper()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def llc_bytes() -> int | None:
    """Size of the highest-level cache cpu0 reports, or None."""
    best: tuple[int, int] | None = None
    for idx in sorted(_CACHE_SYSFS.glob("index*")):
        try:
            level = int((idx / "level").read_text())
            size = _parse_size((idx / "size").read_text())
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return best[1] if best else None


def _available_bytes() -> int | None:
    """MemAvailable, capped by the cgroup's remaining memory limit."""
    avail = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                avail = int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        limit = Path("/sys/fs/cgroup/memory.max").read_text().strip()
        used = int(Path("/sys/fs/cgroup/memory.current").read_text())
        if limit != "max":
            room = int(limit) - used
            avail = room if avail is None else min(avail, room)
    except (OSError, ValueError):
        pass
    return avail


def stream_probe(llc: int | None, *, reps: int = 5) -> dict:
    """STREAM-style copy bandwidth over a working set of 4x the LLC.

    Two float64 arrays of ``2 * LLC`` bytes each; the reported rate is
    the median over ``reps`` copies of computed bytes (one read plus
    one write per element) per second.  When the host cannot spare
    twice the working set, the arrays shrink to fit and
    ``below_4x_llc`` says so.
    """
    want = 4 * (llc or 64 << 20)
    avail = _available_bytes()
    size = want
    if avail is not None and 2 * want > avail:
        size = max(avail // 4, 16 << 20)
    n = size // 16
    a = np.ones(n)
    b = np.zeros(n)
    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(b, a)
        rates.append(2 * a.nbytes / (time.perf_counter() - t0))
    del a, b
    return {
        "stream_gbps": float(np.median(rates)) / 1e9,
        "working_set_bytes": int(2 * n * 8),
        "llc_bytes": llc,
        "below_4x_llc": 2 * n * 8 < want,
    }


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def manifest(root: Path) -> dict:
    """What ran: interpreter, libraries, compiler flags, CPUs, caches, source."""
    import cffi

    from repro.fd.ckernels.build import COMPILE_ARGS

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cffi": cffi.__version__,
        "c_compile_args": list(COMPILE_ARGS),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(root),
        "src_digest": _source_digest(root / "src"),
        "llc_bytes": llc_bytes(),
        "argv": sys.argv[1:],
    }
