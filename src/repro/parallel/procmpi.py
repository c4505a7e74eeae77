"""ProcMPI — the process-backed SimMPI: real multi-core rank execution.

One OS **process** per rank (spawn-safe: the rank function and its
arguments travel by pickle, so they must be defined at module level),
with NumPy message payloads carried through a single
``multiprocessing.shared_memory`` arena:

* the launcher creates one shared segment divided into fixed-size
  *slots* (``REPRO_PROCMPI_SLOTS`` x ``REPRO_PROCMPI_SLOT_BYTES``,
  default 128 x 1 MiB) plus a free-slot queue;
* ``Send`` of an ndarray acquires as many slots as the payload needs,
  memcpys the bytes in, and posts a tiny descriptor — ``(comm, source,
  tag, slots, shape, dtype)`` — to the receiver's inbox queue.  Halo
  strips and overset columns therefore move by two memcpys through
  shared pages instead of being pickled through a pipe;
* the receiver copies out and returns the slots to the free queue.
  Non-array payloads (and arrays too large for half the arena) fall
  back to pickling through the descriptor queue.

This module is only the byte mover: the communicator, receive
matching, collectives, result reporting and launch/teardown are the
shared out-of-process runtime of :mod:`repro.parallel.transport`, so
reductions associate identically on every backend and the parallel
solver stays bitwise-equal to the serial one.

Environment
-----------
``REPRO_PROCMPI_SLOTS`` / ``REPRO_PROCMPI_SLOT_BYTES``
    Arena geometry (slot count / slot size in bytes).
``REPRO_SIMMPI_TIMEOUT``
    Blocking-operation guard, shared with the thread backend.
"""

from __future__ import annotations

import contextlib
import json
import os
import queue as _queue
from multiprocessing import shared_memory
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.checkers.hb import PendingOp
from repro.checkers.sanitize import ProtocolViolation
from repro.parallel.frames import ndarray_nbytes
from repro.parallel.simmpi import (
    DeadlockTimeout,
    SimMPIError,
    resolve_timeout,
)
from repro.parallel.transport import (
    SPAWN,
    RankRuntime,
    RankWorld,
    diagnose_deadlock,
    pack_exception,
    run_rank,
)

__all__ = ["ProcMPI", "ProcWorkerError"]

#: Descriptor payload kinds.
_KIND_SLOTS = 0  # ndarray in arena slots: meta = (slots, shape, dtype, nbytes)
_KIND_PICKLE = 1  # anything else: meta = the object itself (queue pickles it)

# ---- launcher registration (repro.parallel.backends) ------------------------------

LAUNCHER_NAME = "process"

#: Registry capabilities record (see ``backends.LauncherCapabilities``).
LAUNCHER_CAPABILITIES = dict(
    picklable_fn=True, cross_host=False, self_launch=True, max_ranks=None,
    nonblocking=True,
)


def launcher_detect() -> tuple[bool, str]:
    """Availability probe: needs POSIX shared memory + spawnable processes."""
    try:
        seg = shared_memory.SharedMemory(create=True, size=4096)
    except (OSError, PermissionError) as exc:
        return False, f"shared memory unavailable: {exc}"
    seg.close()
    seg.unlink()
    return True, "one OS process per rank, shared-memory slot arena"


def open_launcher(**opts):
    """Registry hook: the launcher object (``.run(nprocs, fn, ...)``)."""
    if opts:
        raise TypeError(f"process launcher takes no options, got {sorted(opts)}")
    return ProcMPI


def _arena_geometry() -> tuple[int, int]:
    slots = int(os.environ.get("REPRO_PROCMPI_SLOTS", "128"))
    slot_bytes = int(os.environ.get("REPRO_PROCMPI_SLOT_BYTES", str(1 << 20)))
    if slots < 2 or slot_bytes < 4096:
        raise SimMPIError(
            f"arena geometry {slots} x {slot_bytes} B too small "
            "(need >= 2 slots of >= 4096 B)"
        )
    return slots, slot_bytes


class ProcWorkerError(SimMPIError):
    """A rank process failed with an exception that could not be
    re-raised directly (unpicklable); carries the formatted traceback."""


#: Bytes per rank in the blocked-op register (length word + JSON blob).
_REG_SLOT = 512


class _OpRegister:
    """Cross-process blocked-op register: one fixed slot per rank.

    Each rank publishes the blocking operation it is currently parked
    in (a :class:`~repro.checkers.hb.PendingOp` as JSON) into its own
    slot of a tiny shared segment, so *any* process — a peer whose
    receive just timed out, or the launcher's run guard — can read a
    whole-world wait-for snapshot without anyone cooperating.

    Writes are length-last: the length word is zeroed, the payload
    bytes land, then the 4-byte little-endian length makes them
    visible.  A reader can therefore never see a length describing
    bytes that are not yet written; a reader racing a *rewrite* of the
    same slot can still tear, which surfaces as a JSON decode failure
    and is reported as "no op" rather than guessed at.
    """

    def __init__(self, nprocs: int, name: str | None = None):
        self.nprocs = nprocs
        if name is None:
            self.seg = shared_memory.SharedMemory(
                create=True, size=nprocs * _REG_SLOT
            )
            self.owner = True
        else:
            self.seg = shared_memory.SharedMemory(name=name)
            self.owner = False

    @property
    def name(self) -> str:
        return self.seg.name

    def publish(self, rank: int, op: PendingOp | None) -> None:
        base = rank * _REG_SLOT
        buf = self.seg.buf
        buf[base:base + 4] = b"\x00\x00\x00\x00"
        if op is None:
            return
        d = op.as_dict()
        blob = json.dumps(d).encode()
        if len(blob) > _REG_SLOT - 4:  # degrade: drop the long fields
            d["members"] = []
            d["detail"] = str(d.get("detail", ""))[:64]
            d["comm"] = str(d.get("comm", ""))[:32]
            blob = json.dumps(d).encode()
        buf[base + 4:base + 4 + len(blob)] = blob
        buf[base:base + 4] = len(blob).to_bytes(4, "little")

    def read_all(self) -> dict[int, dict | None]:
        """Best-effort snapshot of every rank's published op dict."""
        out: dict[int, dict | None] = {}
        buf = self.seg.buf
        for r in range(self.nprocs):
            base = r * _REG_SLOT
            n = int.from_bytes(bytes(buf[base:base + 4]), "little")
            if not 0 < n <= _REG_SLOT - 4:
                out[r] = None
                continue
            try:
                out[r] = json.loads(bytes(buf[base + 4:base + 4 + n]))
            except (UnicodeDecodeError, json.JSONDecodeError):
                out[r] = None  # torn rewrite; treat as running
        return out

    def close(self) -> None:
        with contextlib.suppress(BufferError):
            self.seg.close()

    def unlink(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            self.seg.unlink()




class _ProcRuntime(RankRuntime):
    """One rank process's view of the shared transport."""

    def __init__(self, world_rank: int, nprocs: int, arena_name: str,
                 slot_bytes: int, n_slots: int, free_q, inboxes, timeout: float,
                 register_name: str | None = None):
        super().__init__(world_rank, nprocs, timeout)
        self.slot_bytes = slot_bytes
        self.n_slots = n_slots
        #: refuse to occupy more than half the arena with one message —
        #: two such senders could otherwise deadlock on slot acquisition
        self.max_slots_per_msg = max(1, n_slots // 2)
        self.free_q = free_q
        self.inboxes = inboxes
        # NB: attaching re-registers the name with the resource tracker,
        # but rank processes share the launcher's tracker (spawned
        # children inherit it), whose cache is a set — the launcher's
        # single unlink() cleans the one entry up.
        self.arena = shared_memory.SharedMemory(name=arena_name)
        self.register = (
            _OpRegister(nprocs, name=register_name) if register_name else None
        )
        #: once a deadlock is diagnosed the published op stays up, so
        #: peers (and the launcher) that read later still see the full
        #: blocked picture while this process unwinds
        self._stuck = False

    def _publish(self, op: PendingOp | None) -> None:
        if self.register is not None and not self._stuck:
            self.register.publish(self.world_rank, op)

    def deadlock_error(self, base: str) -> DeadlockTimeout:
        """Upgrade a bare timeout into a wait-for-graph diagnosis.

        Reads every rank's published op from the shared register;
        called while this rank's own op is still up (the registration
        is cleared on the way out, and stays up once ``_stuck``)."""
        if self.register is None:
            return DeadlockTimeout(base)
        self._stuck = True
        return diagnose_deadlock(base, self.register.read_all(), self.nprocs)

    # ---- slot management ------------------------------------------------------

    def _acquire_slots(self, n: int) -> list[int]:
        slots: list[int] = []
        self.wfg_enter(PendingOp(
            rank=self.world_rank, kind="slot-acquire",
            detail=f"{n} slot(s) of {self.slot_bytes} B",
        ))
        try:
            for _ in range(n):
                slots.append(self.free_q.get(timeout=self.timeout))
        except _queue.Empty:
            for s in slots:
                self.free_q.put(s)
            raise self.deadlock_error(
                f"shared-memory arena exhausted: rank {self.world_rank} waited "
                f"{self.timeout}s for {n} slot(s); raise REPRO_PROCMPI_SLOTS "
                f"(= {self.n_slots}) or REPRO_PROCMPI_SLOT_BYTES"
            ) from None
        finally:
            self.wfg_exit()
        return slots

    def _write_slots(self, arr: np.ndarray, slots: list[int]) -> None:
        flat = arr.reshape(-1).view(np.uint8)
        pos = 0
        for s in slots:
            n = min(self.slot_bytes, arr.nbytes - pos)
            dst = np.frombuffer(self.arena.buf, dtype=np.uint8, count=n,
                                offset=s * self.slot_bytes)
            dst[:] = flat[pos:pos + n]
            pos += n

    def _read_slots(self, meta) -> np.ndarray:
        slots, shape, dtype_str, nbytes = meta
        dtype = np.dtype(dtype_str)
        # same header arithmetic as the socket frames: the announced
        # (shape, dtype) must account for every byte the message claims
        expected = ndarray_nbytes(tuple(shape), dtype_str)
        if expected != nbytes or len(slots) != -(-nbytes // self.slot_bytes):
            # return the slots before raising or the arena leaks them
            for s in slots:
                self.free_q.put(s)
            raise ProtocolViolation(
                f"slot message header inconsistent: shape {tuple(shape)} "
                f"dtype {dtype_str} implies {expected} B, but the header "
                f"claims {nbytes} B in {len(slots)} slot(s) of "
                f"{self.slot_bytes} B"
            )
        out = np.empty(shape, dtype=dtype)
        flat = out.reshape(-1).view(np.uint8)
        pos = 0
        for s in slots:
            n = min(self.slot_bytes, nbytes - pos)
            src = np.frombuffer(self.arena.buf, dtype=np.uint8, count=n,
                                offset=s * self.slot_bytes)
            flat[pos:pos + n] = src
            pos += n
            self.free_q.put(s)
        return out

    # ---- byte mover -----------------------------------------------------------

    def send(self, dest_world: int, chan: str, src_rank: int, tag: int,
             payload: Any) -> int:
        """Post one descriptor ``(chan, source, tag, kind, meta)``."""
        nbytes = 0
        if isinstance(payload, np.ndarray) and payload.nbytes > 0:
            arr = payload if payload.flags.c_contiguous else np.ascontiguousarray(payload)
            nbytes = arr.nbytes
            n_chunks = -(-arr.nbytes // self.slot_bytes)
            if n_chunks <= self.max_slots_per_msg:
                slots = self._acquire_slots(n_chunks)
                self._write_slots(arr, slots)
                desc = (chan, src_rank, tag, _KIND_SLOTS,
                        (tuple(slots), arr.shape, arr.dtype.str, arr.nbytes))
            else:  # larger than half the arena: pickle through the queue
                desc = (chan, src_rank, tag, _KIND_PICKLE, arr)
        else:
            desc = (chan, src_rank, tag, _KIND_PICKLE, payload)
        self.inboxes[dest_world].put(desc)
        return nbytes

    def _poll(self, wait: float) -> tuple | None:
        try:
            return self.inboxes[self.world_rank].get(timeout=wait)
        except _queue.Empty:
            return None

    def _materialise(self, entry: tuple) -> Any:
        kind, meta = entry[3], entry[4]
        if kind == _KIND_SLOTS:
            return self._read_slots(meta)
        return meta

    def close(self) -> None:
        super().close()
        if self.register is not None:
            self.register.close()
        # a stray view can pin the mmap; leak it quietly in that case
        with contextlib.suppress(BufferError):
            self.arena.close()


# ---- worker bootstrap ------------------------------------------------------------


def _worker_main(rank: int, nprocs: int, arena_name: str, slot_bytes: int,
                 n_slots: int, free_q, inboxes, result_q, timeout: float,
                 register_name: str | None,
                 fn: Callable[..., Any], fn_args: tuple, fn_kwargs: dict) -> None:
    """Entry point of one rank process (module-level: spawn-picklable).
    Failures travel to the launcher as results, so the process itself
    exits quietly."""
    def report(status: str, packed: tuple) -> None:
        result_q.put((rank, status, packed))

    try:
        runtime = _ProcRuntime(rank, nprocs, arena_name, slot_bytes, n_slots,
                               free_q, inboxes, timeout,
                               register_name=register_name)
    except BaseException as exc:  # noqa: BLE001 - reported to launcher
        report("err", pack_exception(exc))
        return
    try:
        with contextlib.suppress(BaseException):  # reported by run_rank
            run_rank(runtime, fn, fn_args, fn_kwargs, report)
    finally:
        runtime.close()


class _ProcWorld(RankWorld):
    """One launch: the slot arena, the op register and the queues."""

    label = "process"
    worker_error = ProcWorkerError

    def __init__(self, nprocs: int, timeout: float):
        # spawn re-imports the interpreter per rank: generous startup slack
        super().__init__(nprocs, timeout, slack=60.0 * nprocs)
        self.n_slots, self.slot_bytes = _arena_geometry()
        self.arena = shared_memory.SharedMemory(
            create=True, size=self.n_slots * self.slot_bytes
        )
        self.register = _OpRegister(nprocs)
        self.free_q = SPAWN.Queue()
        for i in range(self.n_slots):
            self.free_q.put(i)
        self.inboxes = [SPAWN.Queue() for _ in range(nprocs)]
        self.result_q = SPAWN.Queue()

    def launch(self, fn, args, kwargs) -> None:
        self.spawn(_worker_main, lambda r: (
            r, self.nprocs, self.arena.name, self.slot_bytes, self.n_slots,
            self.free_q, self.inboxes, self.result_q, self.timeout,
            self.register.name, fn, args, kwargs,
        ), "procmpi")

    def next_result(self, wait: float):
        try:
            return self.result_q.get(timeout=wait)
        except _queue.Empty:
            return None

    def idle_error(self) -> BaseException | None:
        dead = [r for r in self.dead() if r not in self.reported]
        if not dead:
            return None
        return ProcWorkerError(
            f"rank process(es) {dead} died (exit codes "
            f"{[self.procs[r].exitcode for r in dead]}) without "
            "reporting a result — startup crash?"
        )

    def blocked_ops(self) -> dict[int, dict | None]:
        # the op register tells deadlock from crash
        return self.register.read_all()

    def teardown(self, error: BaseException | None) -> None:
        self.reap(error is not None)
        for q in [*self.inboxes, self.free_q, self.result_q]:
            q.close()
            q.cancel_join_thread()
        self.arena.close()
        with contextlib.suppress(FileNotFoundError):
            self.arena.unlink()
        self.register.close()
        self.register.unlink()


class ProcMPI:
    """Launcher: run an SPMD function with one OS process per rank.

    Mirrors :meth:`repro.parallel.simmpi.SimMPI.run`, but ``fn``,
    ``args`` and ``kwargs`` must be picklable (ranks are spawned) and
    the per-rank return values are shipped back through a result queue.
    """

    name = "process"

    @staticmethod
    def run(nprocs: int, fn: Callable[..., Any], *args: Any,
            timeout: float = None, **kwargs: Any) -> list[Any]:
        timeout = resolve_timeout(timeout)
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        return _ProcWorld(nprocs, timeout).run(fn, args, kwargs)
