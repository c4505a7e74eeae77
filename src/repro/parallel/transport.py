"""The out-of-process rank runtime shared by the process and socket backends.

Both backends run one OS process per rank and differ only in how bytes
move: shared-memory slots (:mod:`repro.parallel.procmpi`) or TCP frames
through a coordinator (:mod:`repro.parallel.sockmpi`).  Everything
above the byte mover lives here once:

* :class:`RankRuntime` — one rank's end of a transport.  A subclass
  supplies ``send(dest_world, chan, src_rank, tag, payload) -> nbytes``,
  ``_poll(wait)`` (the next inbound message, or ``None`` after ``wait``
  seconds) and ``_materialise``; the base keeps the pending list and its
  ``(chan, source, tag)`` matcher with the ``REPRO_SIMMPI_TIMEOUT``
  deadline, the blocked-op stack of the wait-for graph and the
  per-rank protocol recorder.
* :class:`RankCommunicator` — the MPI-style communicator over a
  runtime: ``Send``/``Recv`` plus the collectives of
  :class:`CommunicatorBase` over :class:`RootedRendezvous`
  (gather-to-root + rebroadcast on a private control channel).
  Reductions associate in rank order, so results are bit-identical
  across the thread, process and socket backends.
* :func:`run_rank` — a rank's whole life on the worker side: run the
  rank function, merge the sanitizer protocol over the transport
  (:func:`verify_protocol`), report the packed result or exception.
* :class:`RankWorld` — one launch on the launcher side: spawn the
  rank processes, collect and decode their results under the run
  guard, and reap exactly the processes that started.
* :func:`diagnose_deadlock` — per-rank blocked ops → wait-for graph →
  :class:`~repro.parallel.simmpi.DeadlockError` naming the cycle.
"""

from __future__ import annotations

import contextlib
import multiprocessing as _mp
import pickle
import time as _time
import traceback
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.checkers.hb import PendingOp, WaitForGraph
from repro.checkers.sanitize import (
    ProtocolRecorder,
    ProtocolViolation,
    freeze_payload,
    sanitize_enabled,
    set_last_protocol_report,
)
from repro.parallel.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    CommunicatorBase,
    DeadlockError,
    SimMPIError,
)

__all__ = [
    "COLL_CHANNEL",
    "SPAWN",
    "RankCommunicator",
    "RankRuntime",
    "RankWorld",
    "RootedRendezvous",
    "diagnose_deadlock",
    "run_rank",
    "verify_protocol",
]

#: Collective traffic shares the rank inboxes with point-to-point
#: messages; its channel key is the comm id plus this suffix, so
#: collective tags (sequence numbers) can never collide with user tags.
COLL_CHANNEL = "\x00coll"

#: Rank processes are always spawned: a fresh interpreter per rank, so
#: the rank function and its arguments must be picklable by import path.
SPAWN = _mp.get_context("spawn")


def diagnose_deadlock(base: str, pending: dict[int, dict | None],
                      nprocs: int) -> DeadlockError:
    """Build the wait-for graph from each rank's blocked op (``None``
    for a rank still running) and name the blocked cycle, if any."""
    snap = WaitForGraph.snapshot_from_dicts(pending, nprocs)
    cycle = WaitForGraph.find_cycle(snap)
    return DeadlockError(
        base + "\n" + WaitForGraph.describe(snap, cycle),
        pending=pending,
        cycle=cycle,
    )


# ---- the rank side -------------------------------------------------------------------


class RankRuntime:
    """One rank's end of an out-of-process transport.

    Inbound messages are *entries*: tuples whose first three items are
    ``(chan, source, tag)``.  Entries read off the transport that match
    no receive yet wait in ``pending`` until one asks for them.
    """

    def __init__(self, world_rank: int, nprocs: int, timeout: float):
        self.world_rank = world_rank
        self.nprocs = nprocs
        self.timeout = timeout
        self.pending: list[tuple] = []
        #: blocking ops can nest (a collective's internal transfers may
        #: park too); the innermost one names why this rank is stuck
        self._op_stack: list[PendingOp] = []
        #: one recorder per rank (REPRO_SANITIZE=1); it sees only this
        #: rank's half of each message, so snapshots merge at finalize
        #: via :func:`verify_protocol`
        self.recorder: ProtocolRecorder | None = (
            ProtocolRecorder() if sanitize_enabled() else None
        )

    # ---- byte mover (subclass) ----------------------------------------------

    def send(self, dest_world: int, chan: str, src_rank: int, tag: int,
             payload: Any) -> int:
        """Post one message; returns the array byte count (accounting)."""
        raise NotImplementedError

    def _poll(self, wait: float) -> tuple | None:
        """The next inbound entry, or ``None`` if none came in ``wait`` s."""
        raise NotImplementedError

    def _materialise(self, entry: tuple) -> Any:
        """The payload of a matched entry."""
        raise NotImplementedError

    def deadlock_error(self, base: str) -> DeadlockError:
        """Upgrade a bare receive timeout into a diagnosis."""
        raise NotImplementedError

    def _publish(self, op: PendingOp | None) -> None:
        """Hook: make the innermost blocked op visible to other processes."""

    def close(self) -> None:
        self.pending.clear()

    # ---- wait-for registration (shared with RootedRendezvous) ---------------

    def wfg_enter(self, op: PendingOp) -> PendingOp:
        self._op_stack.append(op)
        self._publish(op)
        return op

    def wfg_exit(self) -> None:
        if self._op_stack:
            self._op_stack.pop()
        self._publish(self._op_stack[-1] if self._op_stack else None)

    # ---- matching receive ----------------------------------------------------

    def recv(self, chan: str, source: int, tag: int) -> tuple[int, int, Any]:
        """Match and return ``(source_rank, matched_tag, payload)``."""
        # deadlock-timeout bookkeeping, not numerics
        deadline = _time.monotonic() + self.timeout  # repro: noqa-REP015
        while True:
            for i, entry in enumerate(self.pending):
                if entry[0] == chan and source in (ANY_SOURCE, entry[1]) \
                        and tag in (ANY_TAG, entry[2]):
                    del self.pending[i]
                    return entry[1], entry[2], self._materialise(entry)
            remaining = deadline - _time.monotonic()  # repro: noqa-REP015
            entry = self._poll(remaining) if remaining > 0 else None
            if entry is None:
                raise self.deadlock_error(
                    f"Recv(chan={chan!r}, source={source}, tag={tag}) timed out "
                    f"after {self.timeout}s on world rank {self.world_rank}"
                )
            self.pending.append(entry)


class RootedRendezvous:
    """Mixin: collective rendezvous over a ``send``/``recv`` runtime.

    Mix into a :class:`~repro.parallel.simmpi.CommunicatorBase` subclass
    that sets ``self._rt`` to a :class:`RankRuntime`.  The transport
    serialises or copies payloads on its own, so ``_isolate`` is the
    identity (no eager copy, unlike the shared-address-space thread
    backend).
    """

    _rt: RankRuntime

    def _isolate(self, data: Any) -> Any:
        return data

    @contextlib.contextmanager
    def _coll_guard(self, what: str, seq: int):
        """Register this collective with the runtime's wait-for graph.
        A rank stuck inside the rendezvous then times out with a
        ``collective (comm, seq)`` op, and the cycle analysis knows
        which members have not arrived at the same rendezvous."""
        self._rt.wfg_enter(PendingOp(
            rank=self.world_rank, kind="collective", comm=self.id,
            seq=seq, members=tuple(self.members), detail=what,
        ))
        try:
            yield self.id + COLL_CHANNEL
        finally:
            self._rt.wfg_exit()

    def _exchange(self, seq: int, payload: Any) -> dict[int, Any]:
        rt = self._rt
        with self._coll_guard("exchange", seq) as chan:
            if self.rank == 0:
                slot: dict[int, Any] = {0: payload}
                for _ in range(self.size - 1):
                    src, _, p = rt.recv(chan, ANY_SOURCE, seq)
                    slot[src] = p
                for r in range(1, self.size):
                    rt.send(self.members[r], chan, 0, seq, slot)
                return slot
            rt.send(self.members[0], chan, self.rank, seq, payload)
            _, _, result = rt.recv(chan, 0, seq)
            return result

    def gather(self, data: Any, root: int = 0) -> list[Any] | None:
        """Root-only collection — the payloads are shipped to ``root``
        once instead of rebroadcast to every member (this is the path
        the end-of-run state gather takes, with multi-MB blocks)."""
        self._note_collective("gather")
        seq = self._next_seq()
        with self._coll_guard("gather", seq) as chan:
            if self.rank == root:
                slot: dict[int, Any] = {root: data}
                for _ in range(self.size - 1):
                    src, _, p = self._rt.recv(chan, ANY_SOURCE, seq)
                    slot[src] = p
                return [slot[r] for r in range(self.size)]
            self._rt.send(self.members[root], chan, self.rank, seq, data)
            return None

    def bcast(self, data: Any, root: int = 0) -> Any:
        self._note_collective("bcast")
        seq = self._next_seq()
        with self._coll_guard("bcast", seq) as chan:
            if self.rank == root:
                for r in range(self.size):
                    if r != root:
                        self._rt.send(self.members[r], chan, root, seq, data)
                return data
            _, _, payload = self._rt.recv(chan, root, seq)
            return payload


class RankCommunicator(RootedRendezvous, CommunicatorBase):
    """MPI-style communicator where every rank is an OS process.

    Point-to-point payloads go through the runtime's byte mover;
    collectives come from :class:`CommunicatorBase` over
    :class:`RootedRendezvous` (``gather``/``bcast`` specialised to avoid
    shipping the full payload dict to every member)."""

    def __init__(self, runtime: RankRuntime, comm_id: str,
                 members: Sequence[int], world_rank: int):
        self._rt = runtime
        self._init_base(comm_id, members, world_rank)
        self._recorder = runtime.recorder

    def Send(self, data: Any, dest: int, tag: int = 0, *, move: bool = False) -> None:
        """Blocking standard send.  Both byte movers copy the payload out
        before returning (slot memcpy / socket write), which decouples
        sender and receiver, so ``move=True`` needs no special handling
        beyond the sanitizer freeze."""
        if not 0 <= dest < self.size:
            raise SimMPIError(f"dest {dest} out of range for comm of size {self.size}")
        nbytes = self._rt.send(self.members[dest], self.id, self.rank, tag, data)
        self.bytes_sent += nbytes
        self.messages_sent += 1
        if self._recorder is not None:
            self._recorder.note_send(self.id, self.rank, dest, tag)
            if move:
                # the bytes already left; freezing the caller's buffer
                # still catches sender-side reuse, with the same
                # semantics as the thread backend
                freeze_payload(data)

    def Recv(self, buf: np.ndarray | None = None, source: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Any:
        self._rt.wfg_enter(PendingOp(
            rank=self._rt.world_rank, kind="Recv", comm=self.id,
            source=self.members[source] if source >= 0 else None,
            tag=None if tag == ANY_TAG else tag,
        ))
        try:
            src, matched_tag, payload = self._rt.recv(self.id, source, tag)
        finally:
            self._rt.wfg_exit()
        if self._recorder is not None:
            self._recorder.note_recv(self.id, src, self.rank, matched_tag)
        if buf is not None:
            arr = np.asarray(payload)
            if buf.shape != arr.shape:
                raise SimMPIError(
                    f"Recv buffer shape {buf.shape} != message shape {arr.shape}"
                )
            buf[...] = arr
        return payload

    def _make_child(self, comm_id: str, members: Sequence[int]) -> RankCommunicator:
        return RankCommunicator(self._rt, comm_id, members, self.world_rank)


def verify_protocol(world, rec: ProtocolRecorder) -> None:
    """Allgather per-rank recorder snapshots and check the merged protocol.

    Runs on every rank after the rank function returns; each rank
    computes the identical merged report, so a violation raises the same
    :class:`ProtocolViolation` everywhere.  Ordering across rank
    processes is unknown, so only the order-free checks (send/recv
    matching and collective lockstep) apply — in-flight tag collisions
    are a thread-backend check.
    """
    snapshots = world._exchange(world._next_seq(), rec.snapshot())
    merged = ProtocolRecorder.merged([snapshots[r] for r in range(world.size)])
    report = merged.report()
    set_last_protocol_report(report)
    if not report.ok:
        raise ProtocolViolation(report.summary())


def _pack_result(value: Any) -> tuple[str, Any]:
    try:
        return "pickle", pickle.dumps(value)
    except Exception as exc:  # unpicklable return value
        return "text", repr(value).encode() + b" (unpicklable: " + repr(exc).encode() + b")"


def pack_exception(exc: BaseException) -> tuple[str, Any]:
    """An exception as a result payload: pickled with its traceback, or
    the formatted text when it does not pickle."""
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        return "exc", (pickle.dumps(exc), tb)
    except Exception:
        return "text", f"{type(exc).__name__}: {exc}\n{tb}"


def run_rank(runtime: RankRuntime, fn: Callable[..., Any], args: tuple,
             kwargs: dict, report: Callable[[str, tuple], None]) -> Any:
    """Run ``fn(world, *args, **kwargs)`` as this rank.

    ``report(status, packed)`` receives ``"ok"`` and the packed return
    value, or ``"err"`` and the packed exception, which is then
    re-raised here.  With ``REPRO_SANITIZE=1`` the ranks' protocol
    snapshots are merged and checked before the result is reported.
    """
    world = RankCommunicator(runtime, "world", list(range(runtime.nprocs)),
                             runtime.world_rank)
    try:
        value = fn(world, *args, **kwargs)
        if runtime.recorder is not None:
            verify_protocol(world, runtime.recorder)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            report("err", pack_exception(exc))
        raise
    report("ok", _pack_result(value))
    return value


# ---- the launcher side ---------------------------------------------------------------


class RankWorld:
    """One launch of an out-of-process world.

    A subclass starts the world in :meth:`launch` (spawning rank
    processes with :meth:`spawn`), delivers results with
    :meth:`next_result` and releases its transport in :meth:`teardown`,
    which calls :meth:`reap` at the point its transport allows.
    """

    #: world name used in run-guard messages (``"process"``, ``"socket"``)
    label = "rank"
    #: raised for a rank failure that cannot be re-raised as itself
    worker_error: type[SimMPIError] = SimMPIError

    def __init__(self, nprocs: int, timeout: float, *, slack: float):
        self.nprocs = nprocs
        self.timeout = timeout
        #: seconds allowed on top of ``2 * timeout`` before the run guard
        self.slack = slack
        #: the rank processes that actually started
        self.procs: list = []
        self.reported: set[int] = set()

    # ---- subclass hooks ------------------------------------------------------

    def launch(self, fn: Callable[..., Any], args: tuple, kwargs: dict) -> None:
        raise NotImplementedError

    def next_result(self, wait: float) -> tuple[int, str, tuple] | None:
        """The next ``(rank, status, packed)`` result, or ``None`` if
        none arrived within ``wait`` seconds."""
        raise NotImplementedError

    def idle_error(self) -> BaseException | None:
        """Checked while no result arrives: a failure to report now."""
        return None

    def blocked_ops(self) -> dict[int, dict | None]:
        """Each rank's blocked op, for the run-guard diagnosis."""
        return {}

    def rank_error(self, exc: BaseException) -> BaseException:
        """Hook: refine a rank's re-raised exception."""
        return exc

    def teardown(self, error: BaseException | None) -> None:
        self.reap(error is not None)

    # ---- shared machinery ----------------------------------------------------

    def run(self, fn: Callable[..., Any], args: tuple, kwargs: dict) -> list[Any]:
        error: BaseException | None = None
        try:
            self.launch(fn, args, kwargs)
            return self.collect()
        except BaseException as exc:
            error = exc
            raise
        finally:
            self.teardown(error)

    def spawn(self, target: Callable[..., None],
              args_of: Callable[[int], tuple], prefix: str) -> None:
        """Start one process per rank; a start that fails leaves
        :attr:`procs` holding only the processes that did start."""
        for r in range(self.nprocs):
            p = SPAWN.Process(target=target, args=args_of(r),
                              name=f"{prefix}-rank-{r}", daemon=True)
            p.start()
            self.procs.append(p)

    def dead(self) -> list[int]:
        """Indices of started processes that exited with an error code."""
        return [i for i, p in enumerate(self.procs) if p.exitcode not in (None, 0)]

    def reap(self, failed: bool) -> None:
        """Join every started process (briefly after a failure), then
        terminate whatever is still alive."""
        grace = 1.0 if failed else self.timeout
        for p in self.procs:
            p.join(timeout=grace)
        for p in self.procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)

    def collect(self) -> list[Any]:
        """Wait for every rank's result; raise the first failure."""
        # spawned ranks boot an interpreter each: slack on top of the guard
        deadline = _time.monotonic() + 2 * self.timeout + self.slack
        results: list[Any] = [None] * self.nprocs
        while len(self.reported) < self.nprocs:
            got = self.next_result(0.2)
            if got is None:
                error = self.idle_error()
                if error is None and _time.monotonic() > deadline:
                    error = diagnose_deadlock(
                        f"{self.label} world of {self.nprocs} did not report "
                        f"within {2 * self.timeout:.0f}s run guard",
                        self.blocked_ops(), self.nprocs,
                    )
                if error is not None:
                    raise error
                continue
            rank, status, (how, payload) = got
            self.reported.add(rank)
            if status == "ok":
                results[rank] = pickle.loads(payload) if how == "pickle" else payload
                continue
            if how == "exc":
                blob, tb = payload
                try:
                    error = pickle.loads(blob)
                except Exception:
                    error = self.worker_error(f"rank {rank} failed:\n{tb}")
                else:
                    error = self.rank_error(error)
            else:
                error = self.worker_error(f"rank {rank} failed:\n{payload}")
            raise error
        return results
