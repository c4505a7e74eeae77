"""The shared out-of-process rank runtime: launch failures and teardown.

A rank process that fails to *start* must surface its own error, and
the teardown must reap exactly the processes that did start — joining a
never-started process would raise ``AssertionError: can only join a
started process`` and mask the real cause.
"""

import multiprocessing.process

import pytest

from repro.parallel.procmpi import ProcMPI
from repro.parallel.sockmpi import SockMPI


def _barrier_prog(comm):
    comm.barrier()
    return comm.rank


class _InjectedStartError(RuntimeError):
    pass


@pytest.mark.parametrize("launcher", [ProcMPI, SockMPI()],
                         ids=["process", "socket"])
def test_start_failure_surfaces_and_leaves_no_child(monkeypatch, launcher):
    real_start = multiprocessing.process.BaseProcess.start
    started = []

    def start(proc):
        if len(started) == 1:
            raise _InjectedStartError("injected start failure on the second rank")
        real_start(proc)
        started.append(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    with pytest.raises(_InjectedStartError, match="second rank"):
        launcher.run(2, _barrier_prog, timeout=30.0)
    assert len(started) == 1
    assert not any(p.is_alive() for p in started)
    assert multiprocessing.active_children() == []
