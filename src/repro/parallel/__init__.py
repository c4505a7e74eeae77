"""Flat-MPI parallelisation of yycore (paper Section IV) on SimMPI.

The paper parallelises with MPI: ``MPI_COMM_SPLIT`` divides the
processes into the Yin and Yang panel groups, ``MPI_CART_CREATE`` builds
a 2-D process array within each panel, halo exchange uses
``MPI_SEND / MPI_IRECV`` between the four neighbours, and the Yin<->Yang
overset interpolation communicates under the world communicator.

The same program structure runs on interchangeable launchers
(:mod:`repro.parallel.backends`): the thread-based
:class:`~repro.parallel.simmpi.SimMPI` runtime (in-process mailboxes,
the correctness substrate); one OS process per rank on the shared
out-of-process runtime of :mod:`repro.parallel.transport`, moving bytes
through shared memory (:class:`~repro.parallel.procmpi.ProcMPI`) or TCP
frames (:class:`~repro.parallel.sockmpi.SockMPI`, which can span
hosts); or real MPI through mpi4py when it is installed.  Every
launcher carries one wire format — one packed message per halo
neighbour or overset donor pair — and the parallel solver is verified
to reproduce the serial yycore fields exactly on each.
"""

from repro.parallel.simmpi import (
    SimMPI, Communicator, CommunicatorBase, ANY_SOURCE, ANY_TAG,
)
from repro.parallel.backends import available_backends, get_backend
from repro.parallel.cart import CartComm, create_cart
from repro.parallel.decomposition import PanelDecomposition, Subdomain, split_indices
from repro.parallel.halo import HaloExchanger
from repro.parallel.overset_comm import OversetExchanger
from repro.parallel.parallel_solver import ParallelYinYangDynamo, run_parallel_dynamo
from repro.parallel.procmpi import ProcMPI
from repro.parallel.tracing import CommTrace, TracedCommunicator

__all__ = [
    "SimMPI",
    "ProcMPI",
    "Communicator",
    "CommunicatorBase",
    "available_backends",
    "get_backend",
    "ANY_SOURCE",
    "ANY_TAG",
    "CartComm",
    "create_cart",
    "PanelDecomposition",
    "Subdomain",
    "split_indices",
    "HaloExchanger",
    "OversetExchanger",
    "ParallelYinYangDynamo",
    "run_parallel_dynamo",
    "CommTrace",
    "TracedCommunicator",
]
