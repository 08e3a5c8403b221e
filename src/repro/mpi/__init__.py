"""Message-passing substrate: an MPI-like communicator API with
interchangeable backends (sequential superstep simulator, lockstep threads,
multiprocessing) plus tracing of bytes/messages for modeled timing."""

from repro.mpi.comm import Communicator, WireCounters, pack_message
from repro.mpi.sequential import SequentialEngine
from repro.mpi.spmd import run_spmd
from repro.mpi.threads import ThreadEngine
from repro.mpi.tracing import CommEvent, CommTrace, TracingCommunicator

__all__ = [
    "Communicator",
    "SequentialEngine",
    "run_spmd",
    "ThreadEngine",
    "CommEvent",
    "CommTrace",
    "TracingCommunicator",
    "WireCounters",
    "pack_message",
]
