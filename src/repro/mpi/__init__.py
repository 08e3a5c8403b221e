"""Message-passing substrate: an MPI-like communicator API with two
interchangeable backends (the deterministic sequential simulator and real
OS processes) plus tracing of bytes/messages for modeled timing."""

from repro.mpi.comm import Communicator, WireCounters, pack_message
from repro.mpi.sequential import SequentialEngine
from repro.mpi.spmd import run_spmd
from repro.mpi.tracing import CommEvent, CommTrace, TracingCommunicator

__all__ = [
    "Communicator",
    "SequentialEngine",
    "run_spmd",
    "CommEvent",
    "CommTrace",
    "TracingCommunicator",
    "WireCounters",
    "pack_message",
]
