"""repro — divide-and-conquer parallel computation of elementary flux modes.

A production-quality reproduction of *Jevremovic, Boley & Sosa,
"Divide-and-conquer approach to the parallel computation of elementary
flux modes in metabolic networks", IEEE IPDPS 2011*: the Nullspace
Algorithm, its combinatorial distributed-memory parallelization, and the
combined divide-and-conquer algorithm, plus every substrate they need
(network model & compression, exact/float kernels, packed bitsets, an
MPI-like message-passing layer, and HPC platform models for Blue Gene/P
and Calhoun).

Quickstart::

    from repro import compute_efms, toy_network

    result = compute_efms(toy_network())
    print(result.summary())          # 8 elementary flux modes ...
    result.validate()                # steady state + feasibility + minimality
"""

from repro.config import AlgorithmOptions
from repro.efm.api import compute_efms
from repro.efm.result import EFMResult
from repro.efm.splitting import split_reversible
from repro.efm.targeted import efms_avoiding, efms_through, exists_mode_through
from repro.errors import (
    AlgorithmError,
    CommunicatorError,
    CompressionError,
    LinAlgError,
    NetworkError,
    OutOfMemoryError,
    ParseError,
    PartitionError,
    ReproError,
    ReversibleIdentityError,
)
from repro.models import (
    get_network,
    list_networks,
    random_network,
    toy_network,
    yeast_network_1,
    yeast_network_2,
)
from repro.network.compression import compress_network
from repro.network.model import MetabolicNetwork, Metabolite, Reaction
from repro.network.parser import network_from_equations, parse_reaction

__version__ = "1.0.0"

__all__ = [
    "AlgorithmOptions",
    "compute_efms",
    "EFMResult",
    "split_reversible",
    "efms_avoiding",
    "efms_through",
    "exists_mode_through",
    "AlgorithmError",
    "CommunicatorError",
    "CompressionError",
    "LinAlgError",
    "NetworkError",
    "OutOfMemoryError",
    "ParseError",
    "PartitionError",
    "ReproError",
    "ReversibleIdentityError",
    "get_network",
    "list_networks",
    "random_network",
    "toy_network",
    "yeast_network_1",
    "yeast_network_2",
    "compress_network",
    "MetabolicNetwork",
    "Metabolite",
    "Reaction",
    "network_from_equations",
    "parse_reaction",
    "__version__",
]
