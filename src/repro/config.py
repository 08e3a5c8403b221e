"""Global numeric policy and algorithm options.

The Nullspace Algorithm is a pivoting-free double-description iteration and
is sensitive to how "zero" is decided.  All tolerance decisions in the
package flow through :class:`NumericPolicy` so tests can tighten or relax
them in one place, and :class:`AlgorithmOptions` collects every tunable of
the core algorithm (ordering heuristic, acceptance test, chunk sizes, ...).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Literal

#: Default relative threshold below which a flux value is treated as zero.
DEFAULT_ZERO_TOL: float = 1e-9

#: Default tolerance for SVD-based rank decisions (scaled by matrix norm).
DEFAULT_RANK_TOL: float = 1e-8

#: Upper bound on the candidate pairs of one vectorized generation chunk.
#: Bounds peak memory of candidate generation: a chunk allocates
#: ``chunk_size * n_rows`` float64 values plus the packed supports.
DEFAULT_PAIR_CHUNK: int = 65536

Arithmetic = Literal["float", "exact"]
AcceptanceTest = Literal["rank", "bittree", "both"]
OrderingName = Literal[
    "dynamic", "paper", "natural", "most-nonzeros", "random"
]
RankBackend = Literal["modular", "batched", "loop"]
PairPruning = Literal["tiles", "none"]
WireProtocol = Literal["typed", "pickle"]


def _default_wire_protocol() -> str:
    """Session-wide wire-protocol default, overridable via the environment
    so a whole test run can be flipped to the legacy pickle reference (the
    CI ``wire-protocol`` leg sets ``REPRO_WIRE_PROTOCOL=pickle``)."""
    return os.environ.get("REPRO_WIRE_PROTOCOL", "typed")


def _default_comm_timeout() -> float:
    """Blocking-receive poll timeout (seconds) of the parallel backends,
    overridable via ``REPRO_COMM_TIMEOUT_S`` (default: the 300 s that used
    to be hard-coded in the process backend)."""
    return float(os.environ.get("REPRO_COMM_TIMEOUT_S", "300"))


def _default_ordering() -> str:
    """Session-wide row-ordering default, overridable via the environment
    so a whole test run can be flipped to the static paper heuristic (the
    CI ``ordering`` leg sets ``REPRO_ORDERING=paper``)."""
    return os.environ.get("REPRO_ORDERING", "dynamic")


#: Default number of shortlisted rows the dynamic selector refines with
#: the one-step lookahead score (0 = base pair-count score only).
DEFAULT_SELECTION_LOOKAHEAD: int = 4


def _default_rank_backend() -> str:
    """Session-wide rank-backend default, overridable via the environment
    so a whole test run can be flipped to the SVD engines (the CI
    ``rank-backend`` legs set ``REPRO_RANK_BACKEND=batched`` / ``=loop``)."""
    return os.environ.get("REPRO_RANK_BACKEND", "modular")


def _default_pair_pruning() -> str:
    """Session-wide pair-pruning default, overridable via the environment
    so a whole test run can be flipped to the unpruned parity reference
    (the CI ``pair-pruning`` leg sets ``REPRO_PAIR_PRUNING=off``)."""
    val = os.environ.get("REPRO_PAIR_PRUNING", "tiles")
    return {"off": "none", "on": "tiles"}.get(val, val)


@dataclasses.dataclass(frozen=True)
class NumericPolicy:
    """Tolerances governing zero tests and rank decisions.

    Parameters
    ----------
    zero_tol:
        Entries with ``|x| <= zero_tol * max(1, column_max)`` count as zero
        when supports are extracted.  Columns are renormalized to unit
        max-norm after every combination, so in practice this behaves as an
        absolute threshold on normalized data.
    rank_tol:
        Relative singular-value cutoff for numeric rank computation.
    """

    zero_tol: float = DEFAULT_ZERO_TOL
    rank_tol: float = DEFAULT_RANK_TOL

    def __post_init__(self) -> None:
        if not (0 < self.zero_tol < 1e-2):
            raise ValueError(f"zero_tol out of sane range: {self.zero_tol}")
        if not (0 < self.rank_tol < 1e-2):
            raise ValueError(f"rank_tol out of sane range: {self.rank_tol}")


#: Shared default policy instance.
DEFAULT_POLICY = NumericPolicy()


@dataclasses.dataclass(frozen=True)
class AlgorithmOptions:
    """Tunables of the (serial and parallel) Nullspace Algorithm.

    Parameters
    ----------
    arithmetic:
        ``"float"`` runs the vectorized float64 path (production);
        ``"exact"`` runs an arbitrary-precision integer path (slow, used for
        verification and the paper's worked example).
    acceptance:
        Candidate acceptance test: the paper's algebraic ``"rank"`` test
        (nullity of the stoichiometric submatrix == 1), the efmtool-style
        ``"bittree"`` superset test, or ``"both"`` (cross-checking; testing
        aid).
    rank_backend:
        Engine computing the algebraic rank test: ``"modular"`` (default)
        rescales the stoichiometry to exact integers once per problem and
        answers batch nullity queries by certified fraction-free
        elimination over a gcd-reduced integer kernel basis, with
        elimination-prefix reuse across lexsorted supports and automatic
        residue-field / SVD escalation (:mod:`repro.linalg.modular`);
        ``"batched"`` buckets candidates by support size and decomposes
        each bucket with one gufunc-batched SVD call; ``"loop"`` is the
        reference one-SVD-per-candidate path (parity testing, benchmark
        baseline).  All three share the support-pattern rank memo and
        produce identical acceptance decisions.  The default follows
        ``REPRO_RANK_BACKEND``.
    ordering:
        Row-processing order.  ``"dynamic"`` (default) picks the next
        eliminated row at the top of every iteration from the *live* mode
        matrix: a :class:`~repro.core.ordering.RowSelector` scores each
        remaining row by its exact ``|pos| * |neg|`` pair count (the
        paper's cost driver — "computation time is proportional to the
        number of generated intermediate elementary modes"), optionally
        refined by a one-step lookahead (``selection_lookahead``), with
        reversible rows deferred until no irreversible row remains.  The
        static heuristics keep the one-shot permutation computed from the
        initial kernel: ``"paper"`` = fewest non-zeros first with
        reversible rows pushed last (§II.C); ``"natural"`` keeps kernel
        order; ``"most-nonzeros"`` is the adversarial ablation;
        ``"random"`` uses ``ordering_seed``.  Every ordering yields the
        same EFM set.  The default follows ``REPRO_ORDERING``.
    selection_lookahead:
        Dynamic selection's scoring-cost cap: the number of lowest-base-
        score rows shortlisted for the one-step lookahead refinement
        (simulate the candidate row's negative-mode removal, credit the
        cheapest follow-up row).  ``0`` selects on the base pair count
        alone — the column-partitioned driver always does, since lookahead
        needs the joint sign distribution only replicated drivers hold.
    pair_pruning:
        Zone-map pruning of the candidate pair space
        (:mod:`repro.core.pairspace`).  ``"tiles"`` (default) clusters
        each side's modes by support similarity, partitions them into
        ``pair_block``-sized blocks and skips whole tiles of the pair
        space whose zone-map bound proves every pair fails — or provably
        passes — the union-popcount prefilter; ``"none"`` disables the
        layer (the parity reference — both settings produce bit-identical
        EFM sets).  The default follows ``REPRO_PAIR_PRUNING``
        (``off``/``none`` disables).
    pair_block:
        Modes per zone-map block on each side of the pair space;
        ``"auto"`` (default) picks a size from the pair-space scale.
    pair_chunk:
        Upper bound on the pairs of one candidate-generation chunk.  The
        candidate phase (:mod:`repro.core.iterstream`) streams each
        iteration's pair space in chunks of ``min(pair_chunk, 16 MiB /
        per-pair transient bytes)`` pairs
        (:func:`repro.cluster.memory.streaming_chunk_pairs`).
    wire_protocol:
        Message serialization of the parallel backends.  ``"typed"``
        (default) frames known payload shapes (ndarrays, wire tuples,
        scalars) into one contiguous buffer-protocol blob, serialized
        exactly once per collective and decoded as zero-copy read-only
        array views; ``"pickle"`` is the legacy generic path (parity
        reference).  Both produce bit-identical EFM sets.  The default
        follows ``REPRO_WIRE_PROTOCOL``.
    comm_timeout_s:
        Seconds a blocking receive waits before declaring deadlock in the
        parallel backends (``REPRO_COMM_TIMEOUT_S``; previously a
        hard-coded 300 s in the process backend).
    ordering_seed:
        Seed for ``ordering="random"``.
    record_trace:
        Keep a per-iteration snapshot of the mode matrix (used to reproduce
        the paper's Figure 2; expensive — small networks only).
    """

    arithmetic: Arithmetic = "float"
    acceptance: AcceptanceTest = "rank"
    rank_backend: RankBackend = dataclasses.field(
        default_factory=_default_rank_backend
    )
    pair_pruning: PairPruning = dataclasses.field(
        default_factory=_default_pair_pruning
    )
    pair_block: int | str = "auto"
    ordering: OrderingName = dataclasses.field(default_factory=_default_ordering)
    selection_lookahead: int = DEFAULT_SELECTION_LOOKAHEAD
    pair_chunk: int = DEFAULT_PAIR_CHUNK
    wire_protocol: WireProtocol = dataclasses.field(
        default_factory=_default_wire_protocol
    )
    comm_timeout_s: float = dataclasses.field(default_factory=_default_comm_timeout)
    ordering_seed: int = 0
    record_trace: bool = False
    policy: NumericPolicy = DEFAULT_POLICY

    def __post_init__(self) -> None:
        if self.arithmetic not in ("float", "exact"):
            raise ValueError(f"unknown arithmetic {self.arithmetic!r}")
        if self.acceptance not in ("rank", "bittree", "both"):
            raise ValueError(f"unknown acceptance test {self.acceptance!r}")
        if self.rank_backend not in ("modular", "batched", "loop"):
            raise ValueError(f"unknown rank backend {self.rank_backend!r}")
        if self.pair_pruning not in ("tiles", "none"):
            raise ValueError(f"unknown pair pruning {self.pair_pruning!r}")
        if self.pair_block != "auto" and (
            not isinstance(self.pair_block, int) or self.pair_block < 1
        ):
            raise ValueError(
                f"pair_block must be 'auto' or a positive int, "
                f"got {self.pair_block!r}"
            )
        if self.ordering not in (
            "dynamic", "paper", "natural", "most-nonzeros", "random"
        ):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if not isinstance(self.selection_lookahead, int) or isinstance(
            self.selection_lookahead, bool
        ) or self.selection_lookahead < 0:
            raise ValueError(
                f"selection_lookahead must be a non-negative int, "
                f"got {self.selection_lookahead!r}"
            )
        if self.pair_chunk < 1:
            raise ValueError("pair_chunk must be positive")
        if self.wire_protocol not in ("typed", "pickle"):
            raise ValueError(f"unknown wire protocol {self.wire_protocol!r}")
        if self.comm_timeout_s <= 0:
            raise ValueError("comm_timeout_s must be positive")


#: Shared default options instance.
DEFAULT_OPTIONS = AlgorithmOptions()
