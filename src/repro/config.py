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


def resolve_comm_timeout(value: float | None = None) -> float:
    """Blocking-receive poll timeout (seconds) of the parallel backends:
    ``value`` when given, else ``REPRO_COMM_TIMEOUT_S``, else 300."""
    if value is None:
        value = os.environ.get("REPRO_COMM_TIMEOUT_S", "300")
    out = float(value)
    if out <= 0:
        raise ValueError(f"comm timeout must be positive, got {out}")
    return out


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
        elimination over a gcd-reduced integer kernel basis, settling
        unit basis rows without elimination, with automatic
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
    pair_chunk:
        Upper bound on the pairs of one candidate-generation chunk.  The
        candidate phase (:mod:`repro.core.iterstream`) streams each
        iteration's pair space in chunks of ``min(pair_chunk, 16 MiB /
        per-pair transient bytes)`` pairs
        (:func:`repro.cluster.memory.streaming_chunk_pairs`).
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
    ordering: OrderingName = dataclasses.field(default_factory=_default_ordering)
    selection_lookahead: int = DEFAULT_SELECTION_LOOKAHEAD
    pair_chunk: int = DEFAULT_PAIR_CHUNK
    comm_timeout_s: float = dataclasses.field(default_factory=resolve_comm_timeout)
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
        resolve_comm_timeout(self.comm_timeout_s)


#: Shared default options instance.
DEFAULT_OPTIONS = AlgorithmOptions()
