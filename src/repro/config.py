"""Algorithm options.

:class:`AlgorithmOptions` collects every tunable of the core algorithm
(ordering heuristic, chunk sizes, ...).  None of them is numeric: modes
are exact integer rows and every zero test and rank decision is exact,
so there is no tolerance to tune.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Literal

#: Upper bound on the candidate pairs of one vectorized generation chunk.
#: Bounds peak memory of candidate generation: a chunk allocates
#: ``chunk_size * n_rows`` int64 values plus the packed supports.
DEFAULT_PAIR_CHUNK: int = 65536

OrderingName = Literal[
    "dynamic", "paper", "natural", "most-nonzeros", "random"
]


def resolve_comm_timeout(value: float | None = None) -> float:
    """Blocking-receive poll timeout (seconds) of the parallel backends:
    ``value`` when given, else ``REPRO_COMM_TIMEOUT_S``, else 300."""
    if value is None:
        value = os.environ.get("REPRO_COMM_TIMEOUT_S", "300")
    out = float(value)
    if not (math.isfinite(out) and out > 0):
        raise ValueError(f"comm timeout must be positive and finite, got {out}")
    return out


def _default_ordering() -> str:
    """Session-wide row-ordering default, overridable via the environment
    so a whole test run can be flipped to the static paper heuristic (the
    CI ``ordering`` leg sets ``REPRO_ORDERING=paper``)."""
    return os.environ.get("REPRO_ORDERING", "dynamic")


#: Default number of shortlisted rows the dynamic selector refines with
#: the one-step lookahead score (0 = base pair-count score only).
DEFAULT_SELECTION_LOOKAHEAD: int = 4


@dataclasses.dataclass(frozen=True)
class AlgorithmOptions:
    """Tunables of the (serial and parallel) Nullspace Algorithm.

    Parameters
    ----------
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

    ordering: OrderingName = dataclasses.field(default_factory=_default_ordering)
    selection_lookahead: int = DEFAULT_SELECTION_LOOKAHEAD
    pair_chunk: int = DEFAULT_PAIR_CHUNK
    comm_timeout_s: float = dataclasses.field(default_factory=resolve_comm_timeout)
    ordering_seed: int = 0
    record_trace: bool = False

    def __post_init__(self) -> None:
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
