"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class NetworkError(ReproError):
    """A metabolic network is malformed or violates a structural invariant."""


class ParseError(NetworkError):
    """A reaction equation or network file could not be parsed."""


class CompressionError(NetworkError):
    """Network compression failed or produced an inconsistent record."""


class LinAlgError(ReproError):
    """An exact or floating linear-algebra routine failed."""


class AlgorithmError(ReproError):
    """The Nullspace Algorithm reached an invalid internal state."""


class NoModesError(AlgorithmError):
    """The stoichiometry has a trivial nullspace, so no steady-state flux
    and no elementary mode exists.  An outcome, not a failure:
    :func:`repro.efm.compute_efms` returns an empty result and the
    divide-and-conquer driver records an empty subset."""


class ReversibleIdentityError(AlgorithmError):
    """Reversible reactions would land in the kernel's identity block.

    The Nullspace Algorithm never processes identity-block rows, so a
    reversible reaction there would lose its negative-flux modes.  Carries
    the offending reaction names so callers can split them
    (:func:`repro.efm.split_reversible`) and retry.
    """

    def __init__(self, message: str, reactions: tuple[str, ...]) -> None:
        super().__init__(message)
        self.reactions = reactions


class DependentPartitionError(AlgorithmError):
    """A reversible divide-and-conquer partition reaction is linearly
    dependent on the other pivot columns, so its kernel row cannot carry
    negative entries and Proposition 1's early stop would miss modes.  The
    subset driver falls back to full enumeration + filtering."""


class PartitionError(ReproError):
    """An invalid divide-and-conquer partition was requested.

    Raised e.g. when a partitioning reaction was eliminated by the
    compression preprocessing step (the paper notes that partition reactions
    "can not be randomly selected" for exactly this reason).
    """


class CommunicatorError(ReproError):
    """Misuse or internal failure of the message-passing substrate."""


class SchedulerError(ReproError):
    """The subproblem scheduler or one of its executors failed.

    Raised when an executor worker dies with a non-algorithmic error, when
    a scheduler checkpoint directory belongs to a different run, or when an
    invalid executor/schedule combination is requested.  Algorithmic
    failures inside a subproblem (:class:`OutOfMemoryError`) are *not*
    wrapped in this error — they are captured per subset and handled by the
    scheduler's admission/degradation policy.
    """


class OutOfMemoryError(ReproError):
    """The modeled per-node memory capacity was exceeded.

    Mirrors the paper's Blue Gene/P failure mode where the combinatorial
    parallel algorithm on Network II "had to be abandoned at the 59th
    iteration, two iterations before completion" because the replicated mode
    matrix no longer fit in node memory.  Carries enough context for the
    adaptive divide-and-conquer driver to decide how to split further.
    """

    def __init__(
        self,
        message: str,
        *,
        iteration: int | None = None,
        required_bytes: int | None = None,
        capacity_bytes: int | None = None,
    ) -> None:
        super().__init__(message)
        #: Iteration (row index, 0-based within the processed rows) at which
        #: the capacity was exceeded, if known.
        self.iteration = iteration
        #: Bytes the algorithm would have needed at the failure point.
        self.required_bytes = required_bytes
        #: Modeled per-node capacity in bytes.
        self.capacity_bytes = capacity_bytes
