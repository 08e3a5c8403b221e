"""Per-node memory accounting for the replicated mode matrix.

The combinatorial parallel Nullspace Algorithm replicates the current mode
matrix on every rank (§IV.B: "requires the storage of the current nullspace
matrix in the local memory across all compute nodes at each step").  This
model charges each rank for that replica — values plus packed supports plus
a transient factor for the iteration's working set — and raises
:class:`~repro.errors.OutOfMemoryError` when the configured capacity is
exceeded, reproducing the paper's Network II failure ("abandoned at the
59th iteration, two iterations before completion") and driving the
scheduler's refinement of divide-and-conquer subsets.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.core.state import ModeMatrix
from repro.errors import OutOfMemoryError
from repro.linalg import bitset

if TYPE_CHECKING:  # pragma: no cover
    from repro.dnc.subsets import SubsetSpec
    from repro.network.model import MetabolicNetwork


@dataclasses.dataclass
class MemoryModel:
    """Models one rank's memory budget for mode storage.

    Parameters
    ----------
    capacity_bytes:
        Budget for one rank's mode matrix (a replica, or a shard under
        the column-partitioned variant).  Pass e.g.
        ``JobShape.memory_per_rank`` (scaled down for tractable benchmark
        networks) or an artificial cap for tests.
    working_factor:
        Multiplier accounting for the iteration's transient allocations
        (candidate chunks, dedup buffers).  The replicated matrix is
        charged at ``working_factor * nbytes``.
    enforcing:
        When False the model only records the peak (dry-run mode).
    """

    capacity_bytes: int
    working_factor: float = 1.5
    enforcing: bool = True
    peak_bytes: int = 0
    last_iteration: int = -1

    def charge(
        self, iteration: int, modes: ModeMatrix, gathered_bytes: int = 0
    ) -> None:
        """Account one iteration's footprint — the rank's modes plus,
        on a sharded rank, the row's ``gathered_bytes`` of active modes
        alive beside them; raises on overflow."""
        need = int(self.working_factor * (modes.nbytes() + gathered_bytes))
        self.peak_bytes = max(self.peak_bytes, need)
        self.last_iteration = iteration
        if self.enforcing and need > self.capacity_bytes:
            raise OutOfMemoryError(
                f"the rank's modes need {need} bytes at iteration "
                f"{iteration} but the rank capacity is {self.capacity_bytes}",
                iteration=iteration,
                required_bytes=need,
                capacity_bytes=self.capacity_bytes,
            )

    def check(
        self, iteration: int, modes: ModeMatrix, gathered_bytes: int = 0
    ) -> None:
        """Alias matching the ``memory_check`` callback signature."""
        self.charge(iteration, modes, gathered_bytes)

    def fresh(self) -> "MemoryModel":
        """A zeroed copy with the same configuration (per-subproblem use)."""
        return MemoryModel(
            capacity_bytes=self.capacity_bytes,
            working_factor=self.working_factor,
            enforcing=self.enforcing,
        )


def estimate_mode_bytes(n_modes: int, q: int) -> int:
    """Closed-form footprint estimate for ``n_modes`` float modes over
    ``q`` reactions (values + packed supports), used by the divide-and-
    conquer planner before a subproblem runs."""
    words = max(1, (q + 63) // 64)
    return n_modes * (8 * q + 8 * words)


def prefilter_working_bytes(q: int, n_pairs: int, pair_chunk: int) -> int:
    """Transient working-set bytes of one candidate-generation chunk.

    Generation gathers, per pair in a chunk of ``min(n_pairs,
    pair_chunk)``: the pair-index vectors (4 int64), the ORed support
    words and the prefilter mask — plus, for survivors, the transient
    dense candidate chunk and its canonical mask + packed words, all freed
    once the chunk's supports are extracted but present at the peak.
    A peak estimate that ignores this undercounts the true peak by
    exactly these buffers.
    """
    words = max(1, (q + 63) // 64)
    chunk = max(0, min(int(n_pairs), int(pair_chunk)))
    return chunk * (32 + 24 * words + 1 + 8 * q + q + 8 * words)


#: Transient-byte budget of one candidate-phase chunk.  Large enough that
#: per-chunk dispatch overhead stays negligible, small enough that a
#: chunk's dense values never dominate a 4 GB-class node.
DEFAULT_STREAM_CHUNK_BYTES: int = 16 << 20


def streaming_chunk_pairs(q: int, pair_chunk: int = 65536) -> int:
    """Pairs per candidate-phase chunk: :data:`DEFAULT_STREAM_CHUNK_BYTES`
    divided by the per-pair transient cost of one generation chunk
    (:func:`prefilter_working_bytes` at ``n_pairs=1``), clamped to
    ``[1, pair_chunk]``."""
    per_pair = max(1, prefilter_working_bytes(q, 1, 1))
    return max(1, min(int(pair_chunk), DEFAULT_STREAM_CHUNK_BYTES // per_pair))


def modular_workset_bytes(q: int, rank: int, batch: int) -> int:
    """Transient working-set bytes of one modular rank-kernel batch
    (:mod:`repro.linalg.modular`).

    The kernel answers nullity queries in complement form against a
    ``(d, q)`` basis panel, ``d = q - rank``.  It eliminates a batch in
    blocks, each block's padded panel and elimination copies within
    :data:`~repro.linalg.bitset.TRANSIENT_BYTES` (on the exact arm and on
    the residue arm alike), so one block is charged: that budget, or the
    whole batch's stack (``batch * d * d`` entries at 16 bytes) when it
    is smaller.  Per candidate the batch also holds support, complement
    and index rows, at most ``24 * q + 64`` bytes; per problem the basis
    panel, one residue image and the symmetric gather table.
    """
    d = max(1, int(q) - int(rank))
    b = max(0, int(batch))
    block = min(bitset.TRANSIENT_BYTES, b * d * d * 16)
    rows = b * (24 * int(q) + 64)
    basis = d * q * 8 * 2 + (d + 1 + q) ** 2 * 8
    return block + rows + basis


def candidate_row_bytes(q: int) -> int:
    """Retained bytes per candidate between generation and the rank test:
    the packed support words plus two int64 pair indices (dense rows are
    materialized for accepted candidates only)."""
    words = max(1, (q + 63) // 64)
    return 8 * words + 16


def _surrogate_kernel(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cheap ``(I; R)``-form kernel for planning surrogates.

    One float Gauss–Jordan pass with partial pivoting (vectorized row
    updates, no SVD): returns ``(kernel, col_perm)`` with the same block
    shape as :func:`~repro.linalg.numeric.kernel_identity_form` — free
    columns first with an identity block on top — but without its
    pivot-priority handling or per-column rank certification.  Only the
    *sign pattern* feeds the trajectory simulation, so echelon-form
    fidelity is all that matters here.
    """
    a = np.asarray(n, dtype=np.float64).copy()
    m, q = a.shape
    tol = 1e-9 * max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    piv_cols: list[int] = []
    r = 0
    for c in range(q):
        if r == m:
            break
        p = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[p, c]) <= tol:
            continue
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] /= a[r, c]
        others = np.nonzero(np.abs(a[:, c]) > tol)[0]
        others = others[others != r]
        if others.size:
            a[others] -= np.outer(a[others, c], a[r])
        piv_cols.append(c)
        r += 1
    pivset = set(piv_cols)
    free = [c for c in range(q) if c not in pivset]
    col_perm = np.array(free + piv_cols, dtype=np.intp)
    n_free = len(free)
    kernel = np.zeros((q, n_free))
    if n_free:
        kernel[:n_free] = np.eye(n_free)
        if r:
            kernel[n_free:] = -a[:r][:, free]
    return kernel, col_perm


def _pair_trajectory_ratio(n: np.ndarray, reversible: np.ndarray) -> float:
    """Peak pair-count ratio of dynamic greedy selection vs the static
    paper order, on the *no-growth surrogate*.

    Both orders are simulated on the initial kernel's sign pattern alone:
    each step charges the chosen row its ``|pos| * |neg|`` pair count among
    the surviving modes, then (for irreversible rows) removes the negative
    modes — accepted candidates are ignored, mirroring the linear-growth
    surrogate's spirit of cheap, deterministic planning.  The returned
    ratio ``max(dynamic trajectory) / max(static trajectory)`` is how much
    the dynamic order shrinks the worst iteration's pair space; callers
    clamp and apply it to the pair-count surrogate only.

    The kernel comes from :func:`_surrogate_kernel` — one vectorized
    float RREF, not the solver's exact fraction-free
    :func:`~repro.linalg.numeric.kernel_identity_form` — because this
    runs once per subset inside the scheduler's planning pass and must
    stay negligible next to the subproblem solves it budgets for.
    """
    kernel, col_perm = _surrogate_kernel(n)
    q, n_free = kernel.shape
    if n_free == 0 or q <= n_free:
        return 1.0
    rev = np.asarray(reversible, dtype=bool)[col_perm]
    signs = np.sign(np.asarray(kernel, dtype=np.float64)).astype(np.int8)
    tail = np.arange(n_free, q)
    nnz = np.count_nonzero(kernel[tail], axis=1)
    static = tail[np.lexsort((tail, nnz, rev[tail].astype(np.int8)))]

    def simulate(dynamic: bool) -> int:
        alive = np.ones(n_free, dtype=bool)
        remaining = [int(r) for r in static]
        peak = 0
        while remaining:
            if dynamic:
                rows = np.array(remaining, dtype=np.int64)
                sub = signs[rows][:, alive]
                n_p = (sub > 0).sum(axis=1)
                n_n = (sub < 0).sum(axis=1)
                pairs_all = n_p * n_n
                irr = ~rev[rows]
                cand = np.nonzero(irr)[0] if irr.any() else np.arange(rows.size)
                # Same (active, pairs, position) key as RowSelector._pick.
                pick = cand[
                    np.lexsort((rows[cand], pairs_all[cand], (n_p + n_n)[cand]))[0]
                ]
                r = int(rows[pick])
                pairs = int(pairs_all[pick])
                remaining.remove(r)
            else:
                r = remaining.pop(0)
                srow = signs[r][alive]
                pairs = int((srow > 0).sum()) * int((srow < 0).sum())
            peak = max(peak, pairs)
            if not rev[r]:
                alive &= signs[r] >= 0
        return peak

    peak_static = simulate(False)
    if peak_static <= 0:
        return 1.0
    return simulate(True) / peak_static


def predict_subset_peak_bytes(
    reduced: "MetabolicNetwork",
    spec: "SubsetSpec",
    *,
    working_factor: float = 1.5,
    pair_chunk: int = 65536,
    ordering: str = "paper",
) -> int:
    """A-priori peak-footprint prediction for one divide-and-conquer
    subproblem, before its kernel is built.

    The subproblem's stoichiometry is the reduced network's with the
    subset's zero-flux columns deleted; its kernel starts with ``nullity``
    modes and grows over the ``q_work - rank - |pinned|`` processed rows.
    The true peak is exponential in the worst case and unknowable a
    priori, so this uses the linear-growth surrogate
    ``nullity * (1 + rows_to_process)`` — a deterministic, monotone proxy
    good enough for two scheduler decisions that only need *ordering* and
    *relative magnitude*: largest-predicted-first dispatch (LPT
    makespan heuristic) and the admission budget that bounds how much
    predicted peak may be in flight concurrently.

    The iteration's retained candidate set is charged per candidate at
    :func:`candidate_row_bytes` (packed supports + pair metadata).  This
    surrogate upper-bounds the candidate phase's live state (accepted set
    + dedup index).  On top of it the prediction charges the *transient*
    working set of one generation chunk (:func:`prefilter_working_bytes`
    for :func:`streaming_chunk_pairs` pairs, never more than the
    predicted pair count).

    The residue-field rank kernel's per-batch working set
    (:func:`modular_workset_bytes`) is charged on top of the candidate
    transients.

    With ``ordering="dynamic"`` the pair-count surrogate consumes the
    dynamic order's no-growth trajectory (:func:`_pair_trajectory_ratio`):
    dynamic selection picks the cheapest remaining row each iteration, so
    its worst pair space is at most the static order's — the simulated
    ratio, clamped to ``[0.25, 1.0]`` (never below a quarter, never an
    inflation), scales ``peak_pairs`` only.  The mode-storage and
    retained-candidate surrogates are left untouched: the final EFM set
    (and thus the mode-count growth envelope) is order-independent.

    Returns 0 for structurally empty subproblems (no flux possible).
    """
    from repro.network.stoichiometry import stoichiometric_matrix  # noqa: PLC0415

    n = stoichiometric_matrix(reduced)
    names = reduced.reaction_names
    keep = list(range(n.shape[1]))
    if spec.zero:
        zero = set(spec.zero)
        keep = [j for j, nm in enumerate(names) if nm not in zero]
        n = n[:, keep]
    q_work = n.shape[1]
    if q_work == 0:
        return 0
    rank = int(np.linalg.matrix_rank(n)) if n.size else 0
    nullity = q_work - rank
    if nullity <= 0:
        return 0
    rows_to_process = max(0, rank - len(spec.nonzero))
    peak_modes = nullity * (1 + rows_to_process)
    # Candidate surrogate: the retained candidate set at the peak iteration
    # is on the order of the mode count itself (most pairs die in the
    # union-support prefilter).
    cand_bytes = peak_modes * candidate_row_bytes(q_work)
    # Pair-count surrogate at the peak iteration: the two sign classes
    # split the peak mode count roughly in half.
    peak_pairs = (peak_modes // 2) * (peak_modes - peak_modes // 2)
    if ordering == "dynamic" and peak_pairs:
        try:
            rev_keep = np.asarray(reduced.reversibility, dtype=bool)[keep]
            ratio = min(1.0, max(0.25, _pair_trajectory_ratio(n, rev_keep)))
        except Exception:  # planning surrogate — never fail the prediction
            ratio = 1.0
        peak_pairs = max(1, int(peak_pairs * ratio))
    cand_bytes += prefilter_working_bytes(
        q_work, peak_pairs, streaming_chunk_pairs(q_work, pair_chunk)
    )
    # The residue-field kernel's per-batch working set: one bounded
    # elimination block plus per-candidate rows for a batch of at most the
    # surviving candidate count, surrogated by the peak modes.
    cand_bytes += modular_workset_bytes(q_work, rank, peak_modes)
    return int(
        working_factor * estimate_mode_bytes(peak_modes, q_work) + cand_bytes
    )
