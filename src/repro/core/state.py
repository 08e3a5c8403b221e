"""Mode-matrix state of the Nullspace Algorithm.

A :class:`ModeMatrix` is the current set of (candidate) flux modes: a dense
value matrix with **modes as rows** (shape ``(n_modes, q)``, row-major so a
mode is contiguous) plus the packed support bitsets kept exactly in sync.
Sub-threshold values are snapped to exact ``0.0`` at construction, so sign
splits (``> 0`` / ``< 0`` / ``== 0``) never disagree with the support bits.

Exact mode: the same container holds ``dtype=object`` arrays of
``fractions.Fraction``; zero tests are then exact comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from repro.config import DEFAULT_POLICY, NumericPolicy
from repro.errors import AlgorithmError
from repro.linalg import bitset
from repro.linalg.bitset import PackedSupports


def canonicalize_rows(values: np.ndarray, policy: NumericPolicy) -> np.ndarray:
    """Normalize float mode rows to unit max-norm and snap sub-threshold
    entries to exact ``0.0`` (fresh C-contiguous array).

    This is *the* definition of a canonical mode row, shared by the
    :class:`ModeMatrix` constructor and :class:`CandidateBatch`
    materialization.  Every operation is row-wise, so canonicalizing a
    matrix chunk by chunk yields bit-identical rows to one whole-matrix
    call — the dense-row/support-first equivalence contract rests on that.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    # Row-wise unit max-norm.  The snap decision is made on the *raw*
    # magnitudes against a per-row threshold (|v| <= zero_tol * rowmax),
    # which keeps it division-free — canonical_support_mask reads the same
    # decision off the same comparison without ever normalizing.
    mag = np.abs(values)
    scale = mag.max(axis=1)
    scale[scale == 0.0] = 1.0
    out = values / scale[:, None]
    out[mag <= (scale * policy.zero_tol)[:, None]] = 0.0
    return out


def canonical_support_mask(values: np.ndarray, policy: NumericPolicy) -> np.ndarray:
    """Boolean support mask of float rows after canonicalization, without
    retaining the normalized matrix — shape ``(n_modes, q)``.

    Produces exactly the mask :func:`canonicalize_rows` implies: the snap
    decision there is ``|v| <= zero_tol * rowmax`` on the raw magnitudes,
    and a surviving entry cannot normalize to ``0.0`` (``|v| / rowmax``
    stays far above the underflow range), so the complement of the snap
    comparison *is* the support — no division needed.  All-zero rows keep
    scale 1 and stay all-False.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.size == 0:
        return np.zeros(v.shape, dtype=bool)
    mag = np.abs(v)
    scale = mag.max(axis=1)
    scale[scale == 0.0] = 1.0
    return mag > (scale * policy.zero_tol)[:, None]


class ModeMatrix:
    """An immutable batch of flux modes with synchronized supports.

    Parameters
    ----------
    values:
        ``(n_modes, q)`` array, float64 or object (Fraction).  Rows are
        modes.  The constructor normalizes (unit max-norm for floats,
        smallest co-prime integers for exact mode) and snaps zeros.
    policy:
        Zero-threshold policy (ignored in exact mode).
    normalized:
        Skip normalization/snapping when the caller guarantees the rows are
        already canonical (used on slicing paths).
    """

    __slots__ = ("values", "supports", "policy", "_signs", "dedup_index")

    def __init__(
        self,
        values: np.ndarray,
        *,
        policy: NumericPolicy = DEFAULT_POLICY,
        normalized: bool = False,
    ) -> None:
        values = np.atleast_2d(values)
        if values.ndim != 2:
            raise AlgorithmError("ModeMatrix expects a 2-D (n_modes, q) array")
        if not normalized:
            if values.dtype == object:
                values = _integerize_rows(values)
            else:
                values = canonicalize_rows(values, policy)
        self.values = values
        self.policy = policy
        self._signs = None
        self.dedup_index = None
        if values.dtype == object:
            mask = np.array(
                [[x != 0 for x in row] for row in values], dtype=bool
            ).reshape(values.shape)
        else:
            mask = values != 0.0
        self.supports = PackedSupports.from_bool(mask.T)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_parts(
        cls,
        values: np.ndarray,
        supports: PackedSupports,
        policy: NumericPolicy = DEFAULT_POLICY,
    ) -> "ModeMatrix":
        """Reassemble a ModeMatrix from already-canonical parts (message
        deserialization path — skips normalization and repacking)."""
        if values.shape[0] != len(supports):
            raise AlgorithmError("values/supports mode count mismatch")
        out = cls.__new__(cls)
        out.values = values
        out.supports = supports
        out.policy = policy
        out._signs = None
        out.dedup_index = None
        return out

    @classmethod
    def from_pairs(
        cls,
        source_values: np.ndarray,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        coef_a: np.ndarray,
        coef_b: np.ndarray,
        *,
        policy: NumericPolicy = DEFAULT_POLICY,
    ) -> "ModeMatrix":
        """Materialize candidate rows ``a * source[i] + b * source[j]`` —
        the deferred pipeline's single materialization point.

        The combination and the constructor's canonicalization are both
        row-wise, so the result is bit-identical to a matrix built eagerly
        from the same pairs in any chunking or order.
        """
        if pair_i.size == 0:
            return cls.empty(source_values.shape[1], policy=policy)
        vals = (
            source_values[pair_i] * coef_a[:, None]
            + source_values[pair_j] * coef_b[:, None]
        )
        return cls(vals, policy=policy)

    @classmethod
    def empty(cls, q: int, *, exact: bool = False,
              policy: NumericPolicy = DEFAULT_POLICY) -> "ModeMatrix":
        dtype = object if exact else np.float64
        return cls(np.zeros((0, q), dtype=dtype), policy=policy, normalized=True)

    @classmethod
    def from_kernel(cls, kernel: np.ndarray, *, exact: bool = False,
                    policy: NumericPolicy = DEFAULT_POLICY) -> "ModeMatrix":
        """Build the initial mode set from a ``(q, n_free)`` kernel whose
        *columns* are the starting modes."""
        vals = kernel.T
        if exact:
            obj = np.empty(vals.shape, dtype=object)
            for i in range(vals.shape[0]):
                for j in range(vals.shape[1]):
                    x = vals[i, j]
                    obj[i, j] = x if isinstance(x, Fraction) else Fraction(x).limit_denominator(10**9)
            vals = obj
        return cls(vals, policy=policy)

    # -- basic protocol ------------------------------------------------------

    @property
    def n_modes(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        """Number of reactions (columns of the value matrix)."""
        return self.values.shape[1]

    @property
    def exact(self) -> bool:
        return self.values.dtype == object

    def __len__(self) -> int:
        return self.n_modes

    def nbytes(self) -> int:
        """Replicated storage footprint of this mode set (values +
        supports + the cached sign matrix once primed, plus an attached
        streaming dedup index while one is alive) — what the paper's
        memory bottleneck is made of."""
        signs = 0 if self._signs is None else int(self._signs.nbytes)
        extra = 0 if self.dedup_index is None else self.dedup_index.nbytes()
        if self.exact:
            # Fractions are heap objects; approximate with 32 bytes/entry.
            return self.values.size * 32 + self.supports.nbytes() + signs + extra
        return int(self.values.nbytes) + self.supports.nbytes() + signs + extra

    # -- row access -----------------------------------------------------------

    def column(self, k: int) -> np.ndarray:
        """Values of reaction-position ``k`` across all modes, shape
        ``(n_modes,)``."""
        return self.values[:, k]

    def sign_matrix(self) -> np.ndarray:
        """Entry signs as int8, shape ``(n_modes, q)``, computed once and
        cached.  ``select``/``concat`` propagate the cache, so after the
        first iteration touches it only *new* candidates pay the (for exact
        mode, per-element Python comparison) cost."""
        if self._signs is None:
            v = self.values
            if self.exact:
                self._signs = (v > 0).astype(np.int8) - (v < 0).astype(np.int8)
            else:
                self._signs = np.sign(v).astype(np.int8)
        return self._signs

    def sign_column(self, k: int) -> np.ndarray:
        """Signs of reaction-position ``k`` across all modes, int8."""
        return self.sign_matrix()[:, k]

    def select(self, idx: np.ndarray | Sequence[int]) -> "ModeMatrix":
        """Subset of modes by index or boolean mask (supports stay in
        sync without re-normalization)."""
        idx = np.asarray(idx)
        out = ModeMatrix.__new__(ModeMatrix)
        out.values = self.values[idx]
        out.policy = self.policy
        out.supports = self.supports[idx]
        out._signs = None if self._signs is None else self._signs[idx]
        out.dedup_index = None
        return out

    def concat(self, other: "ModeMatrix") -> "ModeMatrix":
        if other.q != self.q:
            raise AlgorithmError("concat of ModeMatrix with mismatched q")
        if other.exact != self.exact:
            raise AlgorithmError("cannot mix exact and float ModeMatrix")
        out = ModeMatrix.__new__(ModeMatrix)
        out.values = np.concatenate([self.values, other.values], axis=0)
        out.policy = self.policy
        out.supports = self.supports.concat(other.supports)
        out.dedup_index = None
        # Keep the sign cache warm once primed: only the (typically small)
        # other side recomputes, never the accumulated survivor block.
        if self._signs is None:
            out._signs = None
        else:
            out._signs = np.concatenate(
                [self.sign_matrix(), other.sign_matrix()], axis=0
            )
        return out

    def dedup(self) -> "ModeMatrix":
        """Remove modes with duplicate supports, keeping first occurrences
        (the paper's Sort&RemoveDuplicates)."""
        _, first = bitset.unique_rows(self.supports.words)
        if len(first) == self.n_modes:
            return self
        return self.select(first)

    def float_values(self) -> np.ndarray:
        """Values as float64 ``(n_modes, q)``: the stored array for float
        modes, a converted copy for exact ones."""
        return self.values.astype(np.float64, copy=False)

    def modes_as_columns(self) -> np.ndarray:
        """Values with modes as columns, shape ``(q, n_modes)`` — the
        paper's matrix orientation (eq. (5)), float64."""
        return self.float_values().T.copy()

    def __repr__(self) -> str:
        kind = "exact" if self.exact else "float"
        return f"<ModeMatrix {self.n_modes} modes x {self.q} reactions ({kind})>"


class CandidateBatch:
    """Deferred candidate modes: packed supports plus pair provenance.

    The candidate phase's float representation.  Instead of a dense
    normalized float64 row per prefilter survivor, this container carries
    only what dedup and the rank test actually consume — the canonical packed support words — plus
    the ``(i, j)`` source-mode indices and the iteration row ``row`` they
    were paired on.  That triple fully determines the dense row
    ``(-src[j, row]) * src[i] + src[i, row] * src[j]``, so not even the
    combination coefficients are stored: they are recomputed from the
    source matrix at the single materialization point
    (:meth:`materialize`), for accepted candidates only.

    Pair indices address rows of the *source* mode matrix the batch was
    generated from (the iteration's replicated mode set), so a batch is
    meaningful on any rank holding that replica — which is what lets the
    combinatorial allgather ship batches instead of dense rows.

    Float arithmetic only; exact-mode runs carry dense
    :class:`ModeMatrix` candidates.
    """

    __slots__ = ("supports", "pair_i", "pair_j", "row", "policy", "dedup_index")

    def __init__(
        self,
        supports: PackedSupports,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        row: int,
        *,
        policy: NumericPolicy = DEFAULT_POLICY,
    ) -> None:
        n = len(supports)
        self.pair_i = np.ascontiguousarray(pair_i, dtype=np.int64)
        self.pair_j = np.ascontiguousarray(pair_j, dtype=np.int64)
        for arr in (self.pair_i, self.pair_j):
            if arr.shape != (n,):
                raise AlgorithmError("CandidateBatch supports/pairs length mismatch")
        self.supports = supports
        self.row = int(row)
        self.policy = policy
        self.dedup_index = None

    @classmethod
    def empty(
        cls, q: int, row: int = 0, policy: NumericPolicy = DEFAULT_POLICY
    ) -> "CandidateBatch":
        z = np.zeros(0, dtype=np.int64)
        return cls(PackedSupports.empty(q), z, z, row, policy=policy)

    @classmethod
    def _from_parts(
        cls,
        supports: PackedSupports,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        row: int,
        policy: NumericPolicy,
    ) -> "CandidateBatch":
        """Internal fast path: parts already coerced and length-checked
        (select / concat / dedup slicing — hot in the iteration loop)."""
        out = cls.__new__(cls)
        out.supports = supports
        out.pair_i = pair_i
        out.pair_j = pair_j
        out.row = row
        out.policy = policy
        out.dedup_index = None
        return out

    # -- ModeMatrix-compatible protocol (dedup / rank test surface) ----------

    @property
    def n_modes(self) -> int:
        return len(self.supports)

    @property
    def q(self) -> int:
        return self.supports.n_rows

    @property
    def exact(self) -> bool:
        return False

    def __len__(self) -> int:
        return self.n_modes

    def nbytes(self) -> int:
        """Retained footprint: support words + pair indices (no dense
        values and no coefficients, by construction), plus an attached
        streaming dedup index while one is alive."""
        return (
            self.supports.nbytes()
            + int(self.pair_i.nbytes)
            + int(self.pair_j.nbytes)
            + (0 if self.dedup_index is None else self.dedup_index.nbytes())
        )

    def select(self, idx: np.ndarray | Sequence[int]) -> "CandidateBatch":
        idx = np.asarray(idx)
        return CandidateBatch._from_parts(
            self.supports[idx],
            self.pair_i[idx],
            self.pair_j[idx],
            self.row,
            self.policy,
        )

    def concat(self, other: "CandidateBatch") -> "CandidateBatch":
        if other.q != self.q:
            raise AlgorithmError("concat of CandidateBatch with mismatched q")
        if other.row != self.row and other.n_modes and self.n_modes:
            raise AlgorithmError("concat of CandidateBatch from different rows")
        return CandidateBatch._from_parts(
            self.supports.concat(other.supports),
            np.concatenate([self.pair_i, other.pair_i]),
            np.concatenate([self.pair_j, other.pair_j]),
            self.row if self.n_modes else other.row,
            self.policy,
        )

    def dedup(self) -> "CandidateBatch":
        """First-occurrence support dedup — same canonical order as
        :meth:`ModeMatrix.dedup`, so both representations keep identical
        survivors."""
        _, first = bitset.unique_rows(self.supports.words)
        if len(first) == self.n_modes:
            return self
        return self.select(first)

    # -- materialization and wire format -------------------------------------

    def materialize(self, source_values: np.ndarray) -> ModeMatrix:
        """Dense normalized rows for every candidate in the batch, rebuilt
        from the source mode values the pair indices address.

        The combination coefficients are recomputed here from the source
        matrix's ``row`` column exactly as generation formed them
        (``a = -col[j] > 0``, ``b = col[i] > 0``), and the batch's supports
        *are* the canonical supports of the rebuilt rows (extracted from
        the identical transient values at generation), so they are
        reattached directly instead of re-derived."""
        if self.n_modes == 0:
            return ModeMatrix.empty(self.q, policy=self.policy)
        col = source_values[:, self.row]
        # In-place on the two fancy-index copies.  ``b*y - c*x`` rounds
        # bit-identically to the eager chunk combination's
        # ``(-c)*x + b*y``: IEEE negation is exact and addition commutes,
        # so the subtraction spells the same multiply/multiply/add.
        sub = source_values[self.pair_i]
        sub *= col[self.pair_j][:, None]
        vals = source_values[self.pair_j]
        vals *= col[self.pair_i][:, None]
        vals -= sub
        return ModeMatrix.from_parts(
            canonicalize_rows(vals, self.policy), self.supports, self.policy
        )

    def to_wire(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Allgather payload: packed support words plus int32 pair indices.

        The iteration row is implicit (all ranks are on the same row of the
        same replicated matrix), and mode counts are far below 2**31 (a
        single replica would exceed any node memory first), so int32
        indices are safe.  Per candidate this is ``8 * words + 8`` bytes
        against a dense row's ``8 * q + 8 * words``."""
        return (
            self.supports.words,
            self.pair_i.astype(np.int32),
            self.pair_j.astype(np.int32),
        )

    @classmethod
    def from_wire(
        cls,
        parts,
        q: int,
        row: int,
        policy: NumericPolicy = DEFAULT_POLICY,
    ) -> "CandidateBatch":
        """Rebuild a batch from :meth:`to_wire` parts.

        ``row`` is the iteration row the sender was processing — the
        receiver supplies it from its own loop counter (lockstep SPMD).
        Materialization recomputes the combination coefficients from the
        receiver's replica, which is bit-identical to the sender's."""
        words, pair_i, pair_j = parts
        # int32 indices index numpy arrays directly; no widening needed.
        return cls._from_parts(
            PackedSupports(words, q), pair_i, pair_j, row, policy
        )

    def __repr__(self) -> str:
        return f"<CandidateBatch {self.n_modes} candidates x {self.q} reactions>"


def _integerize_rows(values: np.ndarray) -> np.ndarray:
    """Scale each object-dtype row to smallest co-prime integers (as
    Fractions), preserving sign."""
    import math

    out = np.empty(values.shape, dtype=object)
    for i in range(values.shape[0]):
        row = [x if isinstance(x, Fraction) else Fraction(x) for x in values[i]]
        denom_lcm = 1
        for x in row:
            denom_lcm = denom_lcm * x.denominator // math.gcd(denom_lcm, x.denominator)
        ints = [int(x * denom_lcm) for x in row]
        g = 0
        for v in ints:
            g = math.gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
        for j, v in enumerate(ints):
            out[i, j] = Fraction(v)
    return out
