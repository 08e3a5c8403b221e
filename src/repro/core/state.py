"""Mode-matrix state of the Nullspace Algorithm.

A :class:`ModeMatrix` is the current set of (candidate) flux modes: an
exact integer value matrix with **modes as rows** (shape ``(n_modes, q)``,
row-major so a mode is contiguous), each row divided by the gcd of its
entries, plus the packed support bitsets kept exactly in sync.  A
support is ``values != 0``: no tolerance decides what is zero, and sign
splits (``> 0`` / ``< 0`` / ``== 0``) can never disagree with the bits.

Rows are int64 while every combination provably fits.  Before an
iteration combines rows, :meth:`ModeMatrix.widen_for_row` checks the
envelope ``2 * max|coef| * max|row| < 2**63`` and, when it fails, moves
the matrix to Python ints (``object`` dtype) for the rest of the run —
the same envelope idea as the rank kernel's (:mod:`repro.linalg.modular`).
:func:`unit_float_rows` is the one conversion to float.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import AlgorithmError
from repro.linalg import bitset
from repro.linalg.bitset import PackedSupports
from repro.linalg.modular import gcd_reduce_columns
from repro.linalg.numeric import INT64_LIMIT


def _integer_rows(values: np.ndarray) -> np.ndarray:
    """A fresh C-contiguous integer copy of ``values``: int64, or Python
    ints when already ``object``.  Floats are accepted only when every
    entry is integral and inside the int64 range."""
    if values.dtype == object:
        return np.array(values, dtype=object, order="C")
    if values.dtype.kind in "iub":
        return np.array(values, dtype=np.int64, order="C")
    r = np.rint(values)
    if np.any(r != values) or (r.size and np.abs(r).max() >= INT64_LIMIT):
        raise AlgorithmError("mode values must be integers")
    return r.astype(np.int64)


def unit_float_rows(
    values: np.ndarray, columns: np.ndarray | None = None
) -> np.ndarray:
    """Integer rows scaled to unit max-norm as float64, shape ``(n_rows,
    len(columns))``, columns in ``columns`` order (default: all, in place)
    — the one conversion of exact modes to float.

    An entry below 2**53 in magnitude becomes the correctly rounded
    quotient of two integers.  int64 rows are converted a column at a
    time, so the result is the only full-size array allocated."""
    v = values
    if columns is None:
        columns = np.arange(v.shape[1])
    if v.dtype == object:
        scale = np.abs(v).max(axis=1) if v.size else np.ones(0, dtype=object)
        scale[scale == 0] = 1
        return np.asarray(v[:, columns] / scale[:, None], dtype=np.float64)
    out = np.empty((v.shape[0], len(columns)))
    for j, c in enumerate(columns):
        out[:, j] = v[:, c]
    if v.size:
        scale = np.maximum(out.max(axis=1), -out.min(axis=1))
        scale[scale == 0] = 1
        out /= scale[:, None]
    return out


class ModeMatrix:
    """An immutable batch of flux modes with synchronized supports.

    Parameters
    ----------
    values:
        ``(n_modes, q)`` integer array (int64 or ``object`` Python ints).
        Rows are modes.  The constructor divides each row by the gcd of
        its entries (:meth:`from_parts` skips that for rows already
        reduced).
    """

    __slots__ = ("values", "supports", "_signs", "_max_abs", "dedup_index")

    def __init__(self, values: np.ndarray) -> None:
        values = np.atleast_2d(values)
        if values.ndim != 2:
            raise AlgorithmError("ModeMatrix expects a 2-D (n_modes, q) array")
        values = _integer_rows(values)
        gcd_reduce_columns(values.T)
        self.values = values
        self._signs = None
        self._max_abs = None
        self.dedup_index = None
        self.supports = PackedSupports.from_bool((values != 0).T)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_parts(
        cls, values: np.ndarray, supports: PackedSupports
    ) -> "ModeMatrix":
        """Reassemble a ModeMatrix from already-reduced parts (message
        deserialization path — skips the reduction and repacking)."""
        if values.shape[0] != len(supports):
            raise AlgorithmError("values/supports mode count mismatch")
        out = cls.__new__(cls)
        out.values = values
        out.supports = supports
        out._signs = None
        out._max_abs = None
        out.dedup_index = None
        return out

    @classmethod
    def empty(cls, q: int) -> "ModeMatrix":
        return cls(np.zeros((0, q), dtype=np.int64))

    @classmethod
    def from_kernel(cls, kernel: np.ndarray) -> "ModeMatrix":
        """Build the initial mode set from a ``(q, n_free)`` integer
        kernel whose *columns* are the starting modes."""
        return cls(kernel.T)

    # -- basic protocol ------------------------------------------------------

    @property
    def n_modes(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        """Number of reactions (columns of the value matrix)."""
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.n_modes

    def nbytes(self) -> int:
        """Replicated storage footprint of this mode set (values +
        supports + the cached sign matrix once primed, plus an attached
        streaming dedup index while one is alive) — what the paper's
        memory bottleneck is made of."""
        signs = 0 if self._signs is None else int(self._signs.nbytes)
        extra = 0 if self.dedup_index is None else self.dedup_index.nbytes()
        if self.values.dtype == object:
            # Python ints are heap objects; approximate with 32 bytes/entry.
            return self.values.size * 32 + self.supports.nbytes() + signs + extra
        return int(self.values.nbytes) + self.supports.nbytes() + signs + extra

    # -- the int64 envelope ----------------------------------------------------

    def max_abs(self) -> int:
        """An upper bound on ``|values|`` (exact when computed here; kept
        through :meth:`select`, so it may overestimate after one)."""
        if self._max_abs is None:
            self._max_abs = int(np.abs(self.values).max()) if self.values.size else 0
        return self._max_abs

    def widen_for_row(self, k: int) -> bool:
        """Move the rows to Python ints if combining on row ``k`` could
        leave int64.

        A candidate is ``|b| * x + |c| * y`` with ``|b|, |c| <=
        max|column k|`` and every entry of ``x`` and ``y`` at most
        :meth:`max_abs`, so int64 holds every candidate while ``2 *
        max|column k| * max|row| < 2**63``.  Returns whether the rows
        moved; the values, supports and signs are unchanged either way.
        """
        if self.values.dtype == object or not self.n_modes:
            return False
        coef = int(np.abs(self.values[:, k]).max())
        if 2 * coef * self.max_abs() < INT64_LIMIT:
            return False
        self.values = self.values.astype(object)
        return True

    # -- row access -----------------------------------------------------------

    def column(self, k: int) -> np.ndarray:
        """Values of reaction-position ``k`` across all modes, shape
        ``(n_modes,)``."""
        return self.values[:, k]

    def sign_matrix(self) -> np.ndarray:
        """Entry signs as int8, shape ``(n_modes, q)``, computed once and
        cached.  ``select``/``concat`` propagate the cache, so after the
        first iteration touches it only *new* candidates pay the cost."""
        if self._signs is None:
            v = self.values
            self._signs = np.sign(v).astype(np.int8)
        return self._signs

    def sign_column(self, k: int) -> np.ndarray:
        """Signs of reaction-position ``k`` across all modes, int8."""
        return self.sign_matrix()[:, k]

    def select(self, idx: np.ndarray | Sequence[int]) -> "ModeMatrix":
        """Subset of modes by index or boolean mask (supports stay in
        sync without re-reduction)."""
        idx = np.asarray(idx)
        out = ModeMatrix.__new__(ModeMatrix)
        out.values = self.values[idx]
        out.supports = self.supports[idx]
        out._signs = None if self._signs is None else self._signs[idx]
        out._max_abs = self._max_abs
        out.dedup_index = None
        return out

    def concat(self, other: "ModeMatrix") -> "ModeMatrix":
        """Both mode sets, ``self`` first (Python ints if either side
        holds them)."""
        if other.q != self.q:
            raise AlgorithmError("concat of ModeMatrix with mismatched q")
        out = ModeMatrix.__new__(ModeMatrix)
        out.values = np.concatenate([self.values, other.values], axis=0)
        out.supports = self.supports.concat(other.supports)
        out._max_abs = max(self.max_abs(), other.max_abs())
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

    def float_values(self, columns: np.ndarray | None = None) -> np.ndarray:
        """Rows scaled to unit max-norm as float64, shape ``(n_modes,
        len(columns))``, columns in ``columns`` order (default: all, in
        place) — see :func:`unit_float_rows`."""
        return unit_float_rows(self.values, columns)

    def modes_as_columns(self) -> np.ndarray:
        """Integer values with modes as columns, shape ``(q, n_modes)`` —
        the paper's matrix orientation (eq. (5))."""
        return self.values.T.copy()

    def __repr__(self) -> str:
        kind = "int" if self.values.dtype == object else "int64"
        return f"<ModeMatrix {self.n_modes} modes x {self.q} reactions ({kind})>"


class CandidateBatch:
    """Deferred candidate modes: packed supports plus pair provenance.

    The candidate phase's representation.  Instead of a dense integer
    row per prefilter survivor, this container carries only what dedup
    and the rank test actually consume — the packed support words — plus
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
    """

    __slots__ = ("supports", "pair_i", "pair_j", "row", "dedup_index")

    def __init__(
        self,
        supports: PackedSupports,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        row: int,
    ) -> None:
        n = len(supports)
        self.pair_i = np.ascontiguousarray(pair_i, dtype=np.int64)
        self.pair_j = np.ascontiguousarray(pair_j, dtype=np.int64)
        for arr in (self.pair_i, self.pair_j):
            if arr.shape != (n,):
                raise AlgorithmError("CandidateBatch supports/pairs length mismatch")
        self.supports = supports
        self.row = int(row)
        self.dedup_index = None

    @classmethod
    def empty(cls, q: int, row: int = 0) -> "CandidateBatch":
        z = np.zeros(0, dtype=np.int64)
        return cls(PackedSupports.empty(q), z, z, row)

    @classmethod
    def _from_parts(
        cls,
        supports: PackedSupports,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        row: int,
    ) -> "CandidateBatch":
        """Internal fast path: parts already coerced and length-checked
        (select / concat / dedup slicing — hot in the iteration loop)."""
        out = cls.__new__(cls)
        out.supports = supports
        out.pair_i = pair_i
        out.pair_j = pair_j
        out.row = row
        out.dedup_index = None
        return out

    # -- ModeMatrix-compatible protocol (dedup / rank test surface) ----------

    @property
    def n_modes(self) -> int:
        return len(self.supports)

    @property
    def q(self) -> int:
        return self.supports.n_rows

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
        """Dense reduced rows for every candidate in the batch, rebuilt
        from the source mode values the pair indices address — the one
        place accepted candidates become rows.

        The combination coefficients are recomputed here from the source
        matrix's ``row`` column exactly as generation formed them
        (``a = -col[j] > 0``, ``b = col[i] > 0``); integer combinations
        are exact, so the batch's supports *are* the supports of the rebuilt
        rows and are reattached directly.  Each row is then divided by
        the gcd of its entries.  ``source_values`` must have passed
        :meth:`ModeMatrix.widen_for_row` for ``row``."""
        if self.n_modes == 0:
            return ModeMatrix.empty(self.q)
        col = source_values[:, self.row]
        vals = source_values[self.pair_j] * col[self.pair_i][:, None]
        vals -= source_values[self.pair_i] * col[self.pair_j][:, None]
        gcd_reduce_columns(vals.T)
        out = ModeMatrix.from_parts(vals, self.supports)
        out.max_abs()
        return out

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
    def from_wire(cls, parts, q: int, row: int) -> "CandidateBatch":
        """Rebuild a batch from :meth:`to_wire` parts.

        ``row`` is the iteration row the sender was processing — the
        receiver supplies it from its own loop counter (lockstep SPMD).
        Materialization recomputes the combination coefficients from the
        receiver's replica, which is bit-identical to the sender's."""
        words, pair_i, pair_j = parts
        # int32 indices index numpy arrays directly; no widening needed.
        return cls._from_parts(
            PackedSupports(words, q), pair_i, pair_j, row
        )

    def __repr__(self) -> str:
        return f"<CandidateBatch {self.n_modes} candidates x {self.q} reactions>"
