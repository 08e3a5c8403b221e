"""EFM result container in the *original* network's reaction space."""

from __future__ import annotations

import dataclasses
from typing import Iterator, Mapping

import numpy as np

from repro.core.stats import RunStats
from repro.errors import AlgorithmError
from repro.network.model import MetabolicNetwork
from repro.network.stoichiometry import stoichiometric_matrix


@dataclasses.dataclass
class EFMResult:
    """The elementary flux modes of a network.

    Attributes
    ----------
    network:
        The original (uncompressed) network.
    fluxes:
        ``(n_efms, n_reactions)`` float64, rows are modes, columns follow
        ``network.reaction_names``.  Each mode is normalized to unit
        max-norm; modes are rays (any positive scaling is the same mode).
    method:
        ``"serial"`` / ``"parallel"`` / ``"distributed"`` / ``"combined"``.
    stats:
        Run statistics (aggregated across ranks for parallel runs; ``None``
        for results assembled from sub-results that carry their own stats).
    meta:
        Free-form extras (subset tables, compression summary, ...).
    """

    network: MetabolicNetwork
    fluxes: np.ndarray
    method: str = "serial"
    stats: RunStats | None = None
    meta: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        self.fluxes = np.atleast_2d(np.asarray(self.fluxes, dtype=np.float64))
        if self.fluxes.shape[1] != self.network.n_reactions and self.fluxes.size:
            raise AlgorithmError(
                f"flux width {self.fluxes.shape[1]} != network reaction count "
                f"{self.network.n_reactions}"
            )

    # -- basics ----------------------------------------------------------------

    @property
    def n_efms(self) -> int:
        return int(self.fluxes.shape[0])

    def __len__(self) -> int:
        return self.n_efms

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.fluxes)

    def supports(self, *, tol: float = 1e-9) -> np.ndarray:
        """Boolean ``(n_efms, n_reactions)`` support mask."""
        return np.abs(self.fluxes) > tol

    def mode_as_dict(self, i: int, *, tol: float = 1e-9) -> Mapping[str, float]:
        """Mode ``i`` as ``{reaction: flux}`` over its support."""
        row = self.fluxes[i]
        return {
            name: float(row[j])
            for j, name in enumerate(self.network.reaction_names)
            if abs(row[j]) > tol
        }

    # -- canonicalization ---------------------------------------------------------

    def canonical(self, *, in_place: bool = False) -> "EFMResult":
        """Rows scaled to unit max-norm and sorted lexicographically —
        the canonical form used to compare EFM sets across methods.

        With ``in_place=True`` the rows are scaled in this result's own
        array, which is left scaled but unsorted; the finish of
        :func:`~repro.efm.api.compute_efms` does so on a result nothing
        else holds."""
        if not self.n_efms:
            return self
        v = self.fluxes if in_place else self.fluxes.copy()
        scale = np.maximum(v.max(axis=1), -v.min(axis=1))
        scale[scale == 0] = 1.0
        v /= scale[:, None]
        # The rounded keys die before the sorted copy is allocated, so at
        # most two arrays of the output's size are live at once.
        keys = np.round(v, 9)
        order = np.lexsort(keys.T[::-1])
        del keys
        return dataclasses.replace(self, fluxes=v[order])

    def same_modes_as(self, other: "EFMResult", *, atol: float = 1e-7) -> bool:
        """Set-equality of two EFM results (order/scale independent)."""
        a, b = self.canonical(), other.canonical()
        return a.fluxes.shape == b.fluxes.shape and bool(
            np.allclose(a.fluxes, b.fluxes, atol=atol)
        )

    # -- filters ---------------------------------------------------------------

    def with_active(self, reaction: str, *, tol: float = 1e-9) -> "EFMResult":
        """Modes carrying non-zero flux through ``reaction``."""
        j = self.network.reaction_index(reaction)
        mask = np.abs(self.fluxes[:, j]) > tol
        return dataclasses.replace(self, fluxes=self.fluxes[mask])

    def without_active(self, reaction: str, *, tol: float = 1e-9) -> "EFMResult":
        """Modes with zero flux through ``reaction``."""
        j = self.network.reaction_index(reaction)
        mask = np.abs(self.fluxes[:, j]) <= tol
        return dataclasses.replace(self, fluxes=self.fluxes[mask])

    # -- validation ----------------------------------------------------------------

    def validate(self, *, atol: float = 1e-7, check_minimality: bool = True) -> None:
        """Assert the three defining EFM properties.

        1. steady state: ``N @ e == 0`` for every mode;
        2. thermodynamic feasibility: irreversible fluxes are >= 0;
        3. elementarity: no mode's support strictly contains another's.

        Raises :class:`~repro.errors.AlgorithmError` on the first failure.
        Minimality is O(n_efms^2) — disable for very large sets.
        """
        if not self.n_efms:
            return
        n = stoichiometric_matrix(self.network)
        resid = np.abs(n @ self.fluxes.T)
        scale = max(1.0, float(np.abs(n).max()))
        if resid.size and resid.max() > atol * scale:
            raise AlgorithmError(f"steady-state violation: {resid.max():.3e}")
        irr = ~np.array(self.network.reversibility, dtype=bool)
        if irr.any():
            worst = self.fluxes[:, irr].min(initial=0.0)
            if worst < -atol:
                raise AlgorithmError(
                    f"irreversible reaction carries negative flux: {worst:.3e}"
                )
        if check_minimality:
            sup = self.supports()
            packed = np.packbits(sup, axis=1)
            for i in range(self.n_efms):
                inside = (packed & packed[i]) == packed
                inside = inside.all(axis=1)
                inside[i] = False
                if inside.any():
                    j = int(np.nonzero(inside)[0][0])
                    if (sup[j] != sup[i]).any():
                        raise AlgorithmError(
                            f"mode {i} support strictly contains mode {j}'s"
                        )
                    raise AlgorithmError(f"modes {i} and {j} share a support")

    # -- presentation ------------------------------------------------------------

    def integerized(self, *, max_denominator: int = 10**6) -> np.ndarray:
        """Modes scaled to smallest co-prime integers (paper's eq. (7)
        presentation)."""
        from fractions import Fraction
        import math

        out = np.zeros_like(self.fluxes)
        for i, row in enumerate(self.fluxes):
            fracs = [Fraction(float(x)).limit_denominator(max_denominator) for x in row]
            lcm = 1
            for f in fracs:
                lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
            ints = [int(f * lcm) for f in fracs]
            g = 0
            for v in ints:
                g = math.gcd(g, abs(v))
            if g > 1:
                ints = [v // g for v in ints]
            out[i] = ints
        return out

    def summary(self) -> str:
        return (
            f"{self.n_efms} elementary flux modes of {self.network.name!r} "
            f"({self.network.n_metabolites}x{self.network.n_reactions}) "
            f"via {self.method}"
        )
