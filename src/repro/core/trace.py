"""Per-iteration snapshots of the mode matrix (the paper's Figure 2).

With ``AlgorithmOptions(record_trace=True)`` the serial driver captures the
full intermediate nullspace matrix after every iteration, letting examples
and tests print the K⁽¹⁾…K⁽⁵⁾ sequence of the toy network exactly as the
paper does.  Snapshots copy the whole matrix — small networks only.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel import NullspaceProblem
    from repro.core.state import ModeMatrix


@dataclasses.dataclass(frozen=True)
class IterationTrace:
    """Mode matrix state after processing one row."""

    position: int
    reaction: str
    row_names: tuple[str, ...]
    #: matrix in the paper's orientation: rows = reactions, cols = modes,
    #: as the exact coprime integers the run carries.
    matrix: np.ndarray
    #: dynamic ordering's selection-time |pos|*|neg| score of this row
    #: (0 for static orderings — see repro.core.ordering.RowSelector).
    sel_score: int = 0

    @classmethod
    def capture(
        cls,
        position: int,
        problem: "NullspaceProblem",
        modes: "ModeMatrix",
        sel_score: int = 0,
    ) -> "IterationTrace":
        return cls(
            position=position,
            reaction=problem.names[position],
            row_names=problem.names,
            matrix=modes.modes_as_columns(),
            sel_score=sel_score,
        )

    def render(self, *, fmt: str = "{:>5}") -> str:
        """Pretty-print the snapshot like the paper's K^(i) matrices."""
        lines = [f"after row {self.position} ({self.reaction}):"]
        for r, name in enumerate(self.row_names):
            cells = " ".join(fmt.format(x) for x in self.matrix[r])
            lines.append(f"  {name:>6s} | {cells}")
        return "\n".join(lines)
