"""Linear-algebra substrate: exact rational routines, tolerant floating
routines, the exact rank engine's memo, and packed bitset support
patterns."""

from repro.linalg.bitset import (
    PackedSupports,
    pack_supports,
    popcount,
    subset_rows,
    unique_rows,
)
from repro.linalg.numeric import (
    column_normalize,
    kernel_identity_form,
    support_of,
)
from repro.linalg.rankmemo import (
    CacheBinding,
    RankCache,
    problem_token,
)
from repro.linalg.rational import (
    exact_nullspace,
    exact_rank,
    rref,
)

__all__ = [
    "CacheBinding",
    "RankCache",
    "problem_token",
    "PackedSupports",
    "pack_supports",
    "popcount",
    "subset_rows",
    "unique_rows",
    "column_normalize",
    "kernel_identity_form",
    "support_of",
    "exact_nullspace",
    "exact_rank",
    "rref",
]
