"""Linear-algebra substrate: exact rational routines, tolerant floating
routines, and packed bitset support patterns."""

from repro.linalg.batched import (
    CacheBinding,
    RankCache,
    problem_token,
)
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
    numeric_rank,
    nullity,
    support_of,
)
from repro.linalg.rational import (
    exact_nullspace,
    exact_rank,
    integerize_columns,
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
    "numeric_rank",
    "nullity",
    "support_of",
    "exact_nullspace",
    "exact_rank",
    "integerize_columns",
    "rref",
]
