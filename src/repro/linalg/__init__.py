"""Linear-algebra substrate: the exact integer kernel, the exact rank
engine's memo, and packed bitset support patterns."""

from repro.linalg.bitset import (
    PackedSupports,
    pack_supports,
    popcount,
    subset_rows,
    unique_rows,
)
from repro.linalg.numeric import kernel_identity_form
from repro.linalg.rankmemo import (
    CacheBinding,
    RankCache,
    problem_token,
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
    "kernel_identity_form",
]
