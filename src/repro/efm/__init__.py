"""High-level EFM API: one-call computation, result containers, reversible
splitting, application-level analyses, and text IO."""

from repro.efm.api import build_problem_with_split, compute_efms
from repro.efm.result import EFMResult
from repro.efm.splitting import SplitRecord, split_reversible
from repro.efm.targeted import efms_avoiding, efms_through, exists_mode_through

__all__ = [
    "build_problem_with_split",
    "compute_efms",
    "EFMResult",
    "SplitRecord",
    "split_reversible",
    "efms_avoiding",
    "efms_through",
    "exists_mode_through",
]
