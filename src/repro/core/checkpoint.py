"""Checkpoint / resume for long Nullspace Algorithm runs.

The paper's Network II computation "was interrupted two iteration steps
before the end" and could not be salvaged — a multi-hour enumeration lost
to a memory wall.  This module makes runs restartable: the full iteration
state (mode values, packed supports, iteration index, accumulated
statistics, and a fingerprint of the problem) serializes to a single
``.npz`` file after any iteration.  Given a ``checkpoint_path``,
:func:`repro.core.serial.nullspace_algorithm` writes these snapshots and,
when the file already exists, continues from the last saved row, on the
same or a different machine.

The checkpoint is portable and versioned; loading verifies the problem
fingerprint and the ordering name (:func:`resume_or_start`) so a checkpoint
cannot silently resume against a different network, permutation or row
order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from repro.core.kernel import NullspaceProblem
from repro.core.state import ModeMatrix
from repro.core.stats import IterationStats, RunStats
from repro.errors import AlgorithmError
from repro.linalg.bitset import PackedSupports

#: Format version; bump on incompatible layout changes.  Version 2 added
#: the realized row order (``row_order``) and the ordering name to the
#: manifest: under ``ordering="dynamic"`` the processed rows are chosen at
#: run time from the live mode matrix, so a resume must replay the exact
#: realized prefix — silently resuming under a different order would
#: process rows twice or never.  Version 3 dropped the three tile-pruning
#: counters from the stored per-iteration stats; a version-2 file still
#: holds them, and ``IterationStats`` no longer accepts them.  Version 4
#: dropped the rank tolerance from the problem fingerprint (rank decisions
#: are exact); a version-3 fingerprint can never match, so such a file is
#: refused by version rather than as a foreign problem.  Version 5 stores
#: the modes as exact integer rows instead of normalized floats (int64, or
#: Python ints as decimal text so no pickle enters the file), and its
#: fingerprint no longer hashes the float-or-rational mode choice or the
#: float support threshold, both gone.  Version 6 dropped the choice of
#: candidate test from the fingerprint (the rank test is the only one)
#: and a per-iteration counter of that test from the stored stats.
CHECKPOINT_VERSION = 6


def problem_fingerprint(problem: NullspaceProblem) -> str:
    """Stable hash of everything that must match for a resume to be valid."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(problem.n_perm).tobytes())
    kernel = problem.kernel
    # An object (Python-int) kernel's raw bytes are pointers; hash its text.
    h.update(
        repr(kernel.tolist()).encode()
        if kernel.dtype == object
        else np.ascontiguousarray(kernel).tobytes()
    )
    h.update(np.ascontiguousarray(problem.reversible).tobytes())
    h.update("\x00".join(problem.names).encode())
    return h.hexdigest()


@dataclasses.dataclass
class Checkpoint:
    """A resumable snapshot taken after ``len(row_order)`` iterations.

    ``row_order`` is the *realized* processing order — the row positions
    already eliminated, in elimination order.  Static orderings realize
    their baked-in permutation; ``ordering="dynamic"`` realizes whatever
    the :class:`~repro.core.ordering.RowSelector` chose from the live mode
    matrix.  ``next_row`` is kept as a progress marker
    (``first_row + len(row_order)`` — a *count*, not a position, under
    dynamic ordering).
    """

    fingerprint: str
    next_row: int
    modes: ModeMatrix
    stats: RunStats
    elapsed: float
    #: realized elimination order (row positions, in processed order).
    row_order: tuple[int, ...] = ()
    #: the ordering name the run was started under.
    ordering: str = "paper"

    def save(self, path: str | Path) -> None:
        """Write the snapshot atomically (tmp file + rename)."""
        path = Path(path)
        stats_blob = json.dumps(_stats_to_dict(self.stats)).encode()
        values = self.modes.values
        if values.dtype == object:
            values = np.array([str(x) for x in values.ravel()], dtype=str)
            values = values.reshape(self.modes.values.shape)
        buf = io.BytesIO()
        np.savez_compressed(
            buf,
            version=np.int64(CHECKPOINT_VERSION),
            fingerprint=np.frombuffer(self.fingerprint.encode(), dtype=np.uint8),
            next_row=np.int64(self.next_row),
            values=values,
            support_words=self.modes.supports.words,
            n_rows=np.int64(self.modes.supports.n_rows),
            stats=np.frombuffer(stats_blob, dtype=np.uint8),
            elapsed=np.float64(self.elapsed),
            row_order=np.asarray(self.row_order, dtype=np.int64),
            ordering=np.frombuffer(self.ordering.encode(), dtype=np.uint8),
        )
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(buf.getvalue())
        tmp.replace(path)

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        with np.load(Path(path)) as data:
            version = int(data["version"])
            if version != CHECKPOINT_VERSION:
                raise AlgorithmError(
                    f"checkpoint version {version} unsupported "
                    f"(expected {CHECKPOINT_VERSION})"
                )
            values = data["values"]
            if values.dtype.kind == "U":
                values = np.array(
                    [int(x) for x in values.ravel()], dtype=object
                ).reshape(values.shape)
            modes = ModeMatrix.from_parts(
                np.ascontiguousarray(values),
                PackedSupports(data["support_words"], int(data["n_rows"])),
            )
            stats = _stats_from_dict(
                json.loads(bytes(data["stats"].tobytes()).decode())
            )
            return cls(
                fingerprint=bytes(data["fingerprint"].tobytes()).decode(),
                next_row=int(data["next_row"]),
                modes=modes,
                stats=stats,
                elapsed=float(data["elapsed"]),
                row_order=tuple(int(r) for r in data["row_order"]),
                ordering=bytes(data["ordering"].tobytes()).decode(),
            )


def _stats_to_dict(stats: RunStats) -> dict:
    return {
        "t_total": stats.t_total,
        "bytes_sent": stats.bytes_sent,
        "messages_sent": stats.messages_sent,
        "peak_mode_bytes": stats.peak_mode_bytes,
        "iterations": [dataclasses.asdict(it) for it in stats.iterations],
    }


def _stats_from_dict(d: dict) -> RunStats:
    stats = RunStats(
        t_total=d["t_total"],
        bytes_sent=d["bytes_sent"],
        messages_sent=d["messages_sent"],
        peak_mode_bytes=d["peak_mode_bytes"],
    )
    for it in d["iterations"]:
        stats.add(IterationStats(**it))
    return stats


def resume_or_start(
    path: str | Path, problem: NullspaceProblem, ordering: str
) -> Checkpoint:
    """The state a checkpointed run of ``problem`` under ``ordering``
    starts from: the snapshot at ``path``, or the kernel when there is
    none yet.

    Refuses (:class:`~repro.errors.AlgorithmError`) a snapshot of another
    format version, of a different problem (fingerprint) or written under
    a different ordering name.
    """
    path = Path(path)
    fingerprint = problem_fingerprint(problem)
    if not path.exists():
        return Checkpoint(
            fingerprint=fingerprint,
            next_row=problem.first_row,
            modes=ModeMatrix.from_kernel(problem.kernel),
            stats=RunStats(),
            elapsed=0.0,
            ordering=ordering,
        )
    ck = Checkpoint.load(path)
    if ck.fingerprint != fingerprint:
        raise AlgorithmError(
            f"checkpoint {path} belongs to a different problem; "
            "refusing to resume"
        )
    if ck.ordering != ordering:
        raise AlgorithmError(
            f"checkpoint {path} was written under ordering="
            f"{ck.ordering!r} but this run requests "
            f"{ordering!r}; refusing to resume — the realized "
            "row order would not match the checkpointed prefix"
        )
    return ck
