"""Memory-mapped spill store for out-of-core factor data.

The spillable builder writes each source's processed matrix ``D_k`` into a
float64 ``np.memmap`` owned by a :class:`SpillStore` instead of a resident
array. A memmap *is* an ndarray, so the existing :class:`Backend` protocol,
``SourceFactor`` storage and compiled :class:`OperatorPlan` kernels work on
it unchanged — only residency differs.

Residency is the point: file-backed pages count toward RSS while mapped in,
so after writing a block (and between training blocks) callers invoke
:meth:`SpillStore.release` which ``madvise``\\ s the mappings with
``MADV_DONTNEED``. The mappings are shared file mappings, so a dropped page
— dirty or clean — stays in the kernel page cache and is never forced to
disk by a release: later reads are minor faults, not disk I/O, and the
kernel writes dirty pages back on its own schedule (a store that owns its
directory deletes the files at cleanup, often before that). The pages
leave the process RSS, which is what keeps the peak under a hard memory
budget.
"""

from __future__ import annotations

import mmap
import tempfile
import weakref
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import telemetry as _telemetry
from repro.exceptions import IntegrityError

PathLike = Union[str, Path]

_MADV_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)


class SpillStore:
    """A directory of named float64 memory-mapped matrices.

    With no ``directory`` argument the store owns a temporary directory
    that is deleted on :meth:`cleanup` (also invoked by garbage collection
    via a weakref finalizer, and by ``with``-statement exit).

    With ``checksums=True`` the builder records a CRC32 per written row
    block (:meth:`record_crc`, computed from the in-memory chunk *before*
    it ever touches the memmap) and :meth:`verify` re-reads the file to
    detect torn or corrupted writes, optionally repairing a block from
    source via a caller-supplied ``repair`` callback. Checksums default
    off: the hot build path stays byte-for-byte the PR 5–8 code.
    """

    def __init__(self, directory: Optional[PathLike] = None, checksums: bool = False):
        if directory is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-spill-")
            self.directory = Path(self._tmp.name)
            self._finalizer = weakref.finalize(self, self._tmp.cleanup)
        else:
            self._tmp = None
            self._finalizer = None
            self.directory = Path(directory)
            self.directory.mkdir(parents=True, exist_ok=True)
        self._maps: Dict[str, np.memmap] = {}
        self.checksums = bool(checksums)
        # name -> list of (row_start, row_stop, crc32) in write order
        self._crcs: Dict[str, List[Tuple[int, int, int]]] = {}

    # -- allocation -------------------------------------------------------------------
    def allocate(self, name: str, n_rows: int, n_columns: int) -> np.memmap:
        """Create a zero-initialized ``n_rows × n_columns`` float64 memmap.

        Names are single-use: re-allocating an existing name raises instead
        of silently clobbering a file a live factor may still be reading —
        use one store per build (or distinct names) for repeated builds.
        """
        if name in self._maps:
            raise ValueError(
                f"spill store already holds a matrix named {name!r}; "
                "use one store per build or distinct names"
            )
        path = self.directory / f"{name}.f64"
        matrix = np.memmap(path, dtype=np.float64, mode="w+", shape=(int(n_rows), int(n_columns)))
        self._maps[name] = matrix
        if _telemetry.ENABLED:
            _telemetry.counter_add("spill.matrices")
            _telemetry.counter_add("spill.bytes_allocated", float(matrix.nbytes))
        return matrix

    def get(self, name: str) -> np.memmap:
        return self._maps[name]

    def discard(self, name: str) -> None:
        """Drop one matrix: close its mapping and delete the backing file.

        Used for orphan cleanup when a build fails mid-way (nothing else
        can ever reference a half-filled matrix) and to rebuild a matrix
        whose checksum validation failed — after ``discard`` the name is
        free to :meth:`allocate` again.
        """
        matrix = self._maps.pop(name, None)
        self._crcs.pop(name, None)
        if matrix is None:
            return
        raw = getattr(matrix, "_mmap", None)
        if raw is not None:
            try:
                raw.close()
            except (BufferError, ValueError):
                pass  # a live view pins the buffer; the file still goes
        try:
            (self.directory / f"{name}.f64").unlink()
        except OSError:
            pass
        if _telemetry.ENABLED:
            _telemetry.counter_add("spill.discarded")

    # -- checksums ----------------------------------------------------------------------
    def record_crc(self, name: str, row_start: int, row_stop: int, crc: int) -> None:
        """Record the CRC32 of rows ``[row_start, row_stop)`` of ``name``.

        The builder computes ``crc`` from the in-memory chunk before the
        memmap write, so a torn or corrupted write is caught by
        :meth:`verify` rather than laundered into the recorded checksum.
        """
        if not self.checksums:
            return
        self._crcs.setdefault(name, []).append((int(row_start), int(row_stop), int(crc)))

    def verify(self, name: str, repair=None) -> int:
        """Re-read ``name`` from its mapping and validate every recorded block.

        Returns the number of blocks repaired. Without a ``repair``
        callback the first mismatch raises
        :class:`~repro.exceptions.IntegrityError`; with one, each bad
        block is handed to ``repair(row_start, row_stop, destination)``
        (which must refill ``destination[...]`` from source) and then
        re-validated — a repair that still mismatches raises.
        """
        if not self.checksums:
            return 0
        matrix = self._maps[name]
        repaired = 0
        for row_start, row_stop, crc in self._crcs.get(name, []):
            block = np.ascontiguousarray(matrix[row_start:row_stop])
            if zlib.crc32(block.tobytes()) == crc:
                continue
            if _telemetry.ENABLED:
                _telemetry.counter_add("spill.crc_mismatch")
            if repair is None:
                raise IntegrityError(
                    f"spill matrix {name!r} rows [{row_start}, {row_stop}) failed "
                    "CRC32 validation (torn or corrupted write)"
                )
            destination = matrix[row_start:row_stop]
            repair(row_start, row_stop, destination)
            block = np.ascontiguousarray(matrix[row_start:row_stop])
            if zlib.crc32(block.tobytes()) != crc:
                raise IntegrityError(
                    f"spill matrix {name!r} rows [{row_start}, {row_stop}) still "
                    "fail CRC32 validation after repair from source"
                )
            repaired += 1
        if repaired and _telemetry.ENABLED:
            _telemetry.counter_add("spill.blocks_repaired", float(repaired))
        return repaired

    @property
    def spilled_bytes(self) -> int:
        """Total bytes of factor data held on disk by this store."""
        return sum(m.nbytes for m in self._maps.values())

    # -- residency control --------------------------------------------------------------
    def release(self) -> None:
        """Drop all mappings from the process RSS without writing them back.

        Dropped pages stay in the page cache and are never forced to disk:
        ``MADV_DONTNEED`` on a shared file mapping unmaps the pages but
        keeps their data (dirty pages stay dirty in the cache), and the
        next touch faults them back in. Spill files are scratch that every
        reader sees through the cache, so a flush here would only make the
        caller wait on write-back. No-op on platforms without
        ``madvise``/``MADV_DONTNEED``.
        """
        for matrix in self._maps.values():
            raw = getattr(matrix, "_mmap", None)
            if raw is not None and _MADV_DONTNEED is not None and hasattr(raw, "madvise"):
                raw.madvise(_MADV_DONTNEED)
        if _telemetry.ENABLED:
            _telemetry.counter_add("spill.releases")
            _telemetry.gauge_set("spill.bytes_on_disk", float(self.spilled_bytes))

    # -- lifecycle --------------------------------------------------------------------
    def cleanup(self) -> None:
        """Close the mappings and delete the backing files (owned dirs only)."""
        for matrix in self._maps.values():
            raw = getattr(matrix, "_mmap", None)
            if raw is not None:
                try:
                    raw.close()
                except (BufferError, ValueError):
                    pass  # live views still reference the buffer; the
                    # finalizer will retry when they are collected
        self._maps.clear()
        self._crcs.clear()
        if self._finalizer is not None and self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "SpillStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cleanup()

    def __repr__(self) -> str:
        return (
            f"SpillStore({str(self.directory)!r}, matrices={sorted(self._maps)}, "
            f"bytes={self.spilled_bytes})"
        )
