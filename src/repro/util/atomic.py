"""Durable atomic file publication, shared by every on-disk writer.

``os.replace`` alone makes a write *atomic* (readers never see a partial
file) but not *durable*: if the process — or the machine — dies after
the rename while the temp file's data still sits in the page cache, the
destination name can point at a truncated or empty file after reboot.
The checkpoint writer learned this lesson first (fsync before replace);
the trace cache did not, and a crash could publish a corrupt ``.npz``
that only the corrupt-entry eviction path rescued.  This module is the
single implementation both of them — and the live serve store — share:

1. write everything into a temp sibling in the destination directory;
2. flush + ``fsync`` the temp file (data reaches the device);
3. ``os.replace`` onto the destination name (atomic);
4. ``fsync`` the destination *directory* (the rename itself is durable).

Two shapes are provided:

* :func:`atomic_write` — a context manager yielding an open binary
  handle, for writers that produce bytes directly;
* :func:`atomic_write_path` — a context manager yielding the temp
  *path*, for writers that insist on opening the file themselves
  (``numpy.savez``); the data fsync happens on a re-opened descriptor;
* :func:`atomic_write_json` — the one-call form for indented JSON
  artifacts (manifests, reports).

On any exception inside the ``with`` block the destination is left
untouched and the temp file is removed.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, Union


def fsync_directory(path: Union[str, Path]) -> None:
    """Flush a directory's entry table to disk (durable renames).

    Best-effort: platforms/filesystems that refuse to open or fsync a
    directory (Windows, some network mounts) are silently skipped — the
    rename is still atomic there, just not guaranteed durable.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_write(path: Union[str, Path]) -> Iterator[BinaryIO]:
    """Write ``path`` atomically and durably via an open binary handle.

    Yields a writable handle onto a temp sibling; on clean exit the data
    is fsynced, renamed over ``path``, and the parent directory is
    fsynced.  On an exception the temp file is removed and ``path`` is
    untouched.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        _unlink_quietly(tmp_name)
        raise
    fsync_directory(path.parent)


@contextmanager
def atomic_write_path(path: Union[str, Path]) -> Iterator[Path]:
    """Like :func:`atomic_write`, but yields the temp *path* instead.

    For writers that open the file themselves (``numpy.savez``).  After
    the block returns, the temp file is fsynced via a fresh descriptor,
    renamed over ``path``, and the parent directory is fsynced.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    os.close(fd)
    try:
        yield Path(tmp_name)
        fd = os.open(tmp_name, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
    except BaseException:
        _unlink_quietly(tmp_name)
        raise
    fsync_directory(path.parent)


def atomic_write_json(path: Union[str, Path], payload: object) -> None:
    """Publish ``payload`` as indented JSON (plus newline) atomically."""
    with atomic_write(path) as handle:
        handle.write((json.dumps(payload, indent=2) + "\n").encode("utf-8"))


def _unlink_quietly(name: str) -> None:
    try:
        os.unlink(name)
    except OSError:
        pass
