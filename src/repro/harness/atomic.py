"""Atomic file writes that concurrent writers cannot collide in.

Every cache and state file is written the same way: into a temp file
whose name is unique to the writer, then renamed over the target.  The
name embeds the PID (concurrent CLI processes), the thread id (the
``repro serve`` worker threads) and a per-process sequence number (one
thread writing the same target twice before the first rename lands),
so no two writers ever share a temp file and a rename never finds its
source taken by someone else.  Readers only ever see an absent or a
complete file; concurrent writers of one target are last-writer-wins
over identical content.

:func:`tmp_writer_pid` reads the PID back out of such a name, so a
cache directory can sweep up the temp files of writers that died.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from pathlib import Path
from typing import Callable

__all__ = ["atomic_write", "atomic_write_bytes", "atomic_write_text", "tmp_writer_pid"]

_TMP_SEQ = itertools.count()

#: Atomic-replace retry schedule (seconds).  POSIX renames don't fail
#: transiently, but network filesystems and Windows can; retrying a
#: few times beats surfacing a spurious error for a cache write.
_REPLACE_RETRIES = (0.01, 0.05, 0.2)


def atomic_write(path: Path, write: Callable[[Path], object]) -> None:
    """Create ``path`` by calling ``write`` on a unique temp file, then renaming.

    The temp file is removed whatever happens, so a failed write leaves
    neither a partial target nor a stray temp file.
    """
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.{next(_TMP_SEQ)}.tmp"
    )
    try:
        write(tmp)
        for delay in _REPLACE_RETRIES:
            try:
                tmp.replace(path)
                return
            except OSError:
                time.sleep(delay)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``."""
    atomic_write(path, lambda tmp: tmp.write_bytes(data))


def atomic_write_text(path: Path, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    atomic_write(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def tmp_writer_pid(name: str) -> int | None:
    """The writer PID a temp-file name embeds, or None if it has none.

    Reads ``<target>.<pid>.<tid>.<seq>.tmp`` as written by
    :func:`atomic_write`, and the older ``<target>.<pid>.tmp``.
    """
    parts = name.split(".")
    if parts[-1] != "tmp":
        return None
    if len(parts) >= 5 and all(part.isdigit() for part in parts[-4:-1]):
        return int(parts[-4])
    if len(parts) >= 3 and parts[-2].isdigit():
        return int(parts[-2])
    return None
