"""Durable files: the one recipe every persisted service state uses.

The campaign checkpoint, result-cache entries, the job journal, the run
ledger and the service status file are all written and read back
through the four operations here, so a killed run finds each file
whole or recognisably damaged, never silently half-written.  Callers
keep their own locks, schemas, validation and error policy; this module
only decides how bytes reach the disk.  It calls ``os.replace`` and
``os.fsync`` through the ``os`` module, so
:func:`repro.resilience.chaos.chaos_os` can fail them on schedule.
"""

from __future__ import annotations

import os
import tempfile
from typing import List


def atomic_write(path: str, data: bytes, sync: bool = True) -> None:
    """Replace ``path`` with ``data`` in one rename (temp file + fsync
    + ``os.replace``), creating its directory when missing.  ``sync``
    false skips the fsync, for a file that is rewritten every tick and
    only ever needs to be whole, not durable."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if sync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def append_line(path: str, line: str) -> None:
    """Append ``line`` and a newline to ``path`` (creating its
    directory when missing), flushed and fsync'd before returning."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def read_lines(path: str) -> List[str]:
    """The non-blank lines of ``path``, undecodable bytes replaced by
    U+FFFD; ``[]`` when the file is missing or unreadable."""
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError:
        return []
    return [line for line in text.split("\n") if line.strip()]


def quarantine(path: str) -> str:
    """Rename ``path`` to ``<path>.corrupt`` and return that name; a
    failed rename is ignored, as every caller degrades the same way."""
    corrupt = path + ".corrupt"
    try:
        os.replace(path, corrupt)
    except OSError:
        pass
    return corrupt


__all__ = ["append_line", "atomic_write", "quarantine", "read_lines"]
