"""Crash-safe whole-file writes: the one copy of tmp + fsync + replace.

Every file the program installs as a unit — a result-cache entry, a
compacted run journal, a metrics snapshot, a run manifest, a bench
point — goes through :func:`atomic_write`.  The text lands in a
pid-suffixed tmp file next to the target, is flushed and fsynced, and
is then ``os.replace``\\ d over the target.  A reader sees the old bytes
or the new ones, never a torn file; after a power loss the target holds
one of the two; a write that fails part-way leaves the old bytes and no
tmp file.  A writer killed outright leaves its ``*.tmp.<pid>`` file,
which ``ResultCache.purge_tmp`` and ``python -m repro.exec gc`` find by
that name.

Leaf module: imports only the standard library, so any layer may use it.
"""
from __future__ import annotations

import os
from pathlib import Path

__all__ = ["atomic_write"]


def atomic_write(path, text: str) -> Path:
    """Durably replace ``path`` with ``text``; returns the path."""
    path = Path(path)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    try:
        with open(tmp, "w") as f:
            f.write(text)
            f.flush()
            try:
                os.fsync(f.fileno())
            except OSError:
                pass  # exotic fs; the rename is still atomic
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
