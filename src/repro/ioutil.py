"""Shared filesystem helpers (atomic writes)."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

#: the process's file-creation mask at import (reading it means
#: setting it, so it is read once)
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def atomic_write_text(path, text: str) -> Path:
    """Write ``text`` to ``path`` via temp-file-plus-rename so a parallel
    or interrupted writer can never leave a truncated file behind.

    The file gets the mode a plain ``open(path, "w")`` would give it,
    not the owner-only mode of the temporary file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        os.chmod(tmp, 0o666 & ~_UMASK)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, str(path))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
