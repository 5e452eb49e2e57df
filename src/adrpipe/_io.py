"""Helpers shared by the file formats: write-to-temp, rename-on-success file
output, so consumers never see partial files when a write fails mid-way, and
the shortened id lists that error messages quote."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Sequence


def atomic_write_text(path: str | Path, text: str) -> None:
    """UTF-8 text, written byte for byte: no newline translation."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def truncate_ids(ids: Sequence[str], limit: int = 10) -> str:
    """Comma-joined ids for an error message, cut after `limit` with a count of the rest."""
    if len(ids) <= limit:
        return ", ".join(ids)
    return ", ".join(ids[:limit]) + f", ... ({len(ids) - limit} more)"
