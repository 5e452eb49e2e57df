"""Helpers shared by the file formats: the one line reader of every
tab-separated file, write-to-temp, rename-on-success output, so consumers never
see partial files when a write fails mid-way, and the shortened id lists that
error messages quote."""

from __future__ import annotations

import os
import tempfile
from itertools import chain, count, repeat
from pathlib import Path
from typing import Iterator, Sequence


def read_rows(
    path: str | Path, width: int, header: str | None = None, *, header_required=False, comments=False
) -> Iterator[tuple[int, list[str]]]:
    r"""Yield (line number, fields) for each non-blank line of a tab-separated UTF-8 file.

    Lines end at \n, \r\n or a lone \r (universal newlines) and nowhere else:
    never str.splitlines(), which also breaks at \x1c, \x85 or \u2028,
    characters an id may hold. A first line equal to `header` is skipped;
    with `header_required` any other first line is an error. Blank lines
    are skipped, and so are '#' lines when `comments` is set. Every other
    line must have exactly `width` fields.
    """
    with open(path, encoding="utf-8") as f:
        lines, start = f, 1
        if header is not None:
            first = f.readline()
            if first.rstrip("\n") == header:
                start = 2
            elif header_required:
                raise ValueError(f"{path}: missing or malformed header (expected {header!r})")
            else:
                lines = chain([first], f)
        # map() instead of a method call per line, which the prediction files have 10^5 of.
        rows = zip(count(start), map(str.split, map(str.rstrip, lines, repeat("\n")), repeat("\t")))
        if comments:
            rows = (row for row in rows if not row[1][0].startswith("#"))
        for row in rows:
            if len(row[1]) != width:
                if row[1] == [""]:  # a blank line
                    continue
                raise ValueError(f"{path}: expected {width} fields at line {row[0]}, got {len(row[1])}")
            yield row


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
