"""Helpers shared by the modules: the one line reader of every tab-separated
file, the one writer of every output (streamed in chunks to a temp file that
is renamed on success, so consumers never see a partial file when a write
fails mid-way), the shortened id lists that error messages quote, and the
immutable-value base of the classes that check their fields."""

from __future__ import annotations

import os
import tempfile
from itertools import chain, count, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence


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


def atomic_write(path: str | Path, chunks: Iterable[str | bytes]) -> None:
    """Write the chunks to a temp file beside `path`, one at a time, then rename it over `path`.

    A str chunk is written as UTF-8 byte for byte (no newline translation), a
    bytes chunk as is. Only the chunk in hand is held, never the whole file.
    If a chunk, a write or the rename fails, the temp file is removed and
    `path` is left as it was.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def chunked(lines: Iterable[str], size: int = 4096) -> Iterator[str]:
    """Lines, each ending in a newline, joined into chunks of at most `size` lines."""
    lines = iter(lines)
    while chunk := "".join(islice(lines, size)):
        yield chunk


def truncate_ids(ids: Sequence[str], limit: int = 10) -> str:
    """Comma-joined ids for an error message, cut after `limit` with a count of the rest."""
    if len(ids) <= limit:
        return ", ".join(ids)
    return ", ".join(ids[:limit]) + f", ... ({len(ids) - limit} more)"


class Frozen:
    """Base of the classes whose constructor checks its fields: an instance is immutable,
    and two of one class are equal, and hash alike, when their fields are.

    A subclass names its fields, in constructor order, in `_fields`, and its
    `__init__` sets them with `_set`; any other assignment raises AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
