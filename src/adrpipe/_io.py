"""Helpers shared by the modules: the line rules of every tab-separated file
(the header, blank lines, the field count), which each reader applies in its
own loop over the lines, the one writer of every output (streamed in chunks
to a temp file that is renamed on success, so consumers never see a partial
file when a write fails mid-way), the shortened id lists that error messages
quote, and the immutable-value base of the classes that check their fields."""

from __future__ import annotations

import os
import tempfile
from array import array
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence


@contextmanager
def lines_of(path: str | Path, header: str | None = None, *, header_required=False):
    r"""Open a UTF-8 file for its lines after the header: a context manager giving (lines, start),
    where `start` is the number of the first line in `lines`.

    Lines end at \n, \r\n or a lone \r (universal newlines) and nowhere else:
    never str.splitlines(), which also breaks at \x1c, \x85 or \u2028,
    characters an id may hold. Each line keeps its "\n", if it has one. A
    first line equal to `header` is skipped; with `header_required` any other
    first line is an error.
    """
    with open(path, encoding="utf-8") as f:
        if header is None:
            yield f, 1
            return
        first = f.readline()
        if first.rstrip("\n") == header:
            yield f, 2
        elif header_required:
            raise ValueError(f"{path}: missing or malformed header (expected {header!r})")
        else:
            yield chain([first], f), 1


def require_blank(path: str | Path, width: int, lineno: int, line: str) -> None:
    """The rule for a line that does not split into `width` tab-separated fields:
    a blank line is skipped (nothing happens), any other is an error."""
    if line.rstrip("\n"):
        got = line.count("\t") + 1
        raise ValueError(f"{path}: expected {width} fields at line {lineno}, got {got}")


def atomic_write(path: str | Path, chunks: Iterable[str | bytes]) -> None:
    """Write the chunks to a temp file beside `path`, one at a time, then rename it over `path`.

    A str chunk is written as UTF-8 byte for byte (no newline translation), a
    bytes chunk as is. Only the chunk in hand is held, never the whole file.
    If a chunk, a write or the rename fails, the temp file is removed and
    `path` is left as it was.
    """
    target, path = path, Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=f".{path.name}.", suffix=".tmp")
    except OSError as e:  # it names a random temp file; the output is what the user can act on
        raise type(e)(e.errno, e.strerror, str(target)) from None
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


def chunked(lines: Iterable[str]) -> Iterator[str]:
    """Lines, each ending in a newline, joined into chunks of at most 1,024 lines."""
    lines = iter(lines)
    while chunk := "".join(islice(lines, 1024)):
        yield chunk


def as_cells(values: Sequence[float]) -> array:
    """`values` as an `array('d')`: itself if it is one, else a copy."""
    return values if isinstance(values, array) and values.typecode == "d" else array("d", values)


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
