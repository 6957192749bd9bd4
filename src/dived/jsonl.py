"""Line-oriented JSON reading/writing with line-numbered errors.

All files are UTF-8, one JSON object per line, LF line endings. Writers are
deterministic: same rows in, same bytes out. Every output of the pipeline is
written through ``open_atomic``, so a crash mid-write leaves the previous file
(or none) in place, never a truncated one.

Reading costs one call of the C scanner per non-blank line (plus two
whitespace matches), not the Python wrappers of ``json.loads``. A line the
scanner does not take whole goes through ``json.loads`` for its error
message, so the accepted lines and the error texts are those of
``json.loads`` on every line. Every failure names ``path:line``: also an
integer past the digit limit, nesting too deep, and bytes that are not
UTF-8.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO

from .errors import DivedError


class JsonlError(DivedError):
    """A malformed line in a JSONL file. Carries the file path and 1-based line number."""

    def __init__(self, path: str | Path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


_scan_once = json.JSONDecoder().scan_once
_skip_space = json.decoder.WHITESPACE.match


def read_rows(path: str | Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (line_number, object) for every non-blank line of a JSONL file."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                try:
                    obj, end = _scan_once(raw, _skip_space(raw, 0).end())
                    whole = _skip_space(raw, end).end() == len(raw)
                except (StopIteration, ValueError, RecursionError):
                    whole = False
                if not whole:
                    obj = _loads(path, lineno, raw)
                if obj.__class__ is not dict:
                    raise JsonlError(path, lineno, f"expected a JSON object, got {type(obj).__name__}")
                yield lineno, obj
        except UnicodeDecodeError:
            _raise_undecodable(path)
            raise  # every line decodes on its own: the file changed under the reader


def _loads(path: str | Path, lineno: int, raw: str) -> Any:
    """``json.loads(raw)``, its failures raised as a JsonlError for the line."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise JsonlError(path, lineno, f"invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit; nesting too deep
        raise JsonlError(path, lineno, f"invalid JSON: {exc}") from exc


def _raise_undecodable(path: str | Path) -> None:
    """Raise the error for the first line of the file that is not UTF-8. The
    text reader decodes ahead in blocks, so its error does not tell the line;
    the file is read again as bytes, split at the same line breaks."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise JsonlError(path, lineno, f"invalid UTF-8: {exc}") from exc


@contextmanager
def open_atomic(path: str | Path) -> Iterator[TextIO]:
    """Open a UTF-8, LF text file that replaces ``path`` only once the block
    completes. The data goes to a temporary file in the same directory, moved
    over ``path`` with ``os.replace``; if the block raises, the temporary file
    is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


# One encoder for every row: the same bytes as json.dumps(row, ensure_ascii=False),
# which builds a new encoder on each call.
encode_row: Callable[[Any], str] = json.JSONEncoder(ensure_ascii=False).encode


def write_rows(path: str | Path, rows: Iterable[Any], encode: Callable[[Any], str] = encode_row) -> int:
    """Write rows as JSONL, atomically: ``encode`` turns each row into one
    line of JSON. Returns the number of rows written."""
    count = 0
    with open_atomic(path) as fh:
        for row in rows:
            fh.write(encode(row) + "\n")
            count += 1
    return count


def write_object(path: str | Path, obj: Any) -> None:
    """Write one JSON value, indented by two spaces and ending in a newline, atomically."""
    with open_atomic(path) as fh:
        json.dump(obj, fh, ensure_ascii=False, indent=2)
        fh.write("\n")
