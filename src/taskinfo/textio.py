"""The envelope every taskinfo text file shares, read and written here.

Datasets, statistic grids and the CLI's outputs are UTF-8 text; each
format's loader and writer keep only their rows.

- Header: the first non-blank line is ``# taskinfo-<kind> v1``, alone or
  followed by ``, `` and the format's own header fields (``header``).
- Lines: ``str.splitlines()`` splits the text, so ``\\r``, ``\\x0c``,
  ``\\x1c``, ``\\x85`` and the other Unicode line breaks end a line as
  ``\\n`` does. Lines are numbered from 1 in that split, and a writer
  refuses a name that one cell of a data row cannot carry (``is_cell``).
- Blank lines are skipped anywhere. After the header, a line that starts
  with ``#`` is a comment: ``read`` keeps it for a format that reads one
  (the dataset's ``# union=``), and the formats skip the rest.
- Errors: a malformed line raises ``ValueError("path:line: message")``
  (``fail``); a fault of the whole file names the path alone.
- Writes: lines are joined by ``\\n`` with one after the last (``join``).
  ``write`` takes every file of a run. It puts each text in a new
  ``.taskinfo-*`` file beside its target, and only when all are written
  renames them over their targets, one by one. So a failure before the
  first rename, a target that is a directory included, leaves every target
  as it was and no temporary file. A rename that fails leaves the targets
  renamed before it with all of their new bytes, the rest with their old
  ones, and no temporary file.
"""

from __future__ import annotations

import contextlib
import errno
import os
import secrets
from typing import NoReturn

__all__ = ["header", "read", "fail", "at", "join", "write", "is_cell"]


def header(kind: str, *fields: str) -> str:
    """The header line of a taskinfo-<kind> file, with its own fields."""
    return ", ".join((f"# taskinfo-{kind} v1", *fields))


def fail(path, no: int, message) -> NoReturn:
    """Raise the loader error ValueError("path:no: message")."""
    raise ValueError(f"{path}:{no}: {message}") from None


@contextlib.contextmanager
def at(path, no: int):
    """Raise a ValueError, IndexError or OverflowError of the block as
    fail(path, no, error): the parse of line ``no`` failed."""
    try:
        yield
    except (ValueError, IndexError, OverflowError) as exc:
        fail(path, no, exc)


def read(path, kind: str) -> tuple[int, str, list[tuple[int, str]]]:
    """(header line number, header, [(line number, line), ...]) of a
    ``taskinfo-<kind> v1`` file; the rows are its non-blank lines after the
    header, comments included."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    tag = header(kind)
    if not lines or not (lines[0][1] == tag or lines[0][1].startswith(tag + ", ")):
        fail(path, lines[0][0] if lines else 1,
             f"expected a '{tag}' header; not a taskinfo-{kind} v1 file")
    return lines[0][0], lines[0][1], lines[1:]


def is_cell(text: str) -> bool:
    """True when ``text`` reads back as one cell of a data row: it holds no
    comma and no line break, and does not start with '#'."""
    return not ("," in text or "".join(text.splitlines()) != text
                or text.startswith("#"))


def join(lines) -> str:
    """File text: the lines joined by newlines, with a final newline."""
    return "\n".join(lines) + "\n"


def write(files: dict) -> None:
    """Write each text of ``files``, a dict from path to text, to its path
    as the module docstring says: every temporary file first, each made as
    open() makes one (mode 0o666 less the umask), then os.replace per file
    in the dict's order."""
    pending = []            # (temporary file, target), not yet renamed
    try:
        for path, text in files.items():
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            tmp = os.path.join(os.path.dirname(path), f".taskinfo-{secrets.token_hex(8)}")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            pending.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
        while pending:
            os.replace(*pending[0])
            pending.pop(0)
    except BaseException:
        for tmp, _ in pending:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
