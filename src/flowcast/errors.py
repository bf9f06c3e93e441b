"""Exception hierarchy shared by the library and the command line tools.

Each class maps to a process exit code so scripted callers can branch on
the failure kind without parsing messages.
"""

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


class FlowcastError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InputError(FlowcastError):
    """Malformed external input: files, config keys, command line values."""

    exit_code = 2


class ContractError(FlowcastError):
    """A precondition or interface contract was violated by the caller."""

    exit_code = 3


class NumericError(FlowcastError):
    """A numerical failure: non-finite loss, domain error, divergence."""

    exit_code = 4


def require_file(path, what: str) -> Path:
    """Path to an existing regular file, or InputError naming what it is."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"{what} not found: {path}")
    if not path.is_file():
        raise InputError(f"{what} is not a regular file: {path}")
    return path


@contextmanager
def open_text(path, what: str, newline: str | None = None) -> Iterator[TextIO]:
    """require_file's path opened as UTF-8 text, a leading BOM skipped; a
    byte sequence that is not UTF-8 is an InputError naming the file."""
    path = require_file(path, what)
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {what} is not UTF-8 text ({exc.reason})") from None
