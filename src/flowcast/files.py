"""Output files that are either complete or absent.

Checkpoints, partition files, trace.csv and effective_config.txt are
written through atomic_write, so a write that fails midway leaves the
previous file, if any, as it was.
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_write(path, mode: str = "w") -> Iterator[IO]:
    """Write "<path>.partial" and rename it over path when the block exits.

    mode is "w", "wb" or "a", the text modes UTF-8; "a" starts the partial
    file from a copy of path, so an append is all-or-nothing too. If the
    block raises, the partial file is removed and path is left untouched.
    """
    path = Path(path)
    partial = Path(f"{path}.partial")
    try:
        if mode == "a":
            shutil.copyfile(path, partial)
        with open(partial, mode) if "b" in mode else open(partial, mode, encoding="utf-8") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
