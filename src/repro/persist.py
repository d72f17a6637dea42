"""The one artifact writer: every file the system persists goes through
:func:`atomic_write` (``docs/architecture.md``, "Persisted artifacts")."""

from __future__ import annotations

import os
import tempfile
from typing import Union

# mkstemp creates 0600 files; artifacts keep the mode a plain open() gives.
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write(path: str, data: Union[str, bytes]) -> None:
    """Replace ``path`` with ``data`` (``str`` is written as UTF-8).

    Creates the parent directory, writes a ``mkstemp`` file beside
    ``path`` and renames it over ``path`` with ``os.replace``; on any
    exception the temp file is unlinked and the exception re-raised.  A
    kill at any instant leaves the previous or the next complete file.
    There is no fsync: the contract is a process kill, not power loss,
    and an fsync per checkpointed unit would slow every checkpointed
    campaign.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with open(fd, "wb") as handle:
            os.fchmod(fd, 0o666 & ~_UMASK)
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
