"""JSON helpers shared by the runtime subsystem's on-disk stores.

Experiment results and adaptation reports carry numpy scalars, arrays and the
occasional rich diagnostic object (e.g. a density map) in free-form ``notes``
dictionaries.  :func:`to_jsonable` converts what can be converted losslessly
and falls back to a ``repr`` string for anything else, so persisting a result
never fails — at worst a diagnostic becomes opaque text.  :func:`write_durably`
is the one atomic file write both stores use.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path

import numpy as np

__all__ = ["to_jsonable", "write_durably"]


def to_jsonable(value: object) -> object:
    """Recursively convert ``value`` into JSON-serializable built-ins.

    Numpy scalars become Python scalars, arrays become (nested) lists, tuples
    become lists and dictionary keys are stringified.  Objects with no natural
    JSON form are replaced by their ``repr`` — lossy but non-fatal, which is
    the right trade-off for free-form diagnostics.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return to_jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    return repr(value)


def write_durably(path: Path, text: str) -> Path:
    """Atomically replace the JSON file ``path`` with ``text``; returns ``path``.

    The text goes to a per-writer temp file in the destination directory,
    ``.<stem>-<pid>-<uuid>.json.tmp``: unique, so concurrent writers of one
    key never share a temp file, and in the same directory, so
    ``os.replace`` stays an atomic same-filesystem rename.  It is fsynced
    before the rename, and unlinked on any failure.  The file is created
    ``O_EXCL`` with mode 0o666 (not ``mkstemp``, whose private 0600 would
    survive the rename), so the process umask applies as for a plain
    ``open()``.
    """
    temp_name = str(path.parent / f".{path.stem}-{os.getpid()}-{uuid.uuid4().hex}.json.tmp")
    handle = os.open(temp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path
