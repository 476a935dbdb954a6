"""Disk-backed store for experiment results.

``run-all`` used to be all-or-nothing: a crash in experiment 17 of 20 threw
away the first 16.  The :class:`ResultStore` persists every
:class:`~repro.experiments.base.ExperimentResult` as one JSON file keyed by
``(experiment_id, scale, seed)`` so a re-run with ``--resume`` loads finished
experiments instead of recomputing them.

Layout on disk::

    <root>/<scale>/seed<seed>/<experiment_id>.json

Writes are atomic (:func:`~repro.runtime.serialization.write_durably`:
write to a temp file, then ``os.replace``) so a killed process never leaves
a half-written result that would poison a resume.  The
temp file name is unique per writer (pid + uuid, created ``O_EXCL`` in the
destination directory), so concurrent ``run-all --jobs`` workers racing on
the *same* key can never interleave into one temp file — the last
``os.replace`` wins with a complete JSON document either way.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..experiments.base import ExperimentResult
from .serialization import to_jsonable, write_durably

__all__ = ["ResultStore"]

#: Bumped when the on-disk schema changes; mismatching files are ignored on
#: load so a resume never trips over a stale format.
SCHEMA_VERSION = 1


class ResultStore:
    """Persist and reload experiment results under a root directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path_for(self, experiment_id: str, scale: str, seed: int) -> Path:
        """The JSON file backing one ``(experiment_id, scale, seed)`` result."""
        return self.root / scale / f"seed{int(seed)}" / f"{experiment_id}.json"

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, result: ExperimentResult, scale: str, seed: int) -> Path:
        """Write ``result`` to disk, replacing any previous version."""
        path = self.path_for(result.experiment_id, scale, seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "experiment_id": result.experiment_id,
            "scale": scale,
            "seed": int(seed),
            "description": result.description,
            "columns": list(result.columns),
            "rows": to_jsonable(result.rows),
            "paper_expectation": result.paper_expectation,
            "notes": to_jsonable(result.notes),
        }
        return write_durably(path, json.dumps(payload, indent=2) + "\n")

    def load(self, experiment_id: str, scale: str, seed: int) -> ExperimentResult:
        """Reload a stored result.

        Raises
        ------
        FileNotFoundError
            If the result was never stored (check :meth:`has` first).
        """
        path = self.path_for(experiment_id, scale, seed)
        payload = json.loads(path.read_text(encoding="utf-8"))
        return ExperimentResult(
            experiment_id=payload["experiment_id"],
            description=payload["description"],
            columns=list(payload["columns"]),
            rows=[list(row) for row in payload["rows"]],
            paper_expectation=payload.get("paper_expectation", ""),
            notes=payload.get("notes", {}),
        )

    def has(self, experiment_id: str, scale: str, seed: int) -> bool:
        """Whether a loadable result exists for the key."""
        path = self.path_for(experiment_id, scale, seed)
        if not path.is_file():
            return False
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return False
        return payload.get("schema_version") == SCHEMA_VERSION

    def completed(self, scale: str, seed: int) -> list[str]:
        """Experiment ids with a stored result for ``(scale, seed)``, sorted."""
        directory = self.root / scale / f"seed{int(seed)}"
        if not directory.is_dir():
            return []
        return sorted(
            path.stem for path in directory.glob("*.json") if self.has(path.stem, scale, seed)
        )

    def discard(self, experiment_id: str, scale: str, seed: int) -> bool:
        """Delete one stored result; returns whether a file was removed."""
        path = self.path_for(experiment_id, scale, seed)
        if path.is_file():
            path.unlink()
            return True
        return False
