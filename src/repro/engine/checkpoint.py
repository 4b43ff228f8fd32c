"""Checkpoint/resume for sharded Monte-Carlo runs.

A checkpoint directory holds one JSON file per completed shard plus a
``meta.json`` describing the run it belongs to:

```text
checkpoint-dir/
  meta.json          run fingerprint: experiment, budget, shard plan, seed
  shard-0000.json    ShardResult payload: per-trial values and telemetry
  shard-0001.json
  ...
```

Shard files are written atomically (write to ``*.tmp``, then ``os.replace``)
so a crash mid-write never leaves a truncated shard that would poison a
resume.  On resume the store verifies the fingerprint — budget, shard size,
experiment name and master-seed identity must all match — and returns the
completed shards so the driver only executes the remainder.  Because trial
``i`` always draws from seed child ``i`` (see
:class:`repro.engine.sharding.SeedPlan`), a resumed run is bit-identical to an
uninterrupted one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from ..exceptions import CheckpointError
from ..utils.logging import get_logger
from .sharding import ShardResult

__all__ = ["CheckpointStore"]

_LOGGER = get_logger("engine.checkpoint")

#: On-disk format version; bumped on incompatible layout changes.
FORMAT_VERSION = 1


class CheckpointStore:
    """Persists completed shards of one engine run under a directory."""

    def __init__(self, directory: str | os.PathLike[str]) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)

    @property
    def directory(self) -> Path:
        """The checkpoint directory."""
        return self._directory

    def _meta_path(self) -> Path:
        return self._directory / "meta.json"

    def _shard_path(self, index: int) -> Path:
        return self._directory / f"shard-{index:04d}.json"

    def _write_json(self, path: Path, payload: dict[str, Any]) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)

    def initialize(self, fingerprint: dict[str, Any]) -> dict[int, ShardResult]:
        """Bind the store to a run and load any shards completed earlier.

        A fresh directory is stamped with ``fingerprint``; an existing one is
        verified against it and its completed shards are returned.  A
        mismatched fingerprint (different budget, shard size, seed or
        experiment) raises :class:`repro.exceptions.CheckpointError` rather
        than silently mixing incompatible partials.
        """
        meta = dict(fingerprint)
        meta["format_version"] = FORMAT_VERSION
        meta_path = self._meta_path()
        if meta_path.exists():
            try:
                existing = json.loads(meta_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"unreadable checkpoint metadata at {meta_path}"
                ) from exc
            if existing != meta:
                raise CheckpointError(
                    f"checkpoint at {self._directory} belongs to a different run: "
                    f"stored {existing!r}, requested {meta!r}"
                )
        else:
            self._write_json(meta_path, meta)
        return self._load_shards()

    def _load_shards(self) -> dict[int, ShardResult]:
        completed: dict[int, ShardResult] = {}
        for path in sorted(self._directory.glob("shard-*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                result = ShardResult.from_payload(payload)
            except (
                OSError, json.JSONDecodeError, KeyError, TypeError, AttributeError
            ) as exc:
                raise CheckpointError(f"corrupt checkpoint shard at {path}") from exc
            completed[result.index] = result
        if completed:
            _LOGGER.info(
                "resuming %d completed shard(s) from %s",
                len(completed),
                self._directory,
            )
        return completed

    def save(self, result: ShardResult) -> None:
        """Persist one completed shard (atomic replace)."""
        self._write_json(self._shard_path(result.index), result.to_payload())

    def __repr__(self) -> str:
        return f"CheckpointStore({str(self._directory)!r})"
