"""The persistent results/artifact store behind the analysis service.

One SQLite file (WAL mode, stdlib :mod:`sqlite3`) records every scenario run
the service has ever completed: the run fingerprint, the scenario JSON, the
resolved seed, the flat summary records, wall-clock timings and optional
paths of ``.npy`` artifacts spilled next to the database.  The contract is
**idempotent by fingerprint**: recording the same fingerprint twice lands on
the same row — the second writer observes the first row instead of
duplicating or overwriting it — which is what turns a repeated scenario
submission into a store hit with zero new sweep computes.

Schema versioning
-----------------
The schema version lives in SQLite's ``PRAGMA user_version``.  Opening a
store applies every migration past the file's recorded version in order
inside one transaction per step, so a database written by an older service
upgrades in place and a database written by a *newer* one is refused rather
than corrupted.

Concurrency
-----------
WAL allows one writer and any number of readers across processes.  Every
public method opens its own short-lived connection with a busy timeout, so
two service processes (or a service plus a CLI inspection) can share the
file: writers queue behind the busy timeout instead of failing, and no
connection is ever shared across threads.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from .. import telemetry
from ..exceptions import ConfigurationError
from ..utils.fingerprint import fingerprint
from ..utils.logging import get_logger

__all__ = ["RunRecord", "ArtifactStore", "run_fingerprint"]

_LOGGER = get_logger("service.store")

#: Run lifecycle states persisted in the ``runs.status`` column.
RUN_STATUSES = ("running", "done", "failed")

#: Every schema migration, applied in order past ``PRAGMA user_version``.
#: Version N of the file means migrations ``_MIGRATIONS[:N]`` have run.
_MIGRATIONS: tuple[str, ...] = (
    # v1 — the runs table: one row per run fingerprint.
    """
    CREATE TABLE runs (
        fingerprint   TEXT PRIMARY KEY,
        scenario_name TEXT NOT NULL,
        scale         TEXT NOT NULL,
        seed          INTEGER,
        status        TEXT NOT NULL,
        scenario_json TEXT NOT NULL,
        records_json  TEXT,
        timings_json  TEXT,
        error         TEXT,
        created_at    REAL NOT NULL,
        updated_at    REAL NOT NULL
    );
    CREATE INDEX runs_by_name ON runs (scenario_name, scale);
    """,
    # v2 — named .npy artifacts attached to a run.
    """
    CREATE TABLE artifacts (
        fingerprint TEXT NOT NULL REFERENCES runs (fingerprint),
        name        TEXT NOT NULL,
        path        TEXT NOT NULL,
        created_at  REAL NOT NULL,
        PRIMARY KEY (fingerprint, name)
    );
    """,
)

SCHEMA_VERSION = len(_MIGRATIONS)


def run_fingerprint(scenario: Any, scale: str, seed: Any) -> str:
    """The store/checkpoint key of one ``(scenario, scale, seed)`` run.

    ``scenario`` is a :class:`repro.scenarios.Scenario`; ``seed`` must already
    be resolved (the scenario's ``default_seed`` substituted for ``None``) so
    that an explicit ``seed=2032`` and a defaulted submission of the same
    scenario share a fingerprint exactly when they share results.
    """
    return fingerprint(
        {
            "kind": "scenario-run-v1",
            "scenario": scenario.fingerprint_payload(),
            "scale": str(scale),
            "seed": seed,
        }
    )


@dataclass(frozen=True)
class RunRecord:
    """One persisted run: identity, lifecycle state and summaries."""

    fingerprint: str
    scenario_name: str
    scale: str
    seed: int | None
    status: str
    scenario_json: str
    records: list[dict[str, Any]] | None
    timings: dict[str, float] | None
    error: str | None
    created_at: float
    updated_at: float
    artifacts: dict[str, str] = field(default_factory=dict)

    @property
    def done(self) -> bool:
        """Whether the run completed and carries summary records."""
        return self.status == "done"

    def to_payload(self) -> dict[str, Any]:
        """JSON-compatible view (what ``GET /results/{fingerprint}`` serves)."""
        return {
            "fingerprint": self.fingerprint,
            "scenario_name": self.scenario_name,
            "scale": self.scale,
            "seed": self.seed,
            "status": self.status,
            "records": self.records,
            "timings": self.timings,
            "error": self.error,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "artifacts": dict(self.artifacts),
        }


def _counter(name: str, value: int = 1) -> None:
    for rec in telemetry.active():
        rec.counter(name, value)


class ArtifactStore:
    """SQLite-backed persistent store of service run results.

    Parameters
    ----------
    path:
        Database file path; parent directories are created.  The store always
        lives on disk — WAL (and therefore multi-process sharing) does not
        exist for ``:memory:`` databases.
    busy_timeout_ms:
        How long a writer waits on a locked database before erroring; under
        WAL this is the whole cross-process write-contention story.
    """

    def __init__(
        self, path: str | os.PathLike[str], *, busy_timeout_ms: int = 5_000
    ) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._busy_timeout_ms = int(busy_timeout_ms)
        self._migrated_version = self._migrate()

    @property
    def path(self) -> Path:
        """The database file path."""
        return self._path

    @property
    def busy_timeout_ms(self) -> int:
        """Writer wait budget on a locked database, in milliseconds."""
        return self._busy_timeout_ms

    @property
    def migrated_version(self) -> int:
        """The schema version opening the store left the file at (no I/O).

        :meth:`schema_version` reads the file instead.
        """
        return self._migrated_version

    # ------------------------------------------------------------------ #
    # connections and migration
    # ------------------------------------------------------------------ #
    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """One short-lived connection: transaction on success, always closed."""
        conn = sqlite3.connect(self._path, timeout=self._busy_timeout_ms / 1_000.0)
        try:
            conn.row_factory = sqlite3.Row
            conn.execute(f"PRAGMA busy_timeout = {self._busy_timeout_ms}")
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = NORMAL")
            conn.execute("PRAGMA foreign_keys = ON")
            with conn:
                yield conn
        finally:
            conn.close()

    def _migrate(self) -> int:
        """Apply every migration past the file's version; return the new version."""
        with self._connect() as conn:
            version = int(conn.execute("PRAGMA user_version").fetchone()[0])
            if version > SCHEMA_VERSION:
                raise ConfigurationError(
                    f"store {self._path} has schema version {version}, newer "
                    f"than this build's {SCHEMA_VERSION}; refusing to open"
                )
            for step in range(version, SCHEMA_VERSION):
                conn.executescript(_MIGRATIONS[step])
                conn.execute(f"PRAGMA user_version = {step + 1}")
                _LOGGER.info(
                    "store %s: migrated schema v%d -> v%d",
                    self._path,
                    step,
                    step + 1,
                )
        return SCHEMA_VERSION

    def schema_version(self) -> int:
        """The database file's current schema version."""
        with self._connect() as conn:
            return int(conn.execute("PRAGMA user_version").fetchone()[0])

    # ------------------------------------------------------------------ #
    # run lifecycle
    # ------------------------------------------------------------------ #
    def begin_run(
        self,
        fingerprint: str,
        *,
        scenario_name: str,
        scale: str,
        seed: int | None,
        scenario_json: str,
    ) -> tuple[RunRecord, bool]:
        """Claim a fingerprint: insert a ``running`` row, or observe the existing one.

        Returns ``(record, created)``.  ``created`` is False when the
        fingerprint already has a row — done, failed or still running — which
        is the store-hit signal (``service.store.hit``) the job manager uses
        to skip recomputation.  Idempotent under concurrent callers: exactly
        one of two simultaneous ``begin_run`` calls creates the row.
        """
        now = time.time()
        with self._connect() as conn:
            cursor = conn.execute(
                """
                INSERT INTO runs (fingerprint, scenario_name, scale, seed,
                                  status, scenario_json, created_at, updated_at)
                VALUES (?, ?, ?, ?, 'running', ?, ?, ?)
                ON CONFLICT (fingerprint) DO NOTHING
                """,
                (fingerprint, scenario_name, scale, seed, scenario_json, now, now),
            )
            created = cursor.rowcount == 1
        record = self.get_run(fingerprint, _count=False)
        assert record is not None  # the row exists either way
        _counter("service.store.insert" if created else "service.store.hit")
        return record, created

    def complete_run(
        self,
        fingerprint: str,
        *,
        records: Sequence[Mapping[str, Any]],
        timings: Mapping[str, float] | None = None,
    ) -> RunRecord:
        """Mark a run ``done`` and persist its summary records and timings."""
        return self._finish(
            fingerprint,
            status="done",
            records_json=json.dumps(list(map(dict, records))),
            timings_json=json.dumps(dict(timings)) if timings is not None else None,
            error=None,
        )

    def fail_run(self, fingerprint: str, error: str) -> RunRecord:
        """Mark a run ``failed`` with its error message (resubmittable)."""
        return self._finish(
            fingerprint,
            status="failed",
            records_json=None,
            timings_json=None,
            error=error,
        )

    def reset_run(self, fingerprint: str) -> None:
        """Flip a ``failed`` (or stale ``running``) row back to ``running``.

        Used on resubmission after a failure or a crash: the row keeps its
        identity and creation time; the engine's checkpoint directory decides
        how much work is actually redone.
        """
        with self._connect() as conn:
            conn.execute(
                """
                UPDATE runs SET status = 'running', error = NULL, updated_at = ?
                WHERE fingerprint = ? AND status != 'done'
                """,
                (time.time(), fingerprint),
            )

    def _finish(
        self,
        fingerprint: str,
        *,
        status: str,
        records_json: str | None,
        timings_json: str | None,
        error: str | None,
    ) -> RunRecord:
        with self._connect() as conn:
            cursor = conn.execute(
                """
                UPDATE runs SET status = ?, records_json = ?, timings_json = ?,
                                error = ?, updated_at = ?
                WHERE fingerprint = ?
                """,
                (status, records_json, timings_json, error, time.time(), fingerprint),
            )
            if cursor.rowcount != 1:
                raise ConfigurationError(
                    f"cannot mark unknown run {fingerprint!r} as {status}"
                )
        record = self.get_run(fingerprint, _count=False)
        assert record is not None
        return record

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def get_run(self, fingerprint: str, *, _count: bool = True) -> RunRecord | None:
        """Look up one run by fingerprint (``service.store.hit``/``miss``)."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM runs WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
            artifacts = {
                art["name"]: art["path"]
                for art in conn.execute(
                    "SELECT name, path FROM artifacts WHERE fingerprint = ?",
                    (fingerprint,),
                )
            }
        if _count:
            _counter("service.store.hit" if row is not None else "service.store.miss")
        if row is None:
            return None
        return self._record(row, artifacts)

    def iter_runs(self) -> Iterator[RunRecord]:
        """All runs, newest first (artifact paths not populated)."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT * FROM runs ORDER BY created_at DESC"
            ).fetchall()
        for row in rows:
            yield self._record(row, {})

    def counts(self) -> dict[str, int]:
        """Row counts: total plus per-status breakdown (the /stats payload)."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT status, COUNT(*) AS c FROM runs GROUP BY status"
            ).fetchall()
            artifacts = int(
                conn.execute("SELECT COUNT(*) FROM artifacts").fetchone()[0]
            )
        by_status = {row["status"]: int(row["c"]) for row in rows}
        return {
            "runs": sum(by_status.values()),
            "artifacts": artifacts,
            **{f"runs_{status}": by_status.get(status, 0) for status in RUN_STATUSES},
        }

    # ------------------------------------------------------------------ #
    # artifacts
    # ------------------------------------------------------------------ #
    def add_artifact(self, fingerprint: str, name: str, path: str | os.PathLike[str]) -> None:
        """Attach (idempotently) a named on-disk artifact to a run."""
        with self._connect() as conn:
            exists = conn.execute(
                "SELECT 1 FROM runs WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
            if exists is None:
                raise ConfigurationError(
                    f"cannot attach artifact {name!r} to unknown run {fingerprint!r}"
                )
            conn.execute(
                """
                INSERT INTO artifacts (fingerprint, name, path, created_at)
                VALUES (?, ?, ?, ?)
                ON CONFLICT (fingerprint, name) DO UPDATE SET path = excluded.path
                """,
                (fingerprint, name, os.fspath(path), time.time()),
            )

    # ------------------------------------------------------------------ #
    # row decoding
    # ------------------------------------------------------------------ #
    @staticmethod
    def _record(row: sqlite3.Row, artifacts: dict[str, str]) -> RunRecord:
        return RunRecord(
            fingerprint=row["fingerprint"],
            scenario_name=row["scenario_name"],
            scale=row["scale"],
            seed=row["seed"],
            status=row["status"],
            scenario_json=row["scenario_json"],
            records=(
                json.loads(row["records_json"])
                if row["records_json"] is not None
                else None
            ),
            timings=(
                json.loads(row["timings_json"])
                if row["timings_json"] is not None
                else None
            ),
            error=row["error"],
            created_at=row["created_at"],
            updated_at=row["updated_at"],
            artifacts=artifacts,
        )

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self._path)!r})"
