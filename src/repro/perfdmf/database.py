"""SQLite-backed PerfDMF repository.

PerfDMF stores parallel profiles in a relational database so analyses can
span many experiments.  This module reproduces that design on
:mod:`sqlite3` (stdlib): a normalized schema with application/experiment/
trial/metric/event dimension tables and a single measurement fact table.

The repository is the system's durable store: the runtime simulator saves
trials here and PerfExplorer scripts load them back by
(application, experiment, trial) coordinates, exactly like the paper's
``Utilities.getTrial("Fluid Dynamic", "rib 45", "1_8")``.

Concurrency model (what :mod:`repro.serve` builds on):

* **Connections are per-thread.**  A :class:`PerfDMF` instance may be
  shared freely across threads; each thread lazily opens its own
  ``sqlite3`` connection (``connection`` property), so no connection is
  ever used from two threads at once and ``sqlite3.ProgrammingError``
  cannot arise from sharing.
* **One write path.**  Every write — trial saves and deletes, and the
  side tables of :mod:`repro.regress`, :mod:`repro.experiments` and
  :mod:`repro.lineage` — runs inside :meth:`PerfDMF.write`, a
  write-locking transaction (``IMMEDIATE``) that rolls back on any
  exception.  Side-table schemas are created and migrated through
  :func:`ensure_side_tables` in one such scope.
* **Writers queue instead of failing.**  File-backed repositories run in
  WAL mode, so readers proceed while a writer commits, and a
  ``busy_timeout`` of :data:`BUSY_TIMEOUT_MS` makes contending writers —
  threads or worker processes — wait for the write lock.  In-memory
  repositories use a process-shared cache (``cache=shared`` URI), where
  SQLite reports table locks as SQLITE_LOCKED without consulting the busy
  handler; there :meth:`PerfDMF.write` first takes a process-wide writer
  lock keyed on the database, so writers queue in Python instead.
* **Read-only snapshot views.**  :meth:`read_view` returns a repository
  over the same database whose connections are opened read-only
  (``query_only``), which is what analysis workers get so a buggy job
  cannot mutate the store.
* **Change notification.**  :meth:`add_change_listener` observes trial
  saves/deletes — the serve layer's result cache invalidates on these.

Each in-memory repository gets a unique shared-cache name, so per-thread
connections still see one database.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sqlite3
import threading
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from .. import observe
from .model import Event, Metric, ProfileError, ThreadId, Trial


def _stmt(kind: str, rows: int) -> None:
    """Count executed statements by class (insert/select/delete) and the
    rows they touched — the repository's query-mix telemetry."""
    if observe.enabled():
        observe.counter(f"perfdmf.stmt.{kind}").inc()
        observe.counter(f"perfdmf.rows.{kind}").inc(rows)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS application (
    id      INTEGER PRIMARY KEY,
    name    TEXT NOT NULL UNIQUE,
    metadata TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS experiment (
    id      INTEGER PRIMARY KEY,
    app_id  INTEGER NOT NULL REFERENCES application(id) ON DELETE CASCADE,
    name    TEXT NOT NULL,
    metadata TEXT NOT NULL DEFAULT '{}',
    UNIQUE (app_id, name)
);
CREATE TABLE IF NOT EXISTS trial (
    id      INTEGER PRIMARY KEY,
    exp_id  INTEGER NOT NULL REFERENCES experiment(id) ON DELETE CASCADE,
    name    TEXT NOT NULL,
    metadata TEXT NOT NULL DEFAULT '{}',
    UNIQUE (exp_id, name)
);
CREATE TABLE IF NOT EXISTS metric (
    id       INTEGER PRIMARY KEY,
    trial_id INTEGER NOT NULL REFERENCES trial(id) ON DELETE CASCADE,
    name     TEXT NOT NULL,
    units    TEXT NOT NULL DEFAULT 'counts',
    derived  INTEGER NOT NULL DEFAULT 0,
    UNIQUE (trial_id, name)
);
CREATE TABLE IF NOT EXISTS event (
    id       INTEGER PRIMARY KEY,
    trial_id INTEGER NOT NULL REFERENCES trial(id) ON DELETE CASCADE,
    name     TEXT NOT NULL,
    grp      TEXT NOT NULL DEFAULT 'TAU_DEFAULT',
    UNIQUE (trial_id, name)
);
CREATE TABLE IF NOT EXISTS thread (
    id       INTEGER PRIMARY KEY,
    trial_id INTEGER NOT NULL REFERENCES trial(id) ON DELETE CASCADE,
    node     INTEGER NOT NULL,
    context  INTEGER NOT NULL,
    thread   INTEGER NOT NULL,
    UNIQUE (trial_id, node, context, thread)
);
CREATE TABLE IF NOT EXISTS value (
    metric_id  INTEGER NOT NULL REFERENCES metric(id) ON DELETE CASCADE,
    event_id   INTEGER NOT NULL REFERENCES event(id)  ON DELETE CASCADE,
    thread_id  INTEGER NOT NULL REFERENCES thread(id) ON DELETE CASCADE,
    exclusive  REAL NOT NULL,
    inclusive  REAL NOT NULL,
    PRIMARY KEY (metric_id, event_id, thread_id)
);
CREATE TABLE IF NOT EXISTS callcount (
    event_id   INTEGER NOT NULL REFERENCES event(id)  ON DELETE CASCADE,
    thread_id  INTEGER NOT NULL REFERENCES thread(id) ON DELETE CASCADE,
    calls      REAL NOT NULL,
    subroutines REAL NOT NULL,
    PRIMARY KEY (event_id, thread_id)
);
-- Covering indexes for the fact table.  The composite primary keys already
-- serve the metric_id-first (value) and event_id-first (callcount) paths;
-- these cover the other child-key lookups, which otherwise full-scan on
-- every cascading delete (trial replacement) and event/thread-scoped query.
CREATE INDEX IF NOT EXISTS idx_value_event     ON value(event_id);
CREATE INDEX IF NOT EXISTS idx_value_thread    ON value(thread_id);
CREATE INDEX IF NOT EXISTS idx_callcount_thread ON callcount(thread_id);
"""

#: Unique names for shared-cache in-memory databases (one per instance).
_MEMDB_IDS = itertools.count(1)

#: How long a connection waits for another connection's write lock on a
#: file-backed repository before raising "database is locked".
BUSY_TIMEOUT_MS = 5_000

#: Process-wide writer locks for shared-cache in-memory databases, keyed
#: on the database URI (instances over one database share the lock).
_MEMDB_WRITERS: dict[str, threading.RLock] = {}


def _statements(script: str) -> Iterator[str]:
    """Split a DDL script into statements (no two may share a line).

    ``executescript`` would COMMIT any open transaction first, so DDL that
    must share a :meth:`PerfDMF.write` scope runs statement by statement.
    """
    buf = ""
    for line in script.splitlines(keepends=True):
        buf += line
        if sqlite3.complete_statement(buf):
            yield buf
            buf = ""


class PerfDMF:
    """A PerfDMF repository.

    Parameters
    ----------
    path:
        Database file, or ``":memory:"`` (the default) for an ephemeral
        repository — handy in tests and in the single-process pipelines the
        examples run.
    read_only:
        Open every connection in query-only mode.  Writes raise
        ``sqlite3.OperationalError``; the schema must already exist.
    """

    def __init__(
        self,
        path: str | Path = ":memory:",
        *,
        read_only: bool = False,
    ) -> None:
        self._path = str(path)
        self._read_only = read_only
        self._memory = self._path == ":memory:" or "mode=memory" in self._path
        if self._path == ":memory:":
            # A plain :memory: connection is invisible to other connections;
            # name it and share the cache so per-thread connections (and
            # read-only views) all see the same database.
            self._path = f"file:repro-memdb-{next(_MEMDB_IDS)}" \
                         "?mode=memory&cache=shared"
        # dict.setdefault is atomic, so racing constructors share one lock.
        self._writer = (
            _MEMDB_WRITERS.setdefault(self._path, threading.RLock())
            if self._memory else nullcontext()
        )
        self._local = threading.local()
        self._lock = threading.Lock()
        self._all_conns: list[sqlite3.Connection] = []
        self._listeners: list[Callable[[str, str, str, str], None]] = []
        self._closed = False
        # The anchor connection: created eagerly so an in-memory database
        # outlives any individual thread, and so schema errors surface at
        # construction time.
        self._connect()
        if not read_only:
            with self.write() as conn:
                for stmt in _statements(_SCHEMA):
                    conn.execute(stmt)

    # -- connection management -------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        """Open, configure, and register this thread's connection."""
        uri = self._path.startswith("file:")
        target = self._path
        if self._read_only and not self._memory:
            target = f"file:{self._path}?mode=ro"
            uri = True
        # check_same_thread=False: affinity is enforced by construction
        # (each thread only ever sees its own thread-local connection) and
        # relaxing the check lets close() shut down every connection.
        conn = sqlite3.connect(
            target, isolation_level=None, uri=uri, check_same_thread=False
        )
        conn.execute("PRAGMA foreign_keys = ON")
        conn.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
        if self._memory:
            # Shared-cache databases use table-level locks that the busy
            # handler does not cover: writers queue on self._writer, and
            # uncommitted reads keep readers from taking table locks.
            conn.execute("PRAGMA read_uncommitted = ON")
        else:
            if not self._read_only:
                # WAL lets concurrent readers proceed while a writer stores
                # a trial; NORMAL sync is durable enough for a profile cache
                # and much faster.
                conn.execute("PRAGMA journal_mode = WAL")
                conn.execute("PRAGMA synchronous = NORMAL")
        if self._read_only:
            conn.execute("PRAGMA query_only = ON")
        self._local.conn = conn
        with self._lock:
            if self._closed:
                conn.close()
                raise ProfileError("repository is closed")
            self._all_conns.append(conn)
        return conn

    @property
    def connection(self) -> sqlite3.Connection:
        """The *calling thread's* connection (created on first use).

        Companion subsystems such as :mod:`repro.regress` keep their own
        tables in the same file through this handle; because it is
        thread-local they inherit thread safety for free.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            if self._closed:
                raise ProfileError("repository is closed")
            conn = self._connect()
        return conn

    @property
    def path(self) -> str:
        """The database target (file path, or shared-cache URI for
        in-memory repositories)."""
        return self._path

    @property
    def read_only(self) -> bool:
        return self._read_only

    def read_view(self) -> "PerfDMF":
        """A read-only repository over the same database.

        This is what analysis workers get: snapshot connections that can
        load trials but cannot mutate the store.
        """
        return PerfDMF(self._path, read_only=True)

    @contextmanager
    def write(self) -> Iterator[sqlite3.Connection]:
        """The repository's one write transaction scope.

        Yields the calling thread's connection inside ``BEGIN IMMEDIATE``;
        commits on exit and rolls back on any exception.  Writers to an
        in-memory repository first queue on its process-wide writer lock;
        file-backed writers queue in SQLite (WAL plus ``busy_timeout``).
        Scopes do not nest.
        """
        conn = self.connection
        with self._writer:
            conn.execute("BEGIN IMMEDIATE")
            try:
                yield conn
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")

    def close(self) -> None:
        with self._lock:
            self._closed = True
            conns, self._all_conns = self._all_conns, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - already closed
                pass
        self._local = threading.local()

    def __enter__(self) -> "PerfDMF":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- change notification ---------------------------------------------
    def add_change_listener(
        self, listener: Callable[[str, str, str, str], None]
    ) -> None:
        """Register ``listener(action, application, experiment, trial)``,
        called after a trial is stored (``"save"``) or deleted
        (``"delete"``).  The serve layer's result cache hangs off this."""
        self._listeners.append(listener)

    def remove_change_listener(self, listener) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, action: str, application: str, experiment: str,
                trial: str) -> None:
        for listener in list(self._listeners):
            listener(action, application, experiment, trial)

    # -- hierarchy -------------------------------------------------------
    def _get_or_create(self, table: str, where: dict, defaults: dict | None = None) -> int:
        cols = list(where)
        row = self.connection.execute(
            f"SELECT id FROM {table} WHERE "
            + " AND ".join(f"{c} = ?" for c in cols),
            [where[c] for c in cols],
        ).fetchone()
        if row:
            return row[0]
        data = {**where, **(defaults or {})}
        cur = self.connection.execute(
            f"INSERT INTO {table} ({', '.join(data)}) VALUES "
            f"({', '.join('?' for _ in data)})",
            list(data.values()),
        )
        return cur.lastrowid

    def save_trial(
        self, application: str, experiment: str, trial: Trial, *, replace: bool = False
    ) -> int:
        """Persist ``trial`` under application/experiment. Returns trial id.

        The whole store — cascade-deleting a replaced trial included — is
        one transaction: readers never observe a half-written trial and a
        failure rolls everything back.
        """
        trial.validate()
        conn = self.connection
        with observe.span(
            "perfdmf.save_trial", application=application,
            experiment=experiment, trial=trial.name,
            events=trial.event_count, threads=trial.thread_count,
            metrics=len(trial.metrics), replace=replace,
        ) as sp, self.write():
            app_id = self._get_or_create("application", {"name": application})
            exp_id = self._get_or_create("experiment", {"app_id": app_id, "name": experiment})
            existing = conn.execute(
                "SELECT id FROM trial WHERE exp_id = ? AND name = ?", (exp_id, trial.name)
            ).fetchone()
            if existing:
                if not replace:
                    raise ProfileError(
                        f"trial {trial.name!r} already exists under "
                        f"{application}/{experiment} (pass replace=True to overwrite)"
                    )
                conn.execute("DELETE FROM trial WHERE id = ?", (existing[0],))
            cur = conn.execute(
                "INSERT INTO trial (exp_id, name, metadata) VALUES (?, ?, ?)",
                (exp_id, trial.name, json.dumps(trial.metadata, default=str)),
            )
            trial_id = cur.lastrowid

            event_ids = {}
            for ev in trial.events:
                c = conn.execute(
                    "INSERT INTO event (trial_id, name, grp) VALUES (?, ?, ?)",
                    (trial_id, ev.name, ev.group),
                )
                event_ids[ev.name] = c.lastrowid
            thread_ids = {}
            for th in trial.threads:
                c = conn.execute(
                    "INSERT INTO thread (trial_id, node, context, thread) VALUES (?, ?, ?, ?)",
                    (trial_id, th.node, th.context, th.thread),
                )
                thread_ids[th] = c.lastrowid

            events = trial.events
            threads = trial.threads
            for metric in trial.metrics:
                c = conn.execute(
                    "INSERT INTO metric (trial_id, name, units, derived) VALUES (?, ?, ?, ?)",
                    (trial_id, metric.name, metric.units, int(metric.derived)),
                )
                metric_id = c.lastrowid
                exc = trial.exclusive_array(metric.name)
                inc = trial.inclusive_array(metric.name)
                rows = [
                    (metric_id, event_ids[events[e].name], thread_ids[threads[t]],
                     float(exc[e, t]), float(inc[e, t]))
                    for e in range(len(events))
                    for t in range(len(threads))
                ]
                conn.executemany(
                    "INSERT INTO value VALUES (?, ?, ?, ?, ?)", rows
                )
                _stmt("insert", len(rows))
            calls = trial.calls_array()
            subrs = trial.subroutines_array()
            rows = [
                (event_ids[events[e].name], thread_ids[threads[t]],
                 float(calls[e, t]), float(subrs[e, t]))
                for e in range(len(events))
                for t in range(len(threads))
            ]
            conn.executemany("INSERT INTO callcount VALUES (?, ?, ?, ?)", rows)
            _stmt("insert", len(rows))
            sp.set(trial_id=trial_id)
        self._notify("save", application, experiment, trial.name)
        return trial_id

    # -- loading -------------------------------------------------------------
    def _trial_row(self, application: str, experiment: str, trial: str):
        row = self.connection.execute(
            """SELECT t.id, t.metadata FROM trial t
               JOIN experiment e ON t.exp_id = e.id
               JOIN application a ON e.app_id = a.id
               WHERE a.name = ? AND e.name = ? AND t.name = ?""",
            (application, experiment, trial),
        ).fetchone()
        if row is None:
            raise ProfileError(
                f"no trial {application!r}/{experiment!r}/{trial!r} in repository"
            )
        return row

    def load_trial(self, application: str, experiment: str, trial: str) -> Trial:
        """Reconstruct a :class:`Trial` from the repository."""
        with observe.span("perfdmf.load_trial", application=application,
                          experiment=experiment, trial=trial) as sp:
            out = self._load_trial(application, experiment, trial)
            sp.set(events=out.event_count, threads=out.thread_count,
                   metrics=len(out.metrics))
        return out

    def _load_trial(self, application: str, experiment: str, trial: str) -> Trial:
        conn = self.connection
        trial_id, meta_json = self._trial_row(application, experiment, trial)
        out = Trial(trial, json.loads(meta_json))

        events = conn.execute(
            "SELECT id, name, grp FROM event WHERE trial_id = ? ORDER BY id",
            (trial_id,),
        ).fetchall()
        out.add_events(Event(name, grp) for _, name, grp in events)
        event_pos = {row[0]: i for i, row in enumerate(events)}

        threads = conn.execute(
            "SELECT id, node, context, thread FROM thread WHERE trial_id = ? ORDER BY id",
            (trial_id,),
        ).fetchall()
        out.add_threads(ThreadId(n, c, t) for _, n, c, t in threads)
        thread_pos = {row[0]: i for i, row in enumerate(threads)}

        metrics = conn.execute(
            "SELECT id, name, units, derived FROM metric WHERE trial_id = ? ORDER BY id",
            (trial_id,),
        ).fetchall()
        n_e, n_t = len(events), len(threads)
        for metric_id, name, units, derived in metrics:
            out.add_metric(Metric(name, units=units, derived=bool(derived)))
            exc = np.zeros((n_e, n_t))
            inc = np.zeros((n_e, n_t))
            for event_id, thread_id, x, i in conn.execute(
                "SELECT event_id, thread_id, exclusive, inclusive FROM value "
                "WHERE metric_id = ?",
                (metric_id,),
            ):
                exc[event_pos[event_id], thread_pos[thread_id]] = x
                inc[event_pos[event_id], thread_pos[thread_id]] = i
            out._exclusive[name][:, :] = exc
            out._inclusive[name][:, :] = inc

        if events:
            event_id_list = [row[0] for row in events]
            marks = ",".join("?" for _ in event_id_list)
            for event_id, thread_id, calls, subrs in conn.execute(
                f"SELECT event_id, thread_id, calls, subroutines FROM callcount "
                f"WHERE event_id IN ({marks})",
                event_id_list,
            ):
                out._calls[event_pos[event_id], thread_pos[thread_id]] = calls
                out._subrs[event_pos[event_id], thread_pos[thread_id]] = subrs
        _stmt("select", len(events) * len(threads) * max(len(metrics), 1))
        return out

    # -- content addressing ---------------------------------------------------
    def content_hash(self, application: str, experiment: str, trial: str) -> str:
        """A digest of everything stored for one trial.

        Deliberately independent of row ids: re-uploading identical data
        (new primary keys) hashes the same, while any change to metadata,
        events, threads, metrics, values, or call counts changes the
        digest.  This is the trial component of the serve layer's
        content-addressed cache keys.
        """
        conn = self.connection
        trial_id, meta_json = self._trial_row(application, experiment, trial)
        h = hashlib.sha256()
        h.update(meta_json.encode())
        queries = (
            ("SELECT name, grp FROM event WHERE trial_id = ? "
             "ORDER BY name", (trial_id,)),
            ("SELECT node, context, thread FROM thread WHERE trial_id = ? "
             "ORDER BY node, context, thread", (trial_id,)),
            ("SELECT name, units, derived FROM metric WHERE trial_id = ? "
             "ORDER BY name", (trial_id,)),
            ("""SELECT m.name, e.name, t.node, t.context, t.thread,
                       v.exclusive, v.inclusive
                FROM value v
                JOIN metric m ON v.metric_id = m.id
                JOIN event  e ON v.event_id  = e.id
                JOIN thread t ON v.thread_id = t.id
                WHERE m.trial_id = ?
                ORDER BY m.name, e.name, t.node, t.context, t.thread""",
             (trial_id,)),
            ("""SELECT e.name, t.node, t.context, t.thread,
                       c.calls, c.subroutines
                FROM callcount c
                JOIN event  e ON c.event_id  = e.id
                JOIN thread t ON c.thread_id = t.id
                WHERE e.trial_id = ?
                ORDER BY e.name, t.node, t.context, t.thread""",
             (trial_id,)),
        )
        n_rows = 0
        for sql, params in queries:
            h.update(b"\x1d")
            for row in conn.execute(sql, params):
                h.update(repr(row).encode())
                h.update(b"\x1e")
                n_rows += 1
        _stmt("select", n_rows)
        return h.hexdigest()

    # -- listing --------------------------------------------------------------
    def applications(self) -> list[str]:
        return [r[0] for r in self.connection.execute(
            "SELECT name FROM application ORDER BY name")]

    def experiments(self, application: str) -> list[str]:
        return [r[0] for r in self.connection.execute(
            """SELECT e.name FROM experiment e JOIN application a
               ON e.app_id = a.id WHERE a.name = ? ORDER BY e.name""",
            (application,))]

    def trials(self, application: str, experiment: str) -> list[str]:
        return [r[0] for r in self.connection.execute(
            """SELECT t.name FROM trial t
               JOIN experiment e ON t.exp_id = e.id
               JOIN application a ON e.app_id = a.id
               WHERE a.name = ? AND e.name = ? ORDER BY t.id""",
            (application, experiment))]

    def delete_trial(self, application: str, experiment: str, trial: str) -> None:
        trial_id, _ = self._trial_row(application, experiment, trial)
        with observe.span("perfdmf.delete_trial", application=application,
                          experiment=experiment, trial=trial), \
                self.write() as conn:
            conn.execute("DELETE FROM trial WHERE id = ?", (trial_id,))
            _stmt("delete", 1)
        self._notify("delete", application, experiment, trial)

    def trial_metadata(self, application: str, experiment: str, trial: str) -> dict[str, Any]:
        _, meta_json = self._trial_row(application, experiment, trial)
        return json.loads(meta_json)

    def trial_id(self, application: str, experiment: str, trial: str) -> int:
        """The integer primary key of a stored trial (raises if absent)."""
        return self._trial_row(application, experiment, trial)[0]


def ensure_side_tables(
    db: PerfDMF,
    meta_table: str,
    v1_ddl: str,
    version: int,
    migrations: Mapping[int, Callable[[sqlite3.Connection], None]],
) -> int:
    """Create or upgrade one subsystem's side tables; returns the version.

    Subsystems that keep their own tables in a repository (regress
    baselines, experiment state, lineage) version them independently of
    the core schema in a one-row ``meta_table`` that ``v1_ddl`` creates.
    A fresh repository gets ``v1_ddl`` at version 1; ``migrations[n]``
    upgrades version n to n + 1 until ``version`` is reached, and a
    repository newer than ``version`` is refused with
    :class:`ProfileError`.  Everything runs in one :meth:`PerfDMF.write`
    scope, so a failing migration leaves the DDL and the version row as
    they were.
    """
    with db.write() as conn:
        for stmt in _statements(v1_ddl):
            conn.execute(stmt)
        row = conn.execute(f"SELECT version FROM {meta_table}").fetchone()
        if row is None:
            conn.execute(f"INSERT INTO {meta_table} (version) VALUES (1)")
        current = 1 if row is None else row[0]
        if current > version:
            raise ProfileError(
                f"{meta_table}: schema version {current} is newer than "
                f"this build supports ({version})"
            )
        while current < version:
            migrations[current](conn)
            current += 1
            conn.execute(f"UPDATE {meta_table} SET version = ?", (current,))
    return current
