"""The shared side-table migrator behind regress, experiments and lineage.

``ensure_side_tables`` creates a subsystem's tables, migrates them one
version at a time, and refuses a newer schema — all in one write scope,
so a failing migration leaves nothing half-applied.
"""

import pytest

from repro.perfdmf import PerfDMF, ProfileError, ensure_side_tables

DDL = """
CREATE TABLE IF NOT EXISTS demo_meta (
    version INTEGER NOT NULL
);
-- one table; the v2 migration adds a column to it
CREATE TABLE IF NOT EXISTS demo (
    id   INTEGER PRIMARY KEY,
    note TEXT NOT NULL
);
"""


def add_tag(conn):
    conn.execute("ALTER TABLE demo ADD COLUMN tag TEXT NOT NULL DEFAULT ''")


def broken(conn):
    add_tag(conn)
    conn.execute("CREATE TABLE demo_extra (x INTEGER)")
    raise RuntimeError("migration failed halfway")


def ensure(db, version, migrations):
    return ensure_side_tables(db, "demo_meta", DDL, version, migrations)


def tables(db):
    return {r[0] for r in db.connection.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'")}


def columns(db):
    return [r[1] for r in db.connection.execute("PRAGMA table_info(demo)")]


def versions(db):
    return [r[0] for r in db.connection.execute(
        "SELECT version FROM demo_meta")]


class TestEnsureSideTables:
    def test_fresh_repository_lands_on_current_version(self):
        with PerfDMF() as db:
            assert ensure(db, 2, {1: add_tag}) == 2
            assert columns(db) == ["id", "note", "tag"]
            # idempotent: one version row, no second migration
            assert ensure(db, 2, {1: add_tag}) == 2
            assert versions(db) == [2]

    def test_v1_repository_upgrades(self, tmp_path):
        path = tmp_path / "old.db"
        with PerfDMF(path) as db:
            assert ensure(db, 1, {}) == 1
            db.connection.execute("INSERT INTO demo (note) VALUES ('kept')")
        with PerfDMF(path) as db:
            assert ensure(db, 2, {1: add_tag}) == 2
            assert versions(db) == [2]
            assert db.connection.execute(
                "SELECT note, tag FROM demo").fetchall() == [("kept", "")]

    def test_newer_version_refused(self):
        with PerfDMF() as db:
            ensure(db, 2, {1: add_tag})
            with pytest.raises(ProfileError, match="newer than this build"):
                ensure(db, 1, {})
            assert versions(db) == [2]

    def test_failing_migration_rolls_back_ddl_and_version(self):
        with PerfDMF() as db:
            ensure(db, 1, {})
            with pytest.raises(RuntimeError, match="halfway"):
                ensure(db, 2, {1: broken})
            assert versions(db) == [1]
            assert columns(db) == ["id", "note"]
            assert "demo_extra" not in tables(db)

    def test_failing_migration_on_fresh_repository_leaves_nothing(self):
        with PerfDMF() as db:
            with pytest.raises(RuntimeError, match="halfway"):
                ensure(db, 2, {1: broken})
            assert not tables(db) & {"demo_meta", "demo", "demo_extra"}
            assert not db.connection.in_transaction
