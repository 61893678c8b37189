"""Concurrent access to one PerfDMF repository (the serve rework).

Regression tests for the failure modes the service exposed: sqlite
connections crossing threads (``sqlite3.ProgrammingError``) and writer
contention ("database is locked", "database table is locked").  Every
backend must survive many readers and writers — trial stores and the
side-table bookkeeping of experiments and lineage — with neither error.
"""

import sqlite3
import sys
import threading
import time

import numpy as np
import pytest

from repro.experiments import ExperimentSpec, ExperimentState, RigorPolicy
from repro.lineage import LineageStore
from repro.perfdmf import PerfDMF, ProfileError, TrialBuilder
from repro.serve import AnalysisService


def make_trial(name, scale=1.0, threads=4):
    rng = np.random.default_rng(11)
    exc = rng.uniform(10, 20, size=(2, threads)) * scale
    return (
        TrialBuilder(name, {"threads": threads})
        .with_events(["main", "loop"])
        .with_threads(threads)
        .with_metric("TIME", exc, exc * 1.2, units="usec")
        .with_calls(np.ones_like(exc), np.zeros_like(exc))
        .build()
    )


@pytest.fixture
def file_db(tmp_path):
    with PerfDMF(str(tmp_path / "perf.db")) as db:
        db.save_trial("A", "E", make_trial("t0"))
        yield db


class TestPerThreadConnections:
    def test_connection_is_thread_local(self, file_db):
        seen = {}

        def grab(tag):
            seen[tag] = id(file_db.connection)

        threads = [threading.Thread(target=grab, args=(n,)) for n in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seen["main"] = id(file_db.connection)
        assert len(set(seen.values())) == 4  # one connection per thread

    def test_cross_thread_use_raises_no_programming_error(self, file_db):
        """The historical failure: a connection created on the main thread
        used from a worker.  Per-thread connections make it impossible."""
        errors = []

        def reader():
            try:
                for _ in range(20):
                    file_db.load_trial("A", "E", "t0")
            except sqlite3.ProgrammingError as exc:  # pragma: no cover
                errors.append(exc)

        workers = [threading.Thread(target=reader) for _ in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert errors == []


class TestReadersRacingAWriter:
    def test_no_database_is_locked(self, file_db):
        """8 reader threads + 1 writer thread over one file: every
        operation succeeds (WAL + busy_timeout absorb the contention)."""
        stop = threading.Event()
        errors = []

        def reader(view):
            while not stop.is_set():
                try:
                    view.load_trial("A", "E", "t0")
                    view.trials("A", "E")
                except (sqlite3.OperationalError,
                        sqlite3.ProgrammingError) as exc:
                    errors.append(exc)
                    return

        def writer():
            try:
                for n in range(12):
                    file_db.save_trial("A", "E", make_trial(f"w{n}"))
                for n in range(0, 12, 2):
                    file_db.delete_trial("A", "E", f"w{n}")
            except (sqlite3.OperationalError,
                    sqlite3.ProgrammingError) as exc:
                errors.append(exc)

        ro = file_db.read_view()
        readers = [threading.Thread(target=reader, args=(db,))
                   for db in (file_db, ro, ro, file_db, ro, file_db, ro, ro)]
        wr = threading.Thread(target=writer)
        for t in readers:
            t.start()
        wr.start()
        wr.join(timeout=60.0)
        stop.set()
        for t in readers:
            t.join(timeout=10.0)
        assert not wr.is_alive()
        assert errors == [], f"concurrent access failed: {errors[0]}"
        assert set(file_db.trials("A", "E")) == \
            {"t0"} | {f"w{n}" for n in range(1, 12, 2)}

    def test_concurrent_writers_serialize(self, file_db):
        errors = []

        def writer(tag):
            try:
                for n in range(5):
                    file_db.save_trial("A", "E", make_trial(f"{tag}-{n}"))
            except sqlite3.OperationalError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in ("x", "y", "z")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert errors == []
        assert len(file_db.trials("A", "E")) == 16  # t0 + 3×5


class TestReadView:
    def test_read_view_shares_the_file(self, file_db):
        ro = file_db.read_view()
        assert ro.read_only
        assert ro.path == file_db.path
        loaded = ro.load_trial("A", "E", "t0")
        assert loaded.name == "t0"

    def test_read_view_sees_later_writes(self, file_db):
        ro = file_db.read_view()
        file_db.save_trial("A", "E", make_trial("t1"))
        assert "t1" in ro.trials("A", "E")

    def test_read_view_cannot_write(self, file_db):
        ro = file_db.read_view()
        with pytest.raises((ProfileError, sqlite3.OperationalError)):
            ro.save_trial("A", "E", make_trial("nope"))
        with pytest.raises((ProfileError, sqlite3.OperationalError)):
            ro.delete_trial("A", "E", "t0")


class TestChangeListeners:
    def test_listener_fires_once_per_mutation_across_threads(self, file_db):
        events = []
        lock = threading.Lock()

        def listener(action, app, exp, trial):
            with lock:
                events.append((action, trial))

        file_db.add_change_listener(listener)
        try:
            def save(n):
                file_db.save_trial("A", "E", make_trial(f"c{n}"))

            threads = [threading.Thread(target=save, args=(n,))
                       for n in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            file_db.delete_trial("A", "E", "c0")
        finally:
            file_db.remove_change_listener(listener)
        saves = [e for e in events if e[0] == "save"]
        deletes = [e for e in events if e[0] == "delete"]
        assert sorted(t for _, t in saves) == ["c0", "c1", "c2", "c3"]
        assert deletes == [("delete", "c0")]
        file_db.save_trial("A", "E", make_trial("quiet"))
        assert len(events) == 5  # removed listener stays quiet


class TestWriteScope:
    def test_commits_on_exit(self):
        with PerfDMF() as db:
            with db.write() as conn:
                conn.execute("INSERT INTO application (name) VALUES ('A')")
            assert db.applications() == ["A"]

    def test_rolls_back_on_exception(self):
        with PerfDMF() as db:
            with pytest.raises(RuntimeError):
                with db.write() as conn:
                    conn.execute(
                        "INSERT INTO application (name) VALUES ('A')")
                    raise RuntimeError("abort")
            assert db.applications() == []
            assert not db.connection.in_transaction


#: Trial-writing workers, cases and reruns in the writer race below.
WRITERS = 3
CASES = 3
RERUNS = 4


class TestOneWritePath:
    """Trial writers race the orchestrator's bookkeeping on one repository.

    Workers store each case rerun twice (the second store replaces the
    first) while the calling thread records experiment samples and
    lineage versions against the same database.  Every write goes
    through ``PerfDMF.write``, so none may fail and nothing may be lost;
    retries are off so a lock error cannot hide behind one.
    """

    @pytest.mark.parametrize("backend,mode", [
        ("memory", "thread"), ("file", "thread"), ("file", "process"),
    ])
    def test_trial_writers_race_state_and_lineage(self, tmp_path,
                                                  backend, mode):
        spec = ExperimentSpec(
            name="race", app="synthetic",
            factors={"scale": [float(n + 1) for n in range(CASES)],
                     "threads": [16]},
            rigor=RigorPolicy(min_runs=1, max_runs=RERUNS, noise=0.1),
        )
        plan = spec.expand()
        db_path = ":memory:" if backend == "memory" \
            else str(tmp_path / "perf.db")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the writer threads finely
        try:
            self._race(spec, plan, db_path, mode)
        finally:
            sys.setswitchinterval(interval)

    def _race(self, spec, plan, db_path, mode):
        with AnalysisService(db_path=db_path, mode=mode, workers=WRITERS,
                             max_retries=0) as svc:
            db = svc.db
            db.save_trial("A", "E", make_trial("t0"))
            state = ExperimentState(db)
            store = LineageStore(db)
            run_id = state.begin_run(plan)
            jobs = [svc.submit("run-trial", {
                "app": spec.app, "application": spec.application,
                "experiment": spec.experiment_name, "case_key": case.key,
                "rerun": rerun, "factors": dict(case.factors),
                "noise": spec.rigor.noise, "spec": spec.name,
            }) for _ in range(2) for case in plan.cases
                for rerun in range(RERUNS)]
            rounds = 0
            deadline = time.monotonic() + 120.0
            while rounds < 8 or not all(job.done for job in jobs):
                assert time.monotonic() < deadline, "writers never finished"
                case = plan.cases[rounds % CASES]
                vid = f"v{rounds}"
                state.mark_running(run_id, case.key)
                state.record_sample(run_id, case.key, vid, float(rounds))
                store.record(vid, parents=[f"v{rounds - 1}"] if rounds
                             else [])
                store.attach_trial(vid, "A", "E", "t0")
                store.annotate(vid, round=rounds)
                rounds += 1
            failed = [job.error for job in jobs if job.status != "done"]
            assert failed == [], failed[0]
            expected = {f"{case.short}_r{rerun}" for case in plan.cases
                        for rerun in range(RERUNS)}
            assert set(db.trials(spec.application,
                                 spec.experiment_name)) == expected
            assert len(store) == rounds
            assert store.get(f"v{rounds - 1}").annotations == \
                {"round": rounds - 1}
            banked = sum(state.case(run_id, case.key).runs
                         for case in plan.cases)
            assert banked == rounds
