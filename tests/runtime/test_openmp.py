"""Tests for the OpenMP schedule simulator."""

import numpy as np
import pytest

from repro.machine import WorkSignature, uniform_machine
from repro.machine import counters as C
from repro.runtime import LoopTask, OpenMPError, OpenMPRuntime, Profiler, Schedule
from repro.runtime.openmp import _chunk_plan


def uniform_tasks(n, flops=1e6):
    sig = WorkSignature(flops=flops, loads=flops / 4, footprint_bytes=32 * 1024)
    return [LoopTask(sig) for _ in range(n)]


def skewed_tasks(n, base=1e5, slope=2e5):
    """Linearly increasing task cost: classic triangular imbalance."""
    return [
        LoopTask(WorkSignature(flops=base + slope * i, loads=1e4,
                               footprint_bytes=16 * 1024))
        for i in range(n)
    ]


def run_loop(tasks, n_threads, schedule, machine=None):
    m = machine or uniform_machine(n_threads)
    p = Profiler(m)
    omp = OpenMPRuntime(m, p)
    r = omp.parallel_for(
        region_event="parallel_region",
        loop_event="work_loop",
        tasks=tasks,
        n_threads=n_threads,
        schedule=schedule,
    )
    return r, p


class TestSchedule:
    def test_parse(self):
        assert Schedule.parse("static") == Schedule("static")
        assert Schedule.parse("dynamic,4") == Schedule("dynamic", 4)
        assert str(Schedule("dynamic", 1)) == "dynamic,1"

    def test_runtime_resolves_to_static(self):
        # No OMP_SCHEDULE in the simulator: run-sched-var keeps its
        # implementation-defined initial value, static.
        assert Schedule("runtime") == Schedule("static")
        assert Schedule.parse("runtime") == Schedule("static")
        r, _ = run_loop(uniform_tasks(8), 4, "runtime")
        assert r.schedule == Schedule("static")
        assert r.chunks == run_loop(uniform_tasks(8), 4, "static")[0].chunks

    @pytest.mark.parametrize("bad", ["banana", "dynamic,x", "a,b,c", "dynamic,0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(OpenMPError):
            Schedule.parse(bad)


class TestChunkPlan:
    def test_static_even_blocks(self):
        plan = _chunk_plan(10, 4, Schedule("static"))
        assert plan == [(0, 3), (3, 6), (6, 8), (8, 10)]
        assert sum(b - a for a, b in plan) == 10

    def test_static_chunked(self):
        plan = _chunk_plan(7, 2, Schedule("static", 2))
        assert plan == [(0, 2), (2, 4), (4, 6), (6, 7)]

    def test_dynamic_chunks(self):
        plan = _chunk_plan(5, 8, Schedule("dynamic", 1))
        assert len(plan) == 5

    def test_guided_shrinks(self):
        plan = _chunk_plan(100, 4, Schedule("guided", 1))
        sizes = [b - a for a, b in plan]
        assert sizes[0] > sizes[-1]
        assert sizes[0] == 100 // 8
        assert sum(sizes) == 100

    def test_plans_cover_exactly(self):
        for sched in [Schedule("static"), Schedule("static", 3),
                      Schedule("dynamic", 2), Schedule("guided", 2)]:
            plan = _chunk_plan(23, 5, sched)
            covered = []
            for a, b in plan:
                covered.extend(range(a, b))
            assert covered == list(range(23)), str(sched)


class TestParallelFor:
    def test_uniform_work_balances_under_static(self):
        r, _ = run_loop(uniform_tasks(64), 8, "static")
        assert r.imbalance_ratio < 0.01
        assert max(r.barrier_seconds) < 1e-6

    def test_skewed_work_imbalanced_under_static(self):
        """Triangular costs + static blocks → last thread dominates."""
        r, _ = run_loop(skewed_tasks(64), 8, "static")
        assert r.imbalance_ratio > 0.25  # the paper's rule threshold
        # first (cheap) thread waits longest at the barrier
        assert r.barrier_seconds[0] > r.barrier_seconds[-1]

    def test_dynamic_chunk1_fixes_skewed_imbalance(self):
        r_static, _ = run_loop(skewed_tasks(64), 8, "static")
        r_dyn, _ = run_loop(skewed_tasks(64), 8, "dynamic,1")
        assert r_dyn.imbalance_ratio < r_static.imbalance_ratio / 2
        assert r_dyn.makespan_seconds < r_static.makespan_seconds

    def test_large_dynamic_chunks_degenerate_toward_static(self):
        """The paper: 'larger chunk sizes tend to change the scheduling
        behavior to be more like the static even behavior'."""
        tasks = skewed_tasks(64)
        r1, _ = run_loop(tasks, 8, "dynamic,1")
        r8, _ = run_loop(tasks, 8, "dynamic,8")  # chunk = n/threads
        r_static, _ = run_loop(tasks, 8, "static")
        assert r1.imbalance_ratio < r8.imbalance_ratio
        assert r8.imbalance_ratio == pytest.approx(r_static.imbalance_ratio, rel=0.3)

    def test_barrier_negative_correlation(self):
        """Inner compute vs outer wait across threads: strong negative
        correlation (the imbalance rule's fourth condition)."""
        r, _ = run_loop(skewed_tasks(64), 8, "static")
        rho = np.corrcoef(r.compute_seconds, r.barrier_seconds)[0, 1]
        assert rho < -0.9

    def test_profile_structure(self):
        _, p = run_loop(uniform_tasks(8), 4, "static")
        t = p.to_trial("t")
        assert t.has_event("parallel_region") and t.has_event("work_loop")
        assert ("parallel_region", "work_loop") in p.callgraph_edges
        # loop exclusive time ≈ loop inclusive time (leaf event)
        e = t.event_index("work_loop")
        np.testing.assert_allclose(
            t.exclusive_array(C.TIME)[e], t.inclusive_array(C.TIME)[e]
        )

    def test_dispatch_overhead_charged_for_dynamic(self):
        tasks = uniform_tasks(128, flops=1e4)
        m = uniform_machine(4)
        p1, p2 = Profiler(m), Profiler(m)
        cheap = OpenMPRuntime(m, p1, dispatch_overhead_us=0.0)
        costly = OpenMPRuntime(m, p2, dispatch_overhead_us=50.0)
        r_cheap = cheap.parallel_for(
            region_event="r", loop_event="l", tasks=tasks,
            n_threads=4, schedule="dynamic,1")
        r_costly = costly.parallel_for(
            region_event="r", loop_event="l", tasks=tasks,
            n_threads=4, schedule="dynamic,1")
        assert r_costly.makespan_seconds > r_cheap.makespan_seconds

    def test_single_thread_loop(self):
        r, _ = run_loop(uniform_tasks(5), 1, "static")
        assert r.chunks == [5] or r.chunks == [1]  # one block
        assert r.barrier_seconds == [0.0]

    def test_more_threads_than_tasks(self):
        r, _ = run_loop(uniform_tasks(3), 8, "static")
        assert sum(r.chunks) == 3
        assert sum(1 for c in r.chunks if c == 0) == 5

    def test_validation_errors(self):
        m = uniform_machine(2)
        omp = OpenMPRuntime(m, Profiler(m))
        with pytest.raises(OpenMPError, match="no tasks"):
            omp.parallel_for(region_event="r", loop_event="l", tasks=[],
                             n_threads=2)
        with pytest.raises(OpenMPError, match="at least one thread"):
            omp.parallel_for(region_event="r", loop_event="l",
                             tasks=uniform_tasks(1), n_threads=0)
        with pytest.raises(OpenMPError, match="duplicates"):
            omp.parallel_for(region_event="r", loop_event="l",
                             tasks=uniform_tasks(4), n_threads=2, cpus=[0, 0])
        with pytest.raises(OpenMPError, match="out of range"):
            omp.parallel_for(region_event="r", loop_event="l",
                             tasks=uniform_tasks(4), n_threads=2, cpus=[0, 9])
        with pytest.raises(OpenMPError):
            OpenMPRuntime(m, Profiler(m), dispatch_overhead_us=-1)


class TestSingle:
    def test_master_does_all_work_others_wait(self):
        m = uniform_machine(4)
        p = Profiler(m)
        omp = OpenMPRuntime(m, p)
        elapsed = omp.single(
            region_event="exchange_var",
            body_event="mpi_send_recv_ko",
            work_items=uniform_tasks(16),
            n_threads=4,
        )
        assert elapsed > 0
        t = p.to_trial("t")
        body = t.event_index("mpi_send_recv_ko")
        time_row = t.exclusive_array(C.TIME)[body]
        assert time_row[0] > 0
        assert (time_row[1:] == 0).all()
        # non-master threads idle inside the region for ~the master's time
        region = t.event_index("exchange_var")
        waits = t.exclusive_array(C.TIME)[region]
        assert waits[1] == pytest.approx(elapsed * 1e6, rel=0.05)

    def test_single_validation(self):
        m = uniform_machine(2)
        omp = OpenMPRuntime(m, Profiler(m))
        with pytest.raises(OpenMPError):
            omp.single(region_event="r", body_event="b",
                       work_items=uniform_tasks(1), n_threads=2,
                       master_thread=5)
