"""The benchmark's four closed-loop workloads.

Each workload is driven from one process through the analyzer's public
entry points only.  ``setup`` is what ``setup_s`` times (imports, input
generation, service start or history build); ``prepare`` computes the
independent references the checks compare against and is timed by
nothing; ``iterate`` runs one unit of work and returns its operations;
``check`` judges one operation against the reference, outside every
timed section.

Why these four (see README.md for the layer table):

* ``paper`` -- all time goes to the simulator (apps/runtime/machine);
  no storage or serve work.
* ``served-diagnose`` -- save, content hash and load dominate; the
  simulator does nothing.  Half the diagnose jobs hit the cache.
* ``sweep`` -- the only workload with concurrent writers (2 workers
  storing trials while the orchestrator books state).
* ``lineage-scan`` -- many small trial reads and pairwise comparisons,
  the other way storage is used.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

#: Thread workers for every served workload: the container has 2 CPUs.
WORKERS = 2


@dataclass
class Op:
    """One operation the benchmark drove and will check."""

    kind: str
    seconds: float
    #: Completed without raising or returning a failure status.
    completed: bool
    output: Any = None
    error: str = ""
    #: Multiplies ``seconds`` into seconds at the reference speed.
    scale: float = 1.0
    #: The input this op ran on, where the kind alone does not name it
    #: (shape, window, sweep seed).  Each key comes once per round.
    key: str = ""


@dataclass
class Iteration:
    """One unit of work: a paper pass, a served cycle, a one-seed sweep,
    a window scan."""

    wall: float
    #: What ``runs_per_s`` counts (targets, diagnose jobs, trial runs,
    #: version comparisons).
    runs: int
    ops: list[Op] = field(default_factory=list)
    #: Per-case outcomes for ``ok_share`` where the unit is not the op.
    cases: int = 0
    cases_ok: int = 0


#: The reference loop's seconds at the speed timings are scaled to,
#: about the reference host's speed when its neighbours are idle.
REFERENCE_LOOP_S = 0.0005


def _reference_loop() -> float:
    total, table = 0.0, {}
    for i in range(4000):
        table[i & 63] = total
        total += (i * 0.5) % 7.0
    return total


def host_scale() -> float:
    """Reference speed over the host's speed right now.

    The host's neighbours slow it for seconds to minutes at a time, by
    up to half, one CPU at a time or all at once.  Timing a fixed
    pure-Python loop (best of 3, 1-2 ms) on each CPU the calling thread
    may run on, next to an operation, and multiplying the operation's
    seconds by the mean factor gives its seconds at the reference speed.
    """
    cpus = os.sched_getaffinity(0)
    scales = []
    try:
        for cpu in cpus:
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                _reference_loop()
                best = min(best, time.perf_counter() - start)
            scales.append(REFERENCE_LOOP_S / best)
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(scales) / len(scales)


@dataclass
class Timed:
    """What ``_timed`` measured around one call."""

    result: Any
    seconds: float
    error: str
    #: Multiplies ``seconds`` into seconds at the reference speed: the
    #: mean of ``host_scale`` just before and just after the call.
    scale: float


def _timed(fn, *args, **kwargs) -> Timed:
    """Run ``fn``, timing it and the host's speed around it."""
    before = host_scale()
    start = time.perf_counter()
    try:
        result, error = fn(*args, **kwargs), ""
    except Exception as exc:  # an operation failure is data, not a crash
        result, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Timed(result, seconds, error, (before + host_scale()) / 2)


def _cli(argv: list[str]) -> tuple[int, str]:
    """``repro.cli.main(argv)`` in-process, capturing standard output."""
    import repro.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = repro.cli.main(argv)
    return rc, buf.getvalue()


class Workload:
    name = ""
    #: Iterations per round: runs and traces always cover whole rounds,
    #: so every run sees the same mix of inputs.
    round_length = 1
    #: Runs all its work on the driving thread, so each iteration can be
    #: moved to another CPU without changing what is measured.
    single_threaded = False

    def __init__(self, work_dir: Path, seed: int, *, tiny: bool = False):
        self.work_dir = Path(work_dir)
        self.seed = int(seed)
        self.tiny = tiny
        self.rng = random.Random(self.seed)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Build the references the checks need (untimed)."""

    def iterate(self) -> Iteration:
        raise NotImplementedError

    def check(self, op: Op) -> bool:
        raise NotImplementedError

    def client_jobs(self, iterations) -> list[tuple[float, dict]]:
        """(client-observed seconds, job record) of every socket job."""
        return []

    def close(self) -> None:
        pass


# -- paper ---------------------------------------------------------------

class Paper(Workload):
    """``repro-perf reproduce`` for every paper figure and table."""

    name = "paper"
    single_threaded = True
    TARGETS = ("fig4a", "fig4b", "fig5a", "fig5b", "table1")
    TINY_TARGETS = ("fig4a", "table1")

    def setup(self) -> None:
        import repro.cli  # noqa: F401  (the import is part of set-up)

        targets = list(self.TINY_TARGETS if self.tiny else self.TARGETS)
        self.rng.shuffle(targets)
        self.targets = targets
        self.golden = {t: (GOLDEN / f"{t}.txt").read_text()
                       for t in self.targets}

    def iterate(self) -> Iteration:
        ops = []
        start = time.perf_counter()
        for target in self.targets:
            t = _timed(_cli, ["reproduce", target])
            completed = not t.error and t.result[0] == 0
            ops.append(Op(f"reproduce_{target}", t.seconds, completed,
                          output=(target, t.result[1] if t.result else ""),
                          error=t.error, scale=t.scale))
        return Iteration(time.perf_counter() - start, len(ops), ops)

    def check(self, op: Op) -> bool:
        target, text = op.output
        return text == self.golden[target]


# -- served-diagnose -----------------------------------------------------

APP, EXP = "MSAP-synthetic", "e2ebench"
MSA_EVENTS = ("main", "pairwise_outer_loop", "sw_align_inner_loop",
              "guide_tree", "progressive_alignment")


def msa_shaped_trial(name: str, events: int, threads: int, rng):
    """A synthetic trial shaped like an MSAP profile.

    The inner alignment loop carries a seeded triangular imbalance (as a
    static schedule gives it); the other ``events - 5`` regions are
    filler with lognormal noise.  Only ``TIME`` is stored, as the
    load-balance diagnosis reads only that metric.
    """
    import numpy as np

    from repro.perfdmf import TrialBuilder

    names = list(MSA_EVENTS) + [f"msa_region_{i:03d}"
                                for i in range(events - len(MSA_EVENTS))]
    skew = 1.0 + rng.uniform(0.5, 2.0) * np.linspace(0.0, 1.0, threads)
    exc = rng.lognormal(mean=3.0, sigma=0.3, size=(events, threads))
    exc[2] = rng.uniform(2e5, 4e5) * skew          # sw_align_inner_loop
    exc[1] = exc[2].max() - exc[2] + rng.uniform(10, 20, threads)
    exc[0] = rng.uniform(50, 100, threads)
    inc = exc.copy()
    inc[1] = exc[1] + exc[2]
    inc[0] = exc.sum(axis=0)
    meta = {"application": "MSAP", "schedule": "static",
            "threads": threads, "sequences": events}
    return (
        TrialBuilder(name, meta)
        .with_events(names)
        .with_threads(threads)
        .with_metric("TIME", exc, inc, units="usec")
        .with_calls(np.ones_like(exc), np.zeros_like(exc))
        .build()
    )


def recommendations_payload(harness) -> list[dict]:
    """The diagnosis as plain data, for comparing against a service job."""
    from repro.knowledge import recommendations_of

    return [{"category": r.category, "event": r.event,
             "severity": r.severity, "message": r.message}
            for r in recommendations_of(harness)]


class ServedDiagnose(Workload):
    """Upload, diagnose (miss), re-diagnose (hit), delete -- per cycle.

    One ``SocketClient`` over a unix socket to an in-process
    ``AnalysisService`` with 2 thread workers and a file repository.
    Trial shapes come from a fixed grid spanning 50-100 events x
    64-192 threads, one shape per cycle, so every round of cycles has
    the same working-set mix whatever the seed; the seed sets the values
    and the order.  Each cycle's trial has a unique ``cycle`` metadata
    key, so its content hash -- and its cache key -- is new, while its
    values (and hence its diagnosis) repeat per shape.
    """

    name = "served-diagnose"
    SHAPES = ((50, 192), (67, 144), (83, 115), (100, 64))
    TINY_SHAPES = ((8, 8), (12, 16))

    def setup(self) -> None:
        import numpy as np

        from repro.serve import AnalysisService, SocketClient
        from repro.serve.protocol import ServeServer

        shapes = list(self.TINY_SHAPES if self.tiny else self.SHAPES)
        self.rng.shuffle(shapes)
        self.shapes = shapes
        self.round_length = len(shapes)
        np_rng = np.random.default_rng(self.seed)
        self.base = [msa_shaped_trial("base", e, t, np_rng)
                     for e, t in shapes]
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.service = AnalysisService(
            db_path=str(self.work_dir / "served.db"), workers=WORKERS,
            mode="thread", default_timeout=60.0).start()
        # A relative socket path keeps clear of the 108-byte limit on
        # unix socket addresses, whatever the checkout's location.
        sock = self.work_dir / "serve.sock"
        try:
            sock = sock.relative_to(Path.cwd())
        except ValueError:
            pass
        self.endpoint = f"unix:{sock}"
        self.server = ServeServer(self.service, self.endpoint).start()
        self.client = SocketClient(self.endpoint, timeout=60.0)
        self.cycle = 0
        self.references: dict[int, dict] = {}

    def prepare(self) -> None:
        from repro.knowledge.rulebase import diagnose_load_balance

        for k, trial in enumerate(self.base):
            harness = diagnose_load_balance(trial)
            self.references[k] = {
                "recommendations": recommendations_payload(harness),
                "firings": len(harness.engine.trace),
            }

    def _trial(self, k: int, name: str):
        trial = self.base[k].copy(name)
        trial.metadata["cycle"] = self.cycle
        return trial

    def _diagnose(self, name: str) -> dict:
        job = self.client.submit("diagnose", {
            "app": APP, "exp": EXP, "trial": name, "script": "load-balance"})
        if job["status"] not in ("done", "failed", "timeout", "cancelled"):
            job = self.client.wait(job["id"], timeout=60.0)
        return job

    def iterate(self) -> Iteration:
        k = self.cycle % len(self.shapes)
        shape = "{}x{}".format(*self.shapes[k])
        name = f"c{self.cycle:05d}"
        trial = self._trial(k, name)
        self.cycle += 1
        db = self.service.db
        ops = []
        start = time.perf_counter()
        t = _timed(db.save_trial, APP, EXP, trial)
        ops.append(Op("upload", t.seconds, not t.error, output=(k, name),
                      error=t.error, scale=t.scale, key=shape))
        for kind in ("diagnose_cold", "diagnose_warm"):
            t = _timed(self._diagnose, name)
            job = t.result
            completed = not t.error and job["status"] == "done"
            ops.append(Op(kind, t.seconds, completed, output=(k, job),
                          error=t.error or (job or {}).get("error") or "",
                          scale=t.scale, key=shape))
        t = _timed(db.delete_trial, APP, EXP, name)
        ops.append(Op("delete", t.seconds, not t.error, output=(k, name),
                      error=t.error, scale=t.scale, key=shape))
        wall = time.perf_counter() - start
        return Iteration(wall, 2, ops)

    def check(self, op: Op) -> bool:
        k, out = op.output
        if op.kind == "upload":
            return True  # proven by the diagnose jobs that read it
        if op.kind == "delete":
            return out not in self.service.db.trials(APP, EXP)
        ref = self.references[k]
        result = out.get("result") or {}
        want_hit = op.kind == "diagnose_warm"
        return (bool(out.get("cache_hit")) == want_hit
                and result.get("recommendations") == ref["recommendations"]
                and result.get("firings") == ref["firings"])

    def client_jobs(self, iterations) -> list[tuple[float, dict]]:
        return [(op.seconds, op.output[1]) for it in iterations
                for op in it.ops
                if op.kind.startswith("diagnose") and op.completed]

    def close(self) -> None:
        # Set-up may have stopped part-way; release what was started.
        for attr, method in (("client", "close"), ("server", "stop"),
                             ("service", "stop")):
            step = getattr(getattr(self, attr, None), method, None)
            if step is not None:
                with contextlib.suppress(Exception):
                    step()


# -- sweep ---------------------------------------------------------------

class Sweep(Workload):
    """``workflows.run_experiment`` over a fresh file repository.

    The spec lives in ``sweep.toml``.  A round is one sweep per seed of
    the spec (7 cases each), so a timed sweep stays short; the workload
    seed sets the order of the sweeps.  The seeds of the spec are fixed
    because the rigor loop's rerun count depends on them, and with it
    ``runs_per_s``.  The orchestrator and 2 thread workers write to the
    same file concurrently.
    """

    name = "sweep"

    def setup(self) -> None:
        from repro.experiments import ExperimentSpec
        from repro.workflows.experiment import run_experiment

        self._run_experiment = run_experiment
        data = tomllib.loads((HERE / "sweep.toml").read_text())
        seeds = list(data["factors"]["seed"])
        if self.tiny:
            data["factors"]["sequences"] = [12]
            seeds = seeds[:1]
        self.rng.shuffle(seeds)
        self.specs = []
        for seed in seeds:
            data["factors"]["seed"] = [seed]
            self.specs.append(ExperimentSpec.from_dict(data))
        self.plans = [spec.expand() for spec in self.specs]
        self.round_length = len(self.specs)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.sweeps = 0
        self.first_samples: dict[str, list[float]] = {}

    def prepare(self) -> None:
        """Each case's noise-free main time, straight from the simulator."""
        from repro.apps.msa import run_msa_trial

        self.reference: dict[str, float] = {}
        for plan in self.plans:
            for case in plan.cases:
                f = case.factors
                if f["schedule"] == "runtime":
                    continue
                trial = run_msa_trial(
                    n_sequences=int(f["sequences"]),
                    n_threads=int(f["threads"]),
                    schedule=str(f["schedule"]), seed=int(f["seed"])).trial
                self.reference[case.key] = float(trial.inclusive_array(
                    "TIME")[trial.event_index("main")].mean())

    def iterate(self) -> Iteration:
        k = self.sweeps % len(self.specs)
        path = self.work_dir / f"sweep{self.sweeps:04d}.db"
        self.sweeps += 1
        t = _timed(self._run_experiment, self.specs[k], db_path=str(path),
                   workers=WORKERS, mode="thread")
        result = t.result
        op = Op("sweep", t.seconds, not t.error, output=(k, path, result),
                error=t.error, scale=t.scale, key=f"seed{k}")
        it = Iteration(t.seconds, 0, [op])
        if result is not None:
            it.runs = result.executed_runs
            it.cases = len(result.outcomes)
            it.cases_ok = sum(o.status in ("converged", "non-converged")
                              for o in result.outcomes)
        return it

    def check(self, op: Op) -> bool:
        k, path, result = op.output
        try:
            return self._check(k, path, result)
        finally:
            for suffix in ("", "-wal", "-shm"):
                Path(f"{path}{suffix}").unlink(missing_ok=True)

    def _check(self, k: int, path: Path, result) -> bool:
        from repro.perfdmf import PerfDMF

        if len(result.outcomes) != len(self.plans[k].cases):
            return False
        spec = self.specs[k]
        samples: dict[str, list[float]] = {}
        with PerfDMF(str(path)) as db:
            stored = set(db.trials(spec.application, spec.experiment_name))
            for outcome in result.outcomes:
                if outcome.factors["schedule"] == "runtime" \
                        and outcome.status == "failed":
                    # The known simulator defect; a later fix may make
                    # these cases succeed, which is checked like any other.
                    if "unknown schedule kind" not in (outcome.error or ""):
                        return False
                    continue
                if outcome.status not in ("converged", "non-converged"):
                    return False
                if outcome.runs < spec.rigor.min_runs \
                        or len(outcome.samples) != outcome.runs:
                    return False
                # Samples are banked in completion order, which concurrent
                # reruns do not fix; compare them as a multiset.
                values = []
                for rerun in range(outcome.runs):
                    name = f"{outcome.short}_r{rerun}"
                    if name not in stored:
                        return False
                    trial = db.load_trial(spec.application,
                                          spec.experiment_name, name)
                    values.append(float(trial.inclusive_array("TIME")[
                        trial.event_index("main")].mean()))
                if sorted(values) != sorted(outcome.samples):
                    return False
                ref = self.reference.get(outcome.case_key)
                if ref is not None and not all(
                        abs(v / ref - 1.0) < 0.25 for v in values):
                    return False
                samples[outcome.case_key] = sorted(values)
        # Every case is content-addressed, so a repeated sweep must
        # produce bit-identical samples.
        return samples == self.first_samples.setdefault(k, samples)


# -- lineage-scan --------------------------------------------------------

LINEAGE_APP, LINEAGE_EXP = "bench", "lineage"


class LineageScan(Workload):
    """``repro-perf lineage scan --json`` over a 1,000-version history.

    Versions share a seeded pool of noisy synthetic trials; from a seeded
    culprit version on they attach the 2x-slower half of the pool.  A
    round scans the whole history in windows of ``WINDOW`` comparisons
    (``--start``/``--end``), so a timed scan stays short; each adjacent
    pair is compared exactly once per round.
    """

    name = "lineage-scan"
    single_threaded = True
    VERSIONS, POOL = 1000, 16
    TINY_VERSIONS, TINY_POOL = 40, 4
    WINDOW = 25

    def setup(self) -> None:
        import numpy as np

        from repro.experiments import run_synthetic_trial
        from repro.lineage import LineageStore
        from repro.perfdmf import PerfDMF

        n = self.TINY_VERSIONS if self.tiny else self.VERSIONS
        pool = self.TINY_POOL if self.tiny else self.POOL
        self.versions = n
        self.windows = [(a, min(a + self.WINDOW, n - 1))
                        for a in range(0, n - 1, self.WINDOW)]
        self.round_length = len(self.windows)
        self.scans = 0
        self.culprit = self.rng.randrange(n // 5, 4 * n // 5)
        self.culprit_id = f"v{self.culprit:04d}"
        np_rng = np.random.default_rng(self.seed)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.db_path = str(self.work_dir / "lineage.db")
        with PerfDMF(self.db_path) as db:
            for label, scale in (("fast", 1.0), ("slow", 2.0)):
                for i in range(pool):
                    trial = run_synthetic_trial(
                        scale=scale, noise=0.005, rng=np_rng,
                        name=f"{label}_{i}")
                    db.save_trial(LINEAGE_APP, LINEAGE_EXP, trial)
            store = LineageStore(db)
            parent = None
            for i in range(n):
                vid = f"v{i:04d}"
                store.record(vid, parents=[parent] if parent else [])
                label = "slow" if i >= self.culprit else "fast"
                store.attach_trial(vid, LINEAGE_APP, LINEAGE_EXP,
                                   f"{label}_{i % pool}")
                parent = vid

    def iterate(self) -> Iteration:
        w = self.scans % len(self.windows)
        self.scans += 1
        start, end = self.windows[w]
        t = _timed(_cli, ["lineage", "scan", "--db", self.db_path, "--json",
                          "--start", f"v{start:04d}", "--end", f"v{end:04d}"])
        # exit 1 means "a step regressed", which the seeded culprit makes
        # the expected answer in its window; the check judges the payload.
        completed = not t.error and t.result[0] in (0, 1)
        op = Op("scan", t.seconds, completed,
                output=(w, *(t.result or (None, ""))), error=t.error,
                scale=t.scale, key=f"v{start:04d}")
        return Iteration(t.seconds, end - start, [op])

    def check(self, op: Op) -> bool:
        w, rc, text = op.output
        try:
            payload = json.loads(text)
        except ValueError:
            return False
        start, end = self.windows[w]
        comparisons = payload.get("comparisons", [])
        regressed = [c["version"] for c in comparisons
                     if c.get("verdict") == "regressed"]
        if len(comparisons) != end - start:
            return False
        if not start < self.culprit <= end:
            return (rc == 0 and regressed == []
                    and payload.get("first_bad") is None)
        return (rc == 1
                and regressed == [self.culprit_id]
                and payload.get("first_bad") == self.culprit_id
                and any(self.culprit_id in r.get("message", "")
                        for r in payload.get("recommendations", [])))


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Paper, ServedDiagnose, Sweep, LineageScan)
}
