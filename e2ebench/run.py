#!/usr/bin/env python3
"""End-to-end benchmark of the analyzer: paper, served-diagnose, sweep,
lineage-scan.

    python3 e2ebench/run.py --workload paper --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the analyzer is imported from ``src/``
of that checkout and nothing is installed.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` is a separate
run that wraps public functions from outside and reports the per-layer
metrics (see tracer.py).  Either way the human-readable record comes
first and the last line of standard output is one JSON object::

    {"correct": true, "attempted": 40, "failed": 0,
     "metrics": {"runs_per_s": {"value": 1.9, "unit": "1/s"}, ...}}

``--record FILE`` also writes the full run record (machine fingerprint,
sample counts, tail percentiles, per-thread trace balance) as JSON.
``--dogfood DB`` (traced runs only) stores the traced run as a PerfDMF
trial and records it in a LineageStore under the git commit.

All files live under ``.bench_work/`` in the checkout and are removed
when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import faulthandler
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Share of the measured time given to fresh-interpreter set-ups.  They
#: are interleaved with the measured rounds, so that both sample the
#: host over the whole run.
SETUP_SHARE = 0.2
#: Fewest set-ups timed per run (after one discarded warm-up).
MIN_SETUPS = 5
#: Hard stop: the run must end within 180 s whatever hangs.
DEADLINE_S = 175


def _die(message: str) -> None:
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def lower_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


# -- set-up timing -------------------------------------------------------

def spawn_setup(args, work: Path, *,
                importtime: bool = False) -> tuple[float, str]:
    """Time one fresh-interpreter set-up: spawn to "ready".

    Returns (seconds, ``-X importtime`` text or "")."""
    work.mkdir(parents=True, exist_ok=True)
    err_path = work / "stderr.txt"
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--work", str(work)]
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=err, text=True)
        try:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    text = err_path.read_text()
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child failed ({proc.returncode}): "
                           f"{text[-2000:]}")
    return seconds, text if importtime else ""


def import_seconds(text: str) -> dict[str, float]:
    """Self import time of ``repro`` modules vs everything else."""
    repro = deps = 0.0
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)", line)
        if not m:
            continue
        seconds = int(m.group(1)) / 1e6
        if m.group(2).split(".")[0] == "repro":
            repro += seconds
        else:
            deps += seconds
    return {"import.repro_s": repro, "import.deps_s": deps}


class SetupTimer:
    """Fresh-interpreter set-ups, timed in turns between measured rounds.

    ``samples`` are at the reference speed (see ``workloads.host_scale``),
    ``raw`` as the clock read them."""

    def __init__(self, args, work: Path):
        self.args, self.work = args, work
        self.samples: list[float] = []
        self.raw: list[float] = []
        spawn_setup(args, work / "setup-warm")  # discarded

    def spawn(self) -> None:
        from workloads import host_scale

        before = host_scale()
        seconds, _ = spawn_setup(self.args,
                                 self.work / f"setup-{len(self.samples)}")
        self.raw.append(seconds)
        self.samples.append(seconds * (before + host_scale()) / 2)

    def keep_up(self, round_seconds: float) -> None:
        """Set up at least once, and until set-ups have had their share."""
        self.spawn()
        while sum(self.raw) < SETUP_SHARE * round_seconds:
            self.spawn()


# -- judging -------------------------------------------------------------

class Tally:
    """Attempted / failed / wrong operations, and ok_share's parts."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.wrong = 0
        self.ok_units = self.units = 0
        self.errors: list[str] = []

    def judge(self, wl, it) -> None:
        ok_ops = 0
        for op in it.ops:
            self.attempted += 1
            if not op.completed:
                self.failed += 1
                self.errors.append(f"{op.kind}: {op.error}"[:300])
            elif not wl.check(op):
                self.wrong += 1
                self.errors.append(f"{op.kind}: wrong output")
            else:
                ok_ops += 1
        if it.cases:
            # Per-case success, counted only when the op itself checked out.
            self.units += it.cases
            self.ok_units += it.cases_ok if ok_ops == len(it.ops) else 0
        else:
            self.units += len(it.ops)
            self.ok_units += ok_ops

    @property
    def ok_share(self) -> float:
        return self.ok_units / self.units if self.units else 0.0


def op_percentiles(iterations) -> dict[str, dict[str, float]]:
    by_kind: dict[str, list[float]] = {}
    for it in iterations:
        for op in it.ops:
            by_kind.setdefault(op.kind, []).append(op.seconds)
    return {kind: {"n": len(v), "p50": statistics.median(v),
                   "p90": statistics.quantiles(v, n=10, method="inclusive")[8]
                   if len(v) > 1 else v[0], "max": max(v)}
            for kind, v in sorted(by_kind.items())}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- untraced run --------------------------------------------------------

def one_round(wl, number: int = 0) -> tuple[list, float]:
    """One whole round of iterations, and its summed wall.

    A single-threaded workload runs each iteration on one CPU, taking
    the CPUs in turn and starting one further on each round, so every
    input is timed on every CPU: a neighbour that slows one CPU for a
    while then reaches only part of each input's samples.
    """
    cpus = sorted(os.sched_getaffinity(0))
    batch = []
    try:
        for i in range(wl.round_length):
            if wl.single_threaded:
                os.sched_setaffinity(0, {cpus[(i + number) % len(cpus)]})
            batch.append(wl.iterate())
    finally:
        os.sched_setaffinity(0, cpus)
    return batch, sum(it.wall for it in batch)


def measure(wl, seconds: float,
            setups: SetupTimer | None = None) -> tuple[Tally, dict, dict]:
    """Set up in-process, warm up, then measure whole rounds (and, in
    turns with them, fresh-interpreter set-ups) for ``seconds``."""
    tally = Tally()
    wl.setup()
    wl.prepare()
    tally.judge(wl, wl.iterate())  # warm-up: checked, not timed
    iterations: list = []
    round_seconds = 0.0
    start = time.perf_counter()
    rounds = 0
    while not iterations or time.perf_counter() - start < seconds or (
            setups is not None and len(setups.samples) < MIN_SETUPS):
        batch, wall = one_round(wl, rounds)
        rounds += 1
        round_seconds += wall
        for it in batch:
            tally.judge(wl, it)
        iterations.extend(batch)
        if setups is not None:
            setups.keep_up(round_seconds)
    walls = [it.wall for it in iterations]
    by_input: dict[str, list[float]] = {}
    for it in iterations:
        for op in it.ops:
            by_input.setdefault(f"{op.kind}@{op.key}", []).append(
                op.seconds * op.scale)
    # Every input comes once per round: the round at reference speed is
    # the sum of each input's lower quartile at reference speed.  Scaling
    # takes out the host's slow spells; what is left are bursts inside
    # an operation that the loop around it missed, and they only add.
    ref_round = sum(map(lower_quartile, by_input.values()))
    runs_per_round = sum(it.runs for it in iterations) / rounds
    metrics = {
        "wall_s": (_median(walls), len(walls)),
        "runs_per_s": (runs_per_round / ref_round,
                       sum(map(len, by_input.values()))),
        "ref_round_s": (ref_round, rounds),
    }
    return tally, metrics, op_percentiles(iterations)


# -- traced run ----------------------------------------------------------

class LayerProbe:
    """Counts the traced run gathers through wrapper hooks."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.jobs: list = []
        self.firings = 0
        self.summaries: list[dict] = []
        self.live: dict[str, dict[tuple, int]] = {}
        self.bytes_per_value: list[float] = []

    def hooks(self) -> dict:
        return {
            "serve.submit": lambda a, k, job: self.jobs.append(job),
            "rules.run": self._firings,
            "experiments.orchestrator":
                lambda a, k, result: self.summaries.append(result.summary()),
            "perfdmf.save": self._saved,
            "perfdmf.delete": self._deleted,
        }

    def _firings(self, args, kwargs, result) -> None:
        with self.lock:
            self.firings += int(result)

    def _saved(self, args, kwargs, result) -> None:
        db, app, exp, trial = args[:4]
        values = trial.event_count * trial.thread_count * (
            2 * len(trial.metrics) + 2)
        with self.lock:
            live = self.live.setdefault(db.path, {})
            live[(app, exp, trial.name)] = values
            stored = sum(live.values())
        try:
            conn = db.connection
            pages = conn.execute("PRAGMA page_count").fetchone()[0]
            free = conn.execute("PRAGMA freelist_count").fetchone()[0]
            size = conn.execute("PRAGMA page_size").fetchone()[0]
        except Exception:  # a repository that is not one sqlite file
            return
        with self.lock:
            self.bytes_per_value.append((pages - free) * size / stored)

    def _deleted(self, args, kwargs, result) -> None:
        db, app, exp, name = args[:4]
        with self.lock:
            self.live.get(db.path, {}).pop((app, exp, name), None)


def traced_metrics(wl, tracer, probe: LayerProbe, rounds: int,
                   traced_walls: list[float], base_walls: list[float],
                   iterations) -> dict[str, float]:
    layers = tracer.folded.layers

    def self_s(*names: str) -> float:
        return sum(layers[n].self_s for n in names if n in layers) / rounds

    def calls(name: str) -> float:
        return (layers[name].calls if name in layers else 0) / rounds

    m: dict[str, float] = {}
    for target in ("fig4a", "fig4b", "fig5a", "fig5b", "table1"):
        m[f"cli.reproduce_{target}_s"] = self_s(f"cli.reproduce_{target}")
    for layer in ("apps.msa", "apps.genidlest", "openuh.compile",
                  "power.measure", "perfdmf.delete", "knowledge.diagnose",
                  "rules.run", "serve.submit", "experiments.state",
                  "experiments.assess", "lineage.store", "lineage.diagnose"):
        m[f"{layer}_s"] = self_s(layer)
    for layer in ("runtime.execute_work", "machine.counter_add",
                  "machine.cache_access", "perfdmf.save", "perfdmf.hash",
                  "perfdmf.load", "regress.compare"):
        m[f"{layer}_s"] = self_s(layer)
        m[f"{layer}_calls"] = calls(layer)
    m["perfdmf.bytes_per_value"] = _median(probe.bytes_per_value)
    m["rules.firings"] = probe.firings / rounds

    jobs = probe.jobs
    queued = [j.queue_wait for j in jobs
              if not j.cache_hit and j.queue_wait is not None]
    executed = [j.exec_seconds for j in jobs if j.exec_seconds is not None]
    m["serve.queue_wait_p50_s"] = _median(queued)
    m["serve.exec_p50_s"] = _median(executed)
    m["serve.client_overhead_p50_s"] = _median([
        client - (job.get("queue_wait") or 0.0)
        - (job.get("exec_seconds") or 0.0)
        for client, job in wl.client_jobs(iterations)])
    m["serve.cache_hit_ratio"] = (
        sum(1 for j in jobs if j.cache_hit) / len(jobs) if jobs else 0.0)
    m["serve.retries"] = sum(max(j.attempts - 1, 0) for j in jobs) / rounds
    m["serve.failed_jobs"] = sum(
        1 for j in jobs if j.status != "done") / rounds

    m["experiments.orchestrator_self_s"] = self_s("experiments.orchestrator")
    executed_runs = sum(s["executed_runs"] for s in probe.summaries)
    m["experiments.executed_runs"] = executed_runs / rounds
    m["experiments.rerun_share"] = (
        sum(s["reruns"] for s in probe.summaries) / executed_runs
        if executed_runs else 0.0)
    m["regress.compare_s"] = self_s("regress.compare")
    m["lineage.scan_self_s"] = self_s("lineage.scan")

    m["trace.coverage"] = tracer.coverage()
    m["trace.overhead_share"] = _median(traced_walls) / _median(
        base_walls) - 1.0
    m["trace.wall_s"] = tracer.wall / rounds
    return m


def measure_traced(wl, seconds: float, args, work: Path, *,
                   dogfood: str | None = None) -> tuple[Tally, dict, dict]:
    """Set up, warm up, then alternate untraced and traced rounds.

    The wrappers are bound for the traced rounds only; the untraced
    rounds in between are the base the tracing overhead is taken from,
    so both sides see the same host.  Every output is checked with the
    same checks as in an untraced run, after the wrappers are removed.
    """
    from tracer import Tracer, leftover_wrappers

    tally = Tally()
    wl.setup()
    wl.prepare()
    tally.judge(wl, wl.iterate())  # warm-up
    _, importtime = spawn_setup(args, work / "setup-importtime",
                                importtime=True)
    probe = LayerProbe()
    tracer = Tracer(probe.hooks())
    kept: list | None = [] if dogfood else None
    iterations: list = []
    base_walls: list[float] = []
    traced_walls: list[float] = []
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        batch, wall = one_round(wl)
        base_walls.append(wall)
        for it in batch:
            tally.judge(wl, it)
        tracer.install()
        try:
            batch, wall = one_round(wl)
        finally:
            tracer.uninstall()
        tracer.fold(keep=kept if not traced_walls else None)
        traced_walls.append(wall)
        for it in batch:
            tally.judge(wl, it)
        iterations.extend(batch)
    rounds = len(traced_walls)
    metrics = import_seconds(importtime)
    metrics.update(traced_metrics(wl, tracer, probe, rounds, traced_walls,
                                  base_walls, iterations))
    balance = tracer.thread_balance()
    extra = {
        "rounds": rounds,
        "base_rounds": len(base_walls),
        "spans": tracer.folded.spans,
        "missing_targets": tracer.missing,
        "leftover_wrappers": leftover_wrappers(),
        "balance": {str(k): v for k, v in balance.items()},
        "balance_max_error": max((b["error"] for b in balance.values()),
                                 default=0.0),
        "layers": {name: {"self_s": t.self_s / rounds,
                          "calls": t.calls / rounds}
                   for name, t in sorted(tracer.folded.layers.items())},
    }
    if dogfood:
        from dogfood import store_run

        extra["dogfood"] = store_run(dogfood, kept, args.workload,
                                     metadata={"seed": args.seed})
    return tally, metrics, extra


# -- entry point ---------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs for the self-test")
    p.add_argument("--record", help="also write the run record here")
    p.add_argument("--dogfood", metavar="DB",
                   help="store the traced run in this PerfDMF repository")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def use_checkout_source() -> None:
    """Import the analyzer from this checkout's ``src`` only."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _die(f"no analyzer source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        _die(f"imported repro from {repro.__file__}, not {SRC}")


def setup_only(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](Path(args.work), args.seed,
                                  tiny=args.size == "tiny")
    try:
        wl.setup()
        print("ready", flush=True)
    finally:
        wl.close()
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        use_checkout_source()
        return setup_only(args)
    faulthandler.dump_traceback_later(DEADLINE_S, exit=True)
    use_checkout_source()
    from fingerprint import cpu_times, fingerprint, steal_share
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(WORKLOADS)}")
    if args.dogfood and not args.trace:
        _die("--dogfood needs --trace 1")
    # Metric names and units come from the benchmark definition.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # SQLite and tempfile put scratch files here, inside the checkout.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(work)
    cpu_before = cpu_times()
    wl = WORKLOADS[args.workload](work / "run", args.seed,
                                  tiny=args.size == "tiny")
    setups: list[float] = []
    setups_raw: list[float] = []
    try:
        if args.trace:
            tally, metrics, extra = measure_traced(
                wl, args.seconds, args, work, dogfood=args.dogfood)
            ops = {}
        else:
            timer = SetupTimer(args, work)
            tally, e2e, ops = measure(wl, args.seconds, timer)
            setups, setups_raw = timer.samples, timer.raw
            extra = {}
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    samples: dict[str, int] = {}
    reported: dict[str, dict] = {}
    if args.trace:
        summary = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        e2e["setup_s"] = (_median(setups), len(setups))
        e2e["peak_rss_mb"] = (peak_rss_mb(), 1)
        e2e["ok_share"] = (tally.ok_share, tally.units)
        summary = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        samples = {name: n for name, (_, n) in e2e.items()}
        # Measured every run, gated by none: ``runs_per_s`` is the gated
        # per-iteration figure.
        reported = {name: {"value": value, "unit": "s"}
                    for name, (value, _) in e2e.items()
                    if name not in summary}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "fingerprint": {**fingerprint(ROOT),
                        "steal_share": steal_share(cpu_before, cpu_times())},
        "setup_samples_s": setups,
        "setup_raw_s": setups_raw,
        "metrics": summary,
        "reported": reported,
        # Traced runs: every layer metric the run computed.
        "layer_metrics": metrics if args.trace else {},
        "samples": samples,
        "ops": ops,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "errors": tally.errors[:10],
        **extra,
    }
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print_record(record)
    print(json.dumps({
        "correct": tally.failed == 0 and tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": summary,
    }))
    return 0


def print_record(record: dict) -> None:
    fp = record["fingerprint"]
    print(f"e2ebench {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} "
          f"commit={fp['commit'][:12]} nproc={fp['nproc']} "
          f"steal={fp['steal_share']}")
    for name, metric in (*record["metrics"].items(),
                         *record["reported"].items()):
        n = record["samples"].get(name)
        print(f"  {name:<34}{metric['value']:>14.6g} {metric['unit']:<6}"
              + (f" n={n}" if n is not None else "")
              + (" (not gated)" if name in record["reported"] else ""))
    for name, value in record["layer_metrics"].items():
        if name not in record["metrics"]:
            print(f"  {name:<34}{value:>14.6g} (not in BENCHMARK.json)")
    for kind, p in record["ops"].items():
        print(f"  {kind + '_p50_s':<34}{p['p50']:>14.6g} s      n={p['n']} "
              f"(p90 {p['p90']:.4g} s, max {p['max']:.4g} s)")
    print(f"  attempted={record['attempted']} failed={record['failed']} "
          f"wrong={record['wrong']}")
    for error in record["errors"]:
        print(f"  error: {error}")


if __name__ == "__main__":
    sys.exit(main())
