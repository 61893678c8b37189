"""Self-test of the benchmark at a tiny input size.

    python3 -m pytest -q e2ebench/test_e2ebench.py

Every workload runs with all checks passing, traced and untraced; a
deliberately corrupted output is counted as wrong; no wrapper stays
bound after a traced run; the per-thread trace balance holds within 1%;
counts repeat exactly; and the command refuses to run without the
analyzer's source.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout_source()

from tracer import Span, Tracer, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS, Iteration, Op, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(WORKLOADS)
#: ok_share by construction: the sweep's 1-seed plan has 7 cases, one of
#: which uses the `runtime` schedule the simulator rejects.
EXPECTED_OK_SHARE = {"sweep": 6 / 7}


@pytest.fixture
def work():
    path = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        path.parent.rmdir()


def tiny(name: str, work: Path, seed: int = 3):
    return WORKLOADS[name](work / name, seed, tiny=True)


def args_for(name: str, seed: int = 3) -> argparse.Namespace:
    return argparse.Namespace(workload=name, seed=seed, size="tiny")


def measured(wl, seconds=0.2):
    try:
        return run.measure(wl, seconds)
    finally:
        wl.close()


def traced(wl, name, work, seed=3, **kwargs):
    try:
        return run.measure_traced(wl, 0.2, args_for(name, seed), work,
                                  **kwargs)
    finally:
        wl.close()


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_passes_every_check(name, work):
    tally, metrics, ops = measured(tiny(name, work))
    assert tally.failed == 0 and tally.wrong == 0, tally.errors
    assert tally.attempted > 0
    assert tally.ok_share == pytest.approx(EXPECTED_OK_SHARE.get(name, 1.0))
    assert metrics["wall_s"][0] > 0 and metrics["runs_per_s"][0] > 0
    assert ops


class TwoInputs(Workload):
    """Two inputs per round, 3 runs each, timed on a host at half the
    reference speed (so each operation's scale is 0.5)."""

    round_length = 2

    def setup(self):
        self.n = 0

    def iterate(self):
        key = str(self.n % 2)
        self.n += 1
        seconds = {"0": 2.0, "1": 4.0}[key]
        return Iteration(seconds, 3, [Op("x", seconds, True, scale=0.5,
                                         key=key)])

    def check(self, op):
        return True


def test_runs_per_s_counts_each_input_at_reference_speed(work):
    tally, metrics, _ = measured(TwoInputs(work, 1), seconds=0.0)
    assert tally.attempted == 3  # the warm-up and one round
    # 6 runs per round over 2.0 * 0.5 + 4.0 * 0.5 reference seconds.
    assert metrics["ref_round_s"] == (3.0, 1)
    assert metrics["runs_per_s"] == (2.0, 2)
    assert metrics["wall_s"][0] == 3.0


def corrupt(op):
    """Return a copy of ``op`` whose output is wrong in a small way."""
    bad = copy.copy(op)
    out = op.output
    if op.kind.startswith("reproduce_"):
        bad.output = (out[0], out[1].replace("0", "1", 1))
    elif op.kind in ("diagnose_cold", "diagnose_warm"):
        job = copy.deepcopy(out[1])
        job["result"]["firings"] += 1
        bad.output = (out[0], job)
    elif op.kind == "sweep":
        k, path, result = out
        result = copy.deepcopy(result)
        outcome = next(o for o in result.outcomes if o.samples)
        outcome.samples[0] *= 1.5
        bad.output = (k, path, result)
    elif op.kind == "scan":
        w, rc, text = out
        payload = json.loads(text)
        payload["first_bad"] = "v0000"
        bad.output = (w, rc, json.dumps(payload))
    else:
        raise AssertionError(f"no corruption for {op.kind}")
    return bad


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_output_is_counted_wrong(name, work):
    wl = tiny(name, work)
    real = wl.iterate
    state = {"n": 0}

    def iterate():
        it = real()
        state["n"] += 1
        if state["n"] == 2:  # the first measured iteration
            # An upload is judged through the diagnoses that read it.
            i = next(i for i, op in enumerate(it.ops) if op.kind != "upload")
            ops = list(it.ops)
            ops[i] = corrupt(ops[i])
            it = dataclasses.replace(it, ops=ops)
        return it

    wl.iterate = iterate
    tally, _, _ = measured(wl)
    assert tally.wrong == 1, tally.errors
    assert tally.failed == 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_checks_outputs_and_unwraps(name, work):
    tally, metrics, extra = traced(tiny(name, work), name, work)
    assert tally.failed == 0 and tally.wrong == 0, tally.errors
    assert extra["missing_targets"] == []
    assert extra["leftover_wrappers"] == [] and leftover_wrappers() == []
    # On each thread, self times plus uncovered time make the traced wall.
    assert extra["balance_max_error"] < 0.01, extra["balance"]
    assert all(b["overlaps"] == 0 for b in extra["balance"].values())
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
    assert 0.0 < metrics["trace.coverage"] <= 1.0


def balance_error(spans, window=(0.0, 10.0)) -> float:
    """Fold hand-made spans of one thread; return the balance error."""
    tracer = Tracer()
    tracer.windows.append(window)
    tracer.spans.extend(spans)
    tracer.fold()
    (balance,) = tracer.thread_balance().values()
    return balance["error"]


def spans(*, drop_child=False, twice=False, late_end=None):
    """Window 0-10 s: root a 1-4 s holding child b 2-3 s; root c 5-9 s."""
    def span(name, start, end, parent=None):
        sp = Span(name, start, 1, parent, 1 if parent else 0)
        sp.end = end
        if parent is not None:
            parent.child += end - start
        return sp

    a = span("a", 1.0, 4.0)
    b = span("b", 2.0, 3.0, parent=a)
    c = span("c", 5.0, late_end or 9.0)
    out = [b, a, c]
    if drop_child:
        out.remove(b)
    if twice:
        out.append(c)
    return out


def test_thread_balance_holds_and_fails_on_broken_spans():
    assert balance_error(spans()) < 1e-12
    # A lost span, a span folded twice (overlapping roots) and a span
    # running past its window each break the balance.
    assert balance_error(spans(drop_child=True)) == pytest.approx(0.1)
    assert balance_error(spans(twice=True)) == pytest.approx(0.4)
    assert balance_error(spans(late_end=12.0)) == pytest.approx(0.2)


def test_layer_counts_repeat_exactly(work):
    def counted(metrics, name):
        keys = {k for k in metrics if k.endswith("_calls")}
        keys.add("experiments.executed_runs")
        if name != "sweep":
            # analyze-case diagnoses whichever rerun finished first, so
            # the sweep's firings follow the workers' timing (README).
            keys.add("rules.firings")
        return {k: metrics[k] for k in keys}

    for name in ("paper", "sweep"):
        runs = [counted(traced(tiny(name, work), name, work)[1], name)
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert any(runs[0].values())


def test_layers_predict_where_work_happens(work):
    _, paper, _ = traced(tiny("paper", work), "paper", work)
    assert paper["machine.counter_add_calls"] > 0
    assert paper["perfdmf.save_calls"] == 0
    _, served, _ = traced(tiny("served-diagnose", work),
                          "served-diagnose", work)
    assert served["serve.cache_hit_ratio"] == 0.5
    assert served["runtime.execute_work_calls"] == 0
    assert served["perfdmf.save_calls"] > 0


def test_command_prints_contract_json(work):
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "paper",
         "--seed", "5", "--seconds", "0.2", "--trace", "0",
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in last["metrics"].items():
        assert metric["unit"] == units[name] and metric["value"] > 0
    # The run cleaned up after itself.
    assert not list((ROOT / ".bench_work").glob("paper-*"))


def test_refuses_to_run_without_the_analyzer(work):
    bare = work / "bare"
    shutil.copytree(HERE, bare / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_spread_summary_flags_wide_metrics():
    import spread

    records = [{"seed": i, "failed": 0, "wrong": 0, "attempted": 1,
                "fingerprint": {"steal_share": 0.0},
                "metrics": {"wall_s": {"value": v, "unit": "s"},
                            "setup_s": {"value": 1.0 + i * 1e-3,
                                        "unit": "s"}}}
               for i, v in enumerate([1.0, 1.0, 2.0, 3.0, 1.0, 4.0])]
    bounds = {"wall_s": {"bound": 0.1}, "setup_s": {"bound": 0.25}}
    summary = spread.summarize(records, bounds)
    assert summary["flagged"] == ["wall_s"]
    setup = summary["metrics"]["setup_s"]
    assert setup["steady"] and setup["min"] == 1.0 and setup["n"] == 6


def test_spread_compare_flags_a_worse_second_median():
    import spread

    def summary(wall, rate):
        return {"workloads": {"sweep": {"metrics": {
            "wall_s": {"median": wall}, "runs_per_s": {"median": rate}}}}}

    bounds = {"wall_s": {"bound": 0.25, "better": "lower"},
              "runs_per_s": {"bound": 0.25, "better": "higher"}}
    drift = spread.compare(summary(1.0, 10.0), summary(1.3, 9.0), bounds)
    assert not drift["sweep/wall_s"]["within_bound"]  # 30% slower
    assert drift["sweep/runs_per_s"]["within_bound"]  # 10% fewer runs/s
    assert drift["sweep/runs_per_s"]["worse_by"] == pytest.approx(0.1)


def test_dogfood_history_scans_like_any_application(work, monkeypatch):
    import dogfood

    from repro.cli import main as cli_main

    db = str(work / "self.db")
    for i, commit in enumerate(("a" * 40, "b" * 40)):
        monkeypatch.setattr(dogfood, "fingerprint",
                            lambda root, c=commit: {"commit": c})
        _, _, extra = traced(tiny("paper", work, seed=i), "paper", work,
                             seed=i, dogfood=db)
        assert extra["dogfood"]["version"] == commit
    rc = cli_main(["lineage", "scan", "--db", db, "--application",
                   "repro.observe", "--experiment", "e2ebench-paper",
                   "--json"])
    assert rc in (0, 1)  # 1 only if the second run regressed
