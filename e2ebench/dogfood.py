"""Opt-in dogfood path: the analyzer's own benchmark history in lineage.

A traced run's spans become a TAU-style PerfDMF trial through
``repro.observe.bridge.spans_to_trial`` (application ``repro.observe``,
experiment ``e2ebench-<workload>``), and the trial is attached to a
``LineageStore`` version named after the git commit, whose parent is the
newest version recorded before it.  Then

    repro-perf lineage scan --db DB --application repro.observe \\
        --experiment e2ebench-paper

scans the analyzer's own history like any application's.
"""

from __future__ import annotations

from pathlib import Path

from fingerprint import fingerprint

ROOT = Path(__file__).resolve().parent.parent


def store_run(db_path: str, spans: list, workload: str, *,
              metadata: dict | None = None) -> dict:
    """Store one round of traced spans; return where it went."""
    from repro.lineage import LineageStore
    from repro.observe.bridge import (
        SELF_APPLICATION,
        next_self_trial_name,
        spans_to_trial,
    )
    from repro.perfdmf import PerfDMF

    ids = {id(span): i for i, span in enumerate(spans, 1)}
    rows = [span.to_dict(ids) for span in spans]
    fp = fingerprint(ROOT)
    version = fp["commit"]
    experiment = f"e2ebench-{workload}"
    with PerfDMF(db_path) as db:
        name = next_self_trial_name(db, experiment)
        trial = spans_to_trial(rows, name=name, metadata={
            "source": "e2ebench", "workload": workload, **fp,
            **(metadata or {})})
        db.save_trial(SELF_APPLICATION, experiment, trial, replace=True)
        store = LineageStore(db)
        if not store.exists(version):
            tips = [t for t in store.tips() if t != version]
            store.record(version, parents=tips[-1:])
        store.attach_trial(version, SELF_APPLICATION, experiment, name)
    return {"db": db_path, "version": version, "application":
            SELF_APPLICATION, "experiment": experiment, "trial": name}
