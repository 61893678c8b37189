"""Orchestrator end-to-end: adaptive reruns, resume, determinism.

These tests drive real plans through a real in-process service — the
full run-trial → assess → rerun → analyze-case DAG — against file
repositories in ``tmp_path`` so resume semantics are exercised the way
the CI smoke job exercises them (minus the ``kill -9``).
"""

import pytest

from repro.experiments import (
    ExperimentSpec,
    ExperimentState,
    RigorPolicy,
    TERMINAL_CASE_STATUSES,
    summary_fact,
)
from repro.perfdmf import PerfDMF
from repro.workflows import run_experiment


def quiet_spec(**overrides):
    """A tiny synthetic sweep that converges fast (no injected noise)."""
    base = dict(
        name="orch", app="synthetic",
        factors={"scale": [0.5, 1.0], "threads": [2]},
        rigor=RigorPolicy(min_runs=2, max_runs=4,
                          relative_halfwidth=0.5, noise=0.0),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestEndToEnd:
    def test_sweep_converges_and_banks_state(self, tmp_path):
        db = str(tmp_path / "exp.db")
        result = run_experiment(quiet_spec(), db_path=db, workers=2)
        s = result.summary()
        assert s["cases"] == 2
        assert s["converged"] == 2
        assert s["failed"] == 0
        # Noise-free reruns are identical, so min_runs suffices.
        assert s["total_runs"] == 4 and s["reruns"] == 0
        with PerfDMF(db) as repo:
            state = ExperimentState(repo)
            run_id = state.run_id_for(quiet_spec().spec_hash)
            records = state.cases(run_id)
            assert all(r.status in TERMINAL_CASE_STATUSES for r in records)
            assert all(len(r.trials) == r.runs for r in records)
            # The trials the state points at really are in the repo.
            for rec in records:
                for name in rec.trials:
                    trial = repo.load_trial("experiments", "orch", name)
                    assert trial.metadata["case_key"] == rec.case_key

    def test_converged_cases_carry_an_analysis(self):
        result = run_experiment(quiet_spec(), workers=2)
        for outcome in result.outcomes:
            assert outcome.analysis is not None
            # Completion order varies with worker scheduling; the
            # analysis gets the reruns in rerun order regardless.
            assert outcome.analysis["trials"] == [
                f"{outcome.short}_r{n}" for n in range(outcome.runs)
            ]

    def test_analyze_false_skips_the_analysis_job(self):
        result = run_experiment(quiet_spec(), workers=2, analyze=False)
        assert all(o.analysis is None for o in result.outcomes)


class TestAdaptiveRigor:
    def test_high_variance_case_reruns_to_the_cap(self):
        # Heavy injected noise against a 1% half-width target: the
        # orchestrator must keep adding runs until max_runs, then flag
        # the case non-converged — a first-class outcome, not an error.
        spec = quiet_spec(
            name="noisy",
            factors={"scale": [1.0], "threads": [2]},
            rigor=RigorPolicy(min_runs=2, max_runs=4,
                              relative_halfwidth=0.01, noise=0.5),
        )
        result = run_experiment(spec, workers=2)
        outcome = result.outcomes[0]
        assert outcome.status == "non-converged"
        assert outcome.runs == 4  # min_runs + adaptive reruns, capped
        assert result.summary()["reruns"] == 2

        fact = result.fact()
        assert fact.fact_type == "ExperimentSummaryFact"
        assert fact["nonConverged"] == 1
        recs = result.diagnose().recommendations()
        assert any(r["category"] == "experiment-non-convergence"
                   for r in recs)

    def test_quiet_case_stops_at_min_runs(self):
        result = run_experiment(quiet_spec(), workers=2)
        assert all(o.runs == 2 for o in result.outcomes)


class TestResume:
    def test_second_run_executes_nothing(self, tmp_path):
        db = str(tmp_path / "exp.db")
        first = run_experiment(quiet_spec(), db_path=db, workers=2)
        assert first.executed_runs == 4

        again = run_experiment(quiet_spec(), db_path=db, workers=2)
        assert again.skipped == 2
        assert again.executed_runs == 0
        assert again.summary()["converged"] == 2  # outcomes still reported

    def test_crash_mid_case_resumes_from_banked_samples(self, tmp_path):
        db = str(tmp_path / "exp.db")
        spec = quiet_spec()
        run_experiment(spec, db_path=db, workers=2)
        # Simulate a crash that died after banking this case's samples
        # but before finalizing: status stuck at 'running'.
        with PerfDMF(db) as repo:
            state = ExperimentState(repo)
            run_id = state.run_id_for(spec.spec_hash)
            key = state.cases(run_id)[0].case_key
            state._exec(
                "UPDATE exp_case SET status='running' "
                "WHERE run_id=? AND case_key=?", (run_id, key),
            )
        resumed = run_experiment(spec, db_path=db, workers=2)
        # The banked samples already satisfy the policy: the case
        # concludes without executing a single new trial.
        assert resumed.skipped == 1
        assert resumed.executed_runs == 0
        assert resumed.summary()["converged"] == 2

    def test_failed_cases_are_retried_on_resume(self, tmp_path):
        db = str(tmp_path / "exp.db")
        spec = quiet_spec()
        run_experiment(spec, db_path=db, workers=2)
        with PerfDMF(db) as repo:
            state = ExperimentState(repo)
            run_id = state.run_id_for(spec.spec_hash)
            key = state.cases(run_id)[0].case_key
            state._exec(
                "UPDATE exp_case SET status='failed', samples='[]', "
                "trials='[]', runs=0 WHERE run_id=? AND case_key=?",
                (run_id, key),
            )
        resumed = run_experiment(spec, db_path=db, workers=2)
        assert resumed.skipped == 1  # the untouched case
        assert resumed.executed_runs == 2  # the failed case, re-executed
        assert resumed.summary()["failed"] == 0

    def test_summary_fact_reads_durable_rows(self, tmp_path):
        db = str(tmp_path / "exp.db")
        spec = quiet_spec()
        run_experiment(spec, db_path=db, workers=2)
        with PerfDMF(db) as repo:
            state = ExperimentState(repo)
            fact = summary_fact(state, state.run_id_for(spec.spec_hash))
        assert fact["cases"] == 2
        assert fact["converged"] == 2
        assert fact["failed"] == 0


class TestFailurePath:
    def test_impossible_metric_fails_the_case_with_the_reason(self):
        spec = quiet_spec(name="doomed", metric="PAPI_NOPE",
                          factors={"scale": [1.0], "threads": [2]})
        result = run_experiment(spec, workers=2, case_retries=0)
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert "PAPI_NOPE" in outcome.error
        assert result.summary()["failed"] == 1
        recs = result.diagnose().recommendations()
        assert any(r["category"] == "experiment-failed-cases"
                   for r in recs)


class TestDeterminism:
    def test_same_case_key_same_trial_content_hash(self):
        # The determinism contract: run-trial for the same (case_key,
        # rerun) produces bit-identical trials, wherever and whenever.
        from repro.serve import AnalysisService

        spec = quiet_spec(
            name="det",
            rigor=RigorPolicy(min_runs=1, max_runs=2,
                              relative_halfwidth=0.5, noise=0.1),
        )
        case = spec.expand().cases[0]
        params = {
            "app": spec.app, "application": spec.application,
            "experiment": spec.experiment_name, "case_key": case.key,
            "rerun": 0, "factors": dict(case.factors),
            "metric": spec.metric, "key_event": spec.key_event,
            "noise": spec.rigor.noise, "spec": spec.name,
        }
        hashes, seeds, values = [], [], []
        for _ in range(2):
            with AnalysisService(workers=1) as svc:
                job = svc.submit("run-trial", dict(params))
                assert job.wait(30.0) and job.status == "done", job.error
                hashes.append(job.result["content_hash"])
                seeds.append(job.result["seed"])
                values.append(job.result["value"])
        assert hashes[0] == hashes[1]
        assert seeds[0] == seeds[1]
        assert values[0] == pytest.approx(values[1])

    def test_different_reruns_differ_under_noise(self):
        from repro.serve import AnalysisService

        spec = quiet_spec(
            name="det2",
            rigor=RigorPolicy(min_runs=1, max_runs=2,
                              relative_halfwidth=0.5, noise=0.1),
        )
        case = spec.expand().cases[0]
        with AnalysisService(workers=1) as svc:
            results = []
            for rerun in (0, 1):
                job = svc.submit("run-trial", {
                    "app": spec.app, "application": spec.application,
                    "experiment": spec.experiment_name,
                    "case_key": case.key, "rerun": rerun,
                    "factors": dict(case.factors),
                    "metric": spec.metric, "key_event": spec.key_event,
                    "noise": spec.rigor.noise, "spec": spec.name,
                })
                assert job.wait(30.0) and job.status == "done", job.error
                results.append(job.result)
        assert results[0]["seed"] != results[1]["seed"]
        assert results[0]["content_hash"] != results[1]["content_hash"]

    def test_analyze_case_diagnoses_rerun_zero_in_any_order(self):
        # Reruns finish in worker order; the diagnosis must not follow it.
        from itertools import permutations

        from repro.serve import AnalysisService

        spec = quiet_spec(
            name="shuffled",
            factors={"scale": [1.0], "threads": [8], "imbalance": [2.0]},
            rigor=RigorPolicy(min_runs=3, max_runs=3,
                              relative_halfwidth=0.5, noise=0.2),
        )
        case = spec.expand().cases[0]
        where = {"application": spec.application,
                 "experiment": spec.experiment_name}

        def run(svc, kind, params):
            job = svc.submit(kind, {**where, **params})
            assert job.wait(30.0) and job.status == "done", job.error
            return job.result

        with AnalysisService(workers=1) as svc:
            names = [run(svc, "run-trial", {
                "app": spec.app, "case_key": case.key, "rerun": rerun,
                "factors": dict(case.factors), "noise": spec.rigor.noise,
                "spec": spec.name,
            })["trial"] for rerun in range(3)]
            alone = [run(svc, "analyze-case", {"trials": [n]})
                     for n in names]
            # The reruns really diagnose differently, so order matters.
            assert any(a["recommendations"] != alone[0]["recommendations"]
                       for a in alone[1:])
            for order in permutations(names):
                result = run(svc, "analyze-case", {"trials": list(order)})
                assert result["recommendations"] == \
                    alone[0]["recommendations"]
                assert result["trials"] == list(order)
                assert result["values"] == [
                    alone[names.index(n)]["values"][0] for n in order
                ]
