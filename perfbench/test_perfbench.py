"""Self-tests of the benchmark at tiny sizes: ``python3 -m pytest perfbench``.

They run the real program, so each test starts a few processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import gen
import predict
import run
from harness import BENCH_DIR, ROOT
from spans import Summary

TINY = {
    "fleet_push": gen.Shape(sites=24, groups=3, products=1, candidates=6, full_share=0.2),
    "site_ops": gen.Shape(sites=20, groups=2, products=3, candidates=3, full_share=0.1, par_products=1),
}


def tiny_run(workload: str, trace: bool = False, seed: int = 7) -> run.Run:
    r = run.Run(workload, seed, 1, trace, shape=TINY[workload], work=run.WORK / f"test-{workload}")
    r.execute()
    return r


@pytest.mark.parametrize("workload", sorted(TINY))
def test_predictions_agree_with_the_program(workload):
    r = tiny_run(workload)
    assert r.attempted > 0
    assert r.failed == 0 and r.correct
    metrics = r.end_to_end()
    assert all(value > 0 for value, _unit in metrics.values())


def test_generator_is_seeded():
    a, b = gen.generate(TINY["site_ops"], 3), gen.generate(TINY["site_ops"], 3)
    assert json.dumps(a.enterprise) == json.dumps(b.enterprise)
    assert [u.manifest for u in a.units.values()] == [u.manifest for u in b.units.values()]
    assert json.dumps(gen.generate(TINY["site_ops"], 4).enterprise) != json.dumps(a.enterprise)


def test_some_sites_have_no_admissible_candidate():
    model = predict.Model(gen.generate(TINY["fleet_push"], 7))
    outcomes = [e["outcome"] for e in model.push("p0")]
    assert outcomes.count("SKIPPED") == round(0.2 * 24)


def test_wrong_push_expectation_is_a_failed_operation(monkeypatch):
    # Rank the lowest version first: the program must disagree on some site.
    monkeypatch.setattr(predict, "_rank", lambda unit: (unit.version, unit.footprint, unit.id))
    r = tiny_run("fleet_push")
    assert r.failed > 0


def test_wrong_status_expectation_is_a_failed_operation(monkeypatch):
    real = predict.Model.status
    monkeypatch.setattr(predict.Model, "status", lambda self, site: real(self, site)[1:])
    r = tiny_run("site_ops")
    assert r.failed > 0


def test_traced_run_reports_every_layer():
    r = tiny_run("fleet_push", trace=True)
    assert r.failed == 0
    metrics = run.per_layer(r)
    counted = [name for name, (_value, unit) in metrics.items() if unit in ("count", "B")]
    assert all(metrics[name][0] > 0 for name in counted)
    assert 0 < metrics["selection.admissible_ratio"][0] <= 1
    assert "trace.overhead_pct" in metrics


def test_self_time_subtracts_direct_children(tmp_path):
    # outer [0, 100] holds inner [10, 40], which holds leaf [20, 30].
    doc = {
        "names": ["outer", "inner", "leaf"],
        "name": [0, 1, 2],
        "start": [0, 10, 20],
        "end": [100, 40, 30],
        "parent": [-1, 0, 1],
        "counts": {"k": 2},
        "import_ms": 1.0,
    }
    path = tmp_path / "spans.json"
    path.write_text(json.dumps(doc))
    s = Summary()
    s.add_file(path)
    assert (s.self_ns["outer"], s.self_ns["inner"], s.self_ns["leaf"]) == (70, 20, 10)
    assert s.total_ns["outer"] == 100 and s.counts == {"k": 2}


def test_interquartile_mean_drops_the_outer_quarters():
    assert run.interquartile_mean([3.0]) == 3.0
    # Eight values: the two lowest and the two highest are dropped.
    assert run.interquartile_mean([500, 1, 9, 2, 8, 3, 7, 4]) == 5.5


def test_refuses_to_run_without_the_program():
    bare = run.WORK / "test-bare"
    if bare.exists():
        shutil.rmtree(bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_push", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
