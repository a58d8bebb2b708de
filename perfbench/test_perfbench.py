"""Smoke tests of the benchmark harness itself, on tiny inputs.

They check that every workload runs, emits each named metric with its
unit, and that its correctness gates fire on a wrong answer.  They
measure nothing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import laddersand.cli  # noqa: F401  (binds its imports before a test patches them)

import gates
import pace
import run
import workloads
from metrics import END_TO_END, MEANING, MOVES, PER_LAYER, WORKLOADS
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def run_bench(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_metric_has_a_meaning_or_a_target():
    assert set(MEANING) == set(END_TO_END)
    assert set(MOVES) == set(PER_LAYER)
    for target, workload in MOVES.values():
        assert target in END_TO_END and workload in WORKLOADS
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc = run_bench(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == table
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "census", 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def _pass_args(tmp_path, workload, trace=False):
    return argparse.Namespace(workload=workload, seed=5, spawned=0.0,
                              out_dir=str(tmp_path), trace=trace, tiny=True)


@pytest.mark.parametrize("workload, module, name, corrupt", [
    ("census", "census", "count_series",
     lambda r: type(r)(r.variant, r.values[:-1] + (r.values[-1] + 1,),
                       r.provenance, r.graph_name)),
    ("automaton", "measures", "cylinder_prob",
     lambda r: type(r)(r.value + 1e-3, r.method, r.valid, r.detail)
     if r.method == "finite_dp" else r),
    ("dynamics", "toppling", "rung_zero_blast",
     lambda r: (r[0], type(r[1])(r[1].window, r[1].counts + 1, r[1].grains_to_sink))),
])
def test_gates_catch_a_wrong_answer(tmp_path, monkeypatch, workload, module, name,
                                    corrupt):
    lib_module = __import__(f"laddersand.{module}", fromlist=[name])
    original = getattr(lib_module, name)
    monkeypatch.setattr(lib_module, name, lambda *a, **k: corrupt(original(*a, **k)))
    result = workloads.run_pass(_pass_args(tmp_path, workload))
    assert result["correct"] is False and result["error"].startswith("gate:")


def test_a_failing_cli_command_is_a_wrong_answer(tmp_path, monkeypatch):
    import laddersand.cli as cli
    monkeypatch.setattr(cli, "main", lambda argv: 3)
    result = workloads.run_pass(_pass_args(tmp_path, "dynamics"))
    assert result["correct"] is False and result["error"].startswith("gate: CLI")


def test_operations_are_scored_by_their_median_pass():
    def one_pass(build, query_a, query_b, setup):
        return {"times": {"build#0": build, "query#0": query_a, "query#1": query_b},
                "queries": ["query#0", "query#1"], "work": 2,
                "work_keys": ["query#0", "query#1"], "attempted": 3, "refused": 0,
                "setup_s": setup, "first_result_s": 1.0 + setup, "peak_rss_mb": 50.0}
    passes = [one_pass(3.0, 0.010, 0.030, 0.2), one_pass(2.0, 0.020, 0.040, 0.4),
              one_pass(2.5, 0.015, 0.020, 0.3)]
    assert run.agree(passes)
    m = run.aggregate_end_to_end(passes)
    assert m["wall_s"] == pytest.approx(2.5 + 0.015 + 0.030)
    assert m["query_p50_ms"] == pytest.approx(22.5)
    assert m["work_per_s"] == pytest.approx(2 / 0.045)
    assert m["setup_s"] == pytest.approx(0.3) and m["first_result_s"] == pytest.approx(1.3)
    passes[1]["work"] = 3
    assert not run.agree(passes)


def test_times_are_corrected_by_the_probes_around_them(tmp_path):
    p = workloads.Pass(0.0, tmp_path, "t")
    p.probes = [pace.NOMINAL_S, 2 * pace.NOMINAL_S, 3 * pace.NOMINAL_S]
    p.times = {"a#0": 1.0, "b#0": 1.0}
    p._around = {"a#0": (0, 0), "b#0": (1, 2)}
    assert p.corrected() == pytest.approx({"a#0": 1.0, "b#0": 0.4})
    p._probed_at = [0.0, workloads.START_PROBES_S / 2, workloads.START_PROBES_S * 2]
    assert p.at_nominal(3.0) == pytest.approx(2.0)


def test_traced_pass_reports_layers_and_restores_the_library(tmp_path):
    import laddersand.census as census
    import laddersand.measures as measures
    before = (census.full_burnable, census.count_series, measures.build_coding)
    result = workloads.run_pass(_pass_args(tmp_path, "census", trace=True))
    assert result["correct"] is True, result["error"]
    assert set(result["layers"]) == {n for n in PER_LAYER
                                     if not n.startswith("trace.overhead")}
    assert result["layers"]["burning.full_burnable.calls"] > 0
    assert (census.full_burnable, census.count_series, measures.build_coding) == before


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1, None], ["inner", 1.0, 4.0, 0, None],
                    ["leaf", 2.0, 3.0, 1, "FeasibilityError"]]
    agg = tracer.summary()
    assert agg["outer"]["self_s"] == 7.0 and agg["inner"]["self_s"] == 2.0
    assert agg["leaf"]["failed"] == 1


def test_matrix_tree_counts_match_known_values():
    from laddersand.graphs import builtin_graph, laplacian_entry
    path2 = builtin_graph("path2")
    assert [gates.recurrent_count(path2, n, laplacian_entry)
            for n in range(1, 5)] == [8, 45, 224, 1045]
    cycle3 = builtin_graph("cycle3")
    assert [gates.recurrent_count(cycle3, n, laplacian_entry)
            for n in range(1, 4)] == [50, 1728, 52900]
    assert gates.exact_det([[0, 1], [1, 0]]) == -1
