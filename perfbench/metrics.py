"""The benchmark's metrics.

Workload names and every metric's name, unit, direction and bound live in
``BENCHMARK.json`` at the repository root, the one place they are
written.  This module reads them from there and adds what that file has
no room for: what each end-to-end metric means (``MEANING``) and, for
each per-layer metric, the end-to-end metric it should move and the
workload where it does (``MOVES``), so that a later change can cite its
claim by name.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Every timing is corrected to the nominal host speed of ``pace`` and is
# the median over the run's passes, which repeat the same operations on
# the same inputs.
MEANING = {
    "setup_s": "interpreter start, imports and graph construction up to the "
               "first workload call; median over the run's passes",
    "wall_s": "one pass of the workload excluding set-up and the correctness "
              "gates: the sum over its operations of each one's median time",
    "first_result_s": "a cold CLI command, from spawning the interpreter to its "
                      "output file being written; median over the passes",
    "query_p50_ms": "median over the workload's repeated queries of each one's "
                    "median latency: cylinder_prob (automaton), boundary_layer "
                    "(census), a blast under the canonical or a random schedule "
                    "(dynamics)",
    "query_p95_ms": "95th percentile of the same latencies (on automaton "
                    "among the finite_dp queries)",
    "work_per_s": "work over the median time of the operations doing it: "
                  "cylinder queries answered (automaton), windows counted by "
                  "count_series (census), topplings in blasts (dynamics)",
    "peak_rss_mb": "peak resident set of a pass's interpreter; median over passes",
}

# per-layer metric -> (end-to-end metric it should move, workload where it moves)
MOVES = {
    "burning.full_burnable.calls": ("wall_s", "census"),
    "burning.full_burnable.s": ("wall_s", "census"),
    "burning.full_burnable.us_per_call": ("work_per_s", "census"),
    "burning.leftmost_schedule.calls": ("wall_s", "census"),
    "burning.leftmost_schedule.s": ("work_per_s", "census"),
    "burning.left_burnable.calls": ("query_p50_ms", "dynamics"),
    "burning.left_burnable.s": ("query_p50_ms", "dynamics"),
    "burning.right_burnable.s": ("query_p50_ms", "census"),
    "burning.advance_rung_state.calls": ("first_result_s", "automaton"),
    "burning.advance_rung_state.s": ("first_result_s", "automaton"),
    "burning.rung_burn.hits": ("first_result_s", "automaton"),
    "burning.rung_burn.misses": ("first_result_s", "automaton"),
    "burning.rung_burn.hit_ratio": ("first_result_s", "automaton"),
    "burning.is_rung_symbol.misses": ("setup_s", "census"),
    "census.enum_rungs.misses": ("wall_s", "census"),
    "census.single_rung_recurrent.misses": ("wall_s", "census"),
    "census.count_series.s": ("work_per_s", "census"),
    "census.count_series.self_s": ("work_per_s", "census"),
    "census.windows_counted": ("work_per_s", "census"),
    "census.iter_recurrent.s": ("wall_s", "census"),
    "census.iter_recurrent.configs": ("wall_s", "census"),
    "coding.build_coding.s": ("first_result_s", "automaton"),
    "coding.states": ("first_result_s", "automaton"),
    "coding.states_per_s": ("first_result_s", "automaton"),
    "coding.check_transitive.s": ("wall_s", "automaton"),
    "coding.spectral.s": ("first_result_s", "automaton"),
    "coding.spectral.iterations": ("first_result_s", "automaton"),
    "coding.count_words.s": ("wall_s", "automaton"),
    "measures.cylinder_prob.parry.s": ("query_p50_ms", "automaton"),
    "measures.cylinder_prob.parry.calls": ("query_p50_ms", "automaton"),
    "measures.cylinder_prob.finite_dp.s": ("query_p95_ms", "automaton"),
    "measures.cylinder_prob.finite_dp.calls": ("query_p95_ms", "automaton"),
    "measures.cylinder_prob.renewal.s": ("wall_s", "automaton"),
    "measures.renewal_quantities.s": ("wall_s", "automaton"),
    "measures.renewal_quantities.failed": ("wall_s", "automaton"),
    "measures.sample_chain_windows.samples_per_s": ("wall_s", "automaton"),
    "measures.sample_finite_exact.samples_per_s": ("wall_s", "automaton"),
    "measures.mixture_experiment.s": ("wall_s", "census"),
    "measures.mixture_experiment.self_s": ("wall_s", "census"),
    "measures.mixture_experiment.configs": ("wall_s", "census"),
    "measures.boundary_layer.calls": ("query_p50_ms", "census"),
    "measures.boundary_layer.s": ("query_p50_ms", "census"),
    # parallel blasts are not queries: their time shows in work_per_s
    **{f"toppling.stabilize.{kind}.{suffix}": (target, "dynamics")
       for kind in ("canonical", "parallel", "random")
       for suffix, target in (("s", "work_per_s" if kind == "parallel" else "query_p95_ms"),
                              ("topplings", "work_per_s"), ("topplings_per_s", "work_per_s"))},
    "toppling.check_abelian.s": ("wall_s", "dynamics"),
    "cli.main.self_s": ("first_result_s", "automaton"),
    "ops.attempted": ("wall_s", "automaton"),
    "ops.failed_frac": ("wall_s", "automaton"),
    "trace.spans": ("wall_s", "census"),
    "trace.overhead_s": ("wall_s", "census"),
    "trace.overhead_frac": ("wall_s", "census"),
}
