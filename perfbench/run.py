"""The laddersand benchmark: one command for every workload.

    python3 perfbench/run.py --workload {automaton,census,dynamics} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (it needs ``src/laddersand``).
Each pass of the workload runs in a fresh single-threaded interpreter,
because the library's caches (the ``lru_cache``s of ``burning`` and
``census`` and the automaton bundles of ``measures``) start cold in every
CLI call.  Every pass of a run repeats the same operations on the same
inputs, drawn from ``--seed``; passes repeat until ``--seconds`` have
gone by.  Every time is corrected to a nominal host speed by a probe
timed between the operations (see ``pace``), and each operation is
scored by its median corrected time over the passes; ``wall_s`` and
the query percentiles are built from those medians (see
``metrics.MEANING``).  The passes must agree on their operations and
work done; a difference is a wrong answer.

With ``--trace 0`` the run reports the end-to-end metrics listed in
``BENCHMARK.json``.  With ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics from the traced ones,
with the tracing overhead.  Human-readable lines come first; the last
line of standard output is the JSON result.  The run's record, with its
environment, per-pass data and cache statistics, goes to
``.perfbench/results/``; the spans of traced passes to
``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

MIN_PASSES = 3
DEADLINE_S = 165  # the whole run stays under three minutes


def environment(root: Path, numpy_version) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(root),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((root / "src").rglob("*.py"))),
    }


def git_commit(root: Path):
    """The checked-out commit, read from ``.git`` without running git;
    None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, root: Path, workload: str, tiny: bool):
        self.root = root
        self.workload = workload
        self.tiny = tiny
        self.out_dir = root / ".perfbench"
        self.started = time.monotonic()
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env["PYTHONHASHSEED"] = "0"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            self.env[var] = "1"

    def spawn(self, seed: int, *flags: str) -> dict:
        """One fresh interpreter; returns its JSON report."""
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "workloads.py"),
               "--workload", self.workload, "--seed", str(seed),
               "--spawned", repr(spawned), "--out-dir", str(self.out_dir), *flags]
        if self.tiny:
            cmd.append("--tiny")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, text=True,
                                  capture_output=True, timeout=max(remaining, 1))
        except subprocess.TimeoutExpired:
            return {"correct": False, "error": "pass timed out"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"correct": False,
                    "error": f"pass exited {proc.returncode}: {proc.stderr[-2000:]}"}
        return json.loads(lines[-1])


def typical(passes: list[dict]) -> dict[str, float]:
    """Each operation's median time over the passes."""
    return {key: statistics.median(p["times"][key] for p in passes)
            for key in passes[0]["times"]}


def aggregate_end_to_end(passes: list[dict]) -> dict:
    op = typical(passes)
    first = passes[0]
    lat = [op[key] * 1e3 for key in first["queries"]]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": sum(op.values()),
        "first_result_s": statistics.median(p["first_result_s"] for p in passes),
        "query_p50_ms": statistics.median(lat),
        "query_p95_ms": statistics.quantiles(lat, n=20, method="inclusive")[-1],
        "work_per_s": first["work"] / sum(op[key] for key in first["work_keys"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def aggregate_per_layer(plain: list[dict], traced: list[dict]) -> dict:
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in PER_LAYER if not name.startswith("trace.overhead")}
    base = sum(typical(plain).values())
    overhead = sum(typical(traced).values()) - base
    out["trace.overhead_s"] = overhead
    out["trace.overhead_frac"] = overhead / base
    return out


def agree(passes: list[dict]) -> bool:
    """Passes of one seed run the same operations and do the same work."""
    def shape(p):
        return (list(p["times"]), p["queries"], p["work"], p["work_keys"],
                p["attempted"], p["refused"])
    return all(shape(p) == shape(passes[0]) for p in passes[1:])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="laddersand benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="path2-sized inputs: checks the harness, measures "
                         "nothing useful")
    args = ap.parse_args(argv)
    # turn a SIGTERM into an exception, so subprocess.run kills and reaps the
    # pass that is running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "laddersand" / "__init__.py").is_file():
        print("perfbench: run from the root of a laddersand checkout "
              "(src/laddersand not found)", file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.tiny)
    passes: list[dict] = []
    t0 = time.monotonic()
    while True:
        enough = time.monotonic() - t0 >= args.seconds and len(passes) >= MIN_PASSES
        if enough or time.monotonic() - runner.started > DEADLINE_S / 2:
            break
        # a traced run interleaves traced and untraced passes, so their
        # difference is the tracing overhead
        traced = args.trace == 1 and len(passes) % 2 == 1
        result = runner.spawn(args.seed, *(("--trace",) if traced else ()))
        result["traced"] = traced
        passes.append(result)
        if not result.get("correct"):
            break

    bad = [p for p in passes if not p.get("correct")]
    if not bad and not agree(passes):
        bad.append({"error": "gate: passes of one seed differ in their operations "
                             "or work done"})
    correct = not bad and len(passes) >= MIN_PASSES
    attempted = sum(p.get("attempted", 0) for p in passes)
    refused = sum(p.get("refused", 0) for p in passes)
    # a pass that crashed or timed out failed an operation; a gate failure
    # is a wrong answer and makes the run incorrect instead
    failed = sum(1 for p in passes
                 if p.get("error") and not p["error"].startswith("gate:"))

    metrics: dict = {}
    if correct:
        if args.trace:
            values = aggregate_per_layer([p for p in passes if not p["traced"]],
                                         [p for p in passes if p["traced"]])
            table = PER_LAYER
        else:
            values = aggregate_end_to_end(passes)
            table = END_TO_END
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in table.items()}

    env = environment(root, passes[0].get("numpy") if passes else None)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              "environment": env, "passes": passes,
              "metrics": metrics}
    results = runner.out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    queries = sum(len(p.get("queries", ())) for p in passes)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} queries={queries} "
          f"(distinct, each at its median: {len(passes[0].get('queries', ()))})")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  ops attempted={attempted} refused={refused} "
          f"ops_failed_frac={refused / attempted if attempted else 0.0:.6g} "
          "(refused: typed FeasibilityError from renewal_quantities)")
    for p in bad:
        print(f"  FAILED: {p.get('error')}")
    print("  env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
