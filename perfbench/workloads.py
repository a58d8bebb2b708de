"""One pass of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/workloads.py --workload census --seed 7 \\
        --spawned <time.monotonic() at spawn> --out-dir .perfbench [--trace] [--tiny]

A pass sets up (imports and graph construction), runs the workload's
operations one by one, timing each on its own and probing the host's
speed between them (:mod:`pace`), then checks every answer against the
exact oracles in :mod:`gates`, after the timed operations.  It prints
one JSON object with the time of every operation at the nominal host
speed (keyed by the function's name and its call number within the
pass) and as measured, the probe times, which operations are queries,
the work done, cache statistics and, when traced, its per-layer metrics.

Every input is drawn from ``--seed``, so every pass with the same seed
runs the same operations on the same inputs and the caller can match
an operation across passes by its key.  The library sees only the
generated windows, events, schedules and instances.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pace  # noqa: E402
from gates import (GateError, check_conservation, close,  # noqa: E402
                   recurrent_count, require, same_avalanche)

CACHED = (("burning", "rung_burn"), ("burning", "is_rung_symbol"),
          ("census", "enum_rungs"), ("census", "single_rung_recurrent"))

# Sizes of one pass.  ``tiny`` keeps every operation and gate of the
# workload but on path2-sized inputs, for the harness's own smoke tests.
# A full pass times 1.5-2 s of operations, so that a run holds enough
# passes for each operation's median time to be a steady figure.  On
# automaton the 4 finite_dp queries are the slowest tenth of the 40, so
# query_p95_ms falls among them and query_p50_ms among the parry ones;
# the parry queries all cost about the same, so a percentile in their
# tail would only show which of them ran while the host was slowest.  On
# dynamics an odd number of windows puts the median query inside one
# window's pair of sequential blasts.
SCALES = {
    "automaton": {
        "full": dict(big="cycle4", graphs=("cycle3", "path3", "path2"), count_n=16,
                     parry=36, finite_dp=4, samples=200, exact_samples=20),
        "tiny": dict(big="path2", graphs=("path2",), count_n=6, parry=4, finite_dp=1,
                     samples=5, exact_samples=2),
    },
    "census": {
        "full": dict(cli_n=8, l_n=8, l0_graph="path3", l0_n=4, s_n=6, rec_n=5,
                     mixture=(2, 1), layer_n=4, layers=600),
        "tiny": dict(cli_n=4, l_n=5, l0_graph="path2", l0_n=4, s_n=4, rec_n=3,
                     mixture=(1,), layer_n=3, layers=5),
    },
    "dynamics": {
        "full": dict(cycle_count=20, k_lo=64, k_hi=256, windows=5, abelian=12),
        "tiny": dict(cycle_count=2, k_lo=8, k_hi=16, windows=3, abelian=2),
    },
}


# how often a pass probes the host's speed between its operations
PROBE_EVERY_S = 0.1
# the probes of the pass's first second give the host's speed at its start
START_PROBES_S = 1.0


class Pass:
    """Book-keeping of one pass: the time of each operation, which ones
    are queries, the work they do, and the checks to run once the timed
    operations are over."""

    def __init__(self, spawned: float, out_dir: Path, tag: str):
        self.spawned = spawned
        self.out_dir = out_dir
        self.tag = tag
        self.attempted = 0
        self.refused = 0
        self.times: dict[str, float] = {}
        self.queries: list[str] = []
        self.work = 0
        self.work_keys: list[str] = []
        self.first_result_s = None
        self.checks: list = []
        self._calls: dict[str, int] = {}
        # probe times and when each was taken, and per operation the
        # probes just before and after it
        self.probes: list[float] = []
        self._probed_at: list[float] = []
        self._last_probe = 0.0
        self._around: dict[str, tuple[int, int]] = {}

    def probe(self) -> None:
        self.probes.append(pace.probe())
        self._last_probe = perf_counter()
        self._probed_at.append(self._last_probe)

    def _probe_due(self) -> None:
        if perf_counter() - self._last_probe >= PROBE_EVERY_S:
            self.probe()

    def op(self, fn, *args, **kwargs):
        """One timed call into the library, keyed ``<name>#<call number>``.
        A refusal (a typed feasibility error) still took that time."""
        name = fn.__name__
        self._calls[name] = self._calls.get(name, -1) + 1
        self.key = key = f"{name}#{self._calls[name]}"
        self.attempted += 1
        self._probe_due()
        before = len(self.probes) - 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.times[key] = perf_counter() - t0
            self._probe_due()
            self._around[key] = (before, len(self.probes) - 1)

    def at_nominal(self, elapsed: float) -> float:
        """A time since the spawn (set-up, first result) at the nominal
        host speed.  No probe can run before the pass is set up, and the
        one probe taken then samples a moment of a speed that changes
        from moment to moment, so the time is corrected by the mean of
        the probes of the pass's first ``START_PROBES_S``."""
        first = self._probed_at[0]
        start = [t for t, at in zip(self.probes, self._probed_at)
                 if at - first <= START_PROBES_S]
        return elapsed * pace.NOMINAL_S / statistics.mean(start)

    def corrected(self) -> dict[str, float]:
        """Each operation's time at the nominal host speed, by the mean of
        the probes just before and just after it (see :mod:`pace`)."""
        return {key: t * pace.NOMINAL_S
                / statistics.mean(self.probes[i] for i in self._around[key])
                for key, t in self.times.items()}

    def query(self, fn, *args, **kwargs):
        """A repeated query: an operation whose latency joins the run's
        query distribution."""
        try:
            return self.op(fn, *args, **kwargs)
        finally:
            self.queries.append(self.key)

    def count(self, work: int) -> None:
        """Credit ``work`` to the operation just run."""
        self.work += work
        self.work_keys.append(self.key)

    def cli(self, main, argv: list[str], suffix: str) -> Path:
        """One CLI command, in-process, writing to a file; the first one
        of the pass gives ``first_result_s``."""
        out = self.out_dir / "tmp" / f"{self.tag}-{suffix}"
        out.parent.mkdir(parents=True, exist_ok=True)
        code = self.op(main, argv + ["--out", str(out)])
        if self.first_result_s is None:
            self.first_result_s = time.monotonic() - self.spawned
        self.check(lambda: require(code == 0, f"CLI {argv[0]} exited {code}"))
        return out

    def check(self, fn) -> None:
        self.checks.append(fn)


def random_event(rng: random.Random, alphabet, measures, size=None):
    """A cylinder event of ``size`` rungs (one or two, drawn when not
    given) placed near rung 0."""
    size = rng.randint(1, 2) if size is None else size
    rungs = [rng.choice(alphabet) for _ in range(size)]
    return measures.CylinderEvent(rungs=tuple(rungs), lo=rng.randint(-3, 3))


# ---------------------------------------------------------------------------
# automaton: coding construction and limit measures
# ---------------------------------------------------------------------------

def automaton_first(p: Pass, lib, graphs: dict, rng: random.Random, sc: dict) -> Path:
    cmax_text = ",".join(map(str, lib.burning.max_rung(graphs[sc["big"]])))
    return p.cli(lib.cli.main, ["measure", "--graph", sc["big"], "--event", cmax_text,
                                "--method", "parry"], "measure.csv")


def automaton(p: Pass, lib, graphs: dict, rng: random.Random, sc: dict,
              out: Path) -> None:
    burning, census, coding, measures, errors = (
        lib.burning, lib.census, lib.coding, lib.measures, lib.errors)
    big = graphs[sc["big"]]

    built = {}
    for name in sc["graphs"]:
        g = graphs[name]
        auto = p.op(coding.build_coding, g)
        transitive = p.op(coding.check_transitive, auto)
        spec = p.op(coding.spectral, auto)
        cmax = burning.max_rung(g)
        nonmax = p.op(coding.restrict, auto, lambda c, m=cmax: c != m)
        spec0 = p.op(coding.spectral, nonmax)
        chain = p.op(coding.parry_chain, auto, spec)
        built[name] = (auto, transitive, spec, spec0, chain)

    series = {}
    for name in sc["graphs"]:
        g = graphs[name]
        series[name] = tuple(p.op(census.count_series, g, variant, sc["count_n"],
                                  method="automaton") for variant in ("L", "L0"))

    alphabet = census.enum_rungs(big).rungs
    answers = []
    for method in ("parry",) * sc["parry"] + ("finite_dp",) * sc["finite_dp"]:
        # finite_dp runs faster on an impossible event (its vector turns
        # to zeros), which only a two-rung event can be; one rung each
        # keeps query_p95_ms from depending on how many of the few
        # finite_dp events the seed made impossible
        event = random_event(rng, alphabet, measures,
                             1 if method == "finite_dp" else None)
        answers.append((event, p.query(measures.cylinder_prob, big, event, method)))
        p.count(1)

    # at the default order only path2 certifies its renewal tail, the
    # others refuse with a typed FeasibilityError (path4 and cycle4 refuse
    # too, after 1.5 and 3 s: too slow to repeat in every pass)
    renewal = {}
    for name in sc["graphs"]:
        g = graphs[name]
        event = random_event(rng, census.enum_rungs(g).rungs, measures)
        try:
            renewal[name] = (event, p.op(measures.cylinder_prob, g, event, "renewal"))
        except errors.FeasibilityError:
            p.refused += 1
    three_way = {}
    for name, (event, _) in renewal.items():
        three_way[name] = [p.op(measures.cylinder_prob, graphs[name], event, m).value
                           for m in ("parry", "finite_dp")]

    windows = p.op(measures.sample_chain_windows, big, 24, sc["samples"],
                   rng.randrange(2 ** 31))
    exact = p.op(measures.sample_finite_exact, big, -8, 8, rng.randrange(2 ** 31),
                 count=sc["exact_samples"])

    @p.check
    def _():
        auto = coding.build_coding(big)
        cli_value = float(list(csv.DictReader(out.read_text().splitlines()))[0]["value"])
        event = measures.CylinderEvent.single(burning.max_rung(big))
        require(cli_value == measures.cylinder_prob(big, event, "parry").value,
                "CLI measure disagrees with cylinder_prob")
        for name, (_, (irreducible, power), spec, spec0, chain) in built.items():
            require(irreducible and power is not None,
                    f"{name}: coding automaton not primitive")
            for s in (spec, spec0):
                require(max(s.residual_right, s.residual_left) < 1e-9,
                        f"{name}: spectral residual above 1e-9")
            require(bool(abs(chain.matrix.sum(axis=1) - 1).max() < 1e-9)
                    and close(float(chain.stationary.sum()), 1.0, 1e-9),
                    f"{name}: Parry chain not stochastic")
        require(close(built["path2"][2].rho, 2 + math.sqrt(3), 1e-9),
                "rho(path2) != 2 + sqrt(3)")
        for name, (a, b) in series.items():
            require(census.renewal_identity_check(a, b, sc["count_n"]),
                    f"{name}: renewal identity fails")
        for event, res in answers:
            require(res.valid and 0.0 <= res.value <= 1.0,
                    f"cylinder probability {res.value} out of range")
        require("path2" in renewal, "renewal refused on path2")
        for name, (event, res) in renewal.items():
            require(res.detail["tail_bound"] <= measures.DEFAULT_TAIL_TOL,
                    f"{name}: renewal tail bound not certified")
            for value in three_way[name]:
                require(close(value, res.value, 1e-6),
                        f"{name}: parry/finite_dp/renewal disagree on {event}")
        for w in windows:
            require(coding.encode(auto, w) is not None,
                    "chain sample is not left-burnable")
        for cfg in exact:
            rows = [tuple(int(h) for h in r) for r in cfg.heights]
            require(coding.encode(auto, rows) is not None,
                    "exact sample is not left-burnable")


# ---------------------------------------------------------------------------
# census: brute enumeration through count_series' default method
# ---------------------------------------------------------------------------

def census_first(p: Pass, lib, graphs: dict, rng: random.Random, sc: dict) -> Path:
    return p.cli(lib.cli.main, ["census", "--graph", "path2", "--variant", "L",
                                "--n", str(sc["cli_n"])], "census.csv")


def census_workload(p: Pass, lib, graphs: dict, rng: random.Random, sc: dict,
                    out: Path) -> None:
    census, coding, measures, toppling, gr = (
        lib.census, lib.coding, lib.measures, lib.toppling, lib.graphs)
    path2 = graphs["path2"]
    counted = []
    for g, variant, n in (("path2", "L", sc["l_n"]), (sc["l0_graph"], "L0", sc["l0_n"]),
                          ("path2", "S", sc["s_n"]), ("path2", "REC", sc["rec_n"])):
        counted.append(p.op(census.count_series, graphs[g], variant, n))
        p.count(sum(counted[-1].values))
    left, left0, sym, rec = counted

    alphabet = census.enum_rungs(path2).rungs
    event = measures.CylinderEvent.centered([rng.choice(alphabet)])
    mix_windows = [gr.Window(-m, m) for m in sc["mixture"]]
    rows = p.op(measures.mixture_experiment, path2, mix_windows, event)
    def recurrent_windows():
        return list(census.iter_recurrent(path2, sc["layer_n"]))
    configs = p.op(recurrent_windows)
    layers = []
    for cfg in rng.sample(configs, min(sc["layers"], len(configs))):
        config = toppling.LadderConfig.from_rungs(cfg, start=rng.randint(-3, 3))
        layers.append((config, p.query(measures.boundary_layer, path2, config)))

    @p.check
    def _():
        cli_counts = [int(row["count"]) for row in csv.DictReader(out.read_text().splitlines())]
        require(cli_counts == list(left.values[:sc["cli_n"]]),
                "CLI census disagrees with count_series")
        for n, v in enumerate(rec.values, start=1):
            require(v == recurrent_count(path2, n, gr.laplacian_entry),
                    f"REC count {v} at n={n} != reduced-Laplacian determinant")
        require(len(configs) == recurrent_count(path2, sc["layer_n"], gr.laplacian_entry),
                "iter_recurrent misses recurrent configurations")
        for row in rows:
            require(row.total_configs == recurrent_count(path2, len(row.window),
                                                         gr.laplacian_entry),
                    f"mixture over {row.window} enumerates the wrong set")
            require(0.0 <= row.measured <= 1.0, "mixture frequency out of range")
        auto = coding.build_coding(path2)
        require(list(left.values) == [auto.count_words(n)
                                      for n in range(1, sc["l_n"] + 1)],
                "brute L != automaton count_words on path2")
        g0 = graphs[sc["l0_graph"]]
        cmax0 = lib.burning.max_rung(g0)
        auto0 = coding.restrict(coding.build_coding(g0), lambda c: c != cmax0)
        require(list(left0.values) == [auto0.count_words(n)
                                       for n in range(1, sc["l0_n"] + 1)],
                f"brute L0 != automaton count_words on {sc['l0_graph']}")
        left0_p2 = census.count_series(path2, "L0", sc["l_n"], method="automaton")
        require(census.renewal_identity_check(left, left0_p2, sc["l_n"]),
                "renewal identity fails on brute L")
        require(all(1 <= s <= a for s, a in zip(sym.values, left.values)),
                "two-sided count outside 1..L")
        for config, res in layers:
            n, m = config.window.n, config.window.m
            require(n - 1 <= res.sigma_left <= m and n <= res.sigma_right <= m + 1
                    and res.overlap == (res.sigma_left >= res.sigma_right),
                    f"boundary layer {res} inconsistent on [{n}, {m}]")


# ---------------------------------------------------------------------------
# dynamics: avalanches
# ---------------------------------------------------------------------------

def dynamics_first(p: Pass, lib, graphs: dict, rng: random.Random, sc: dict) -> Path:
    return p.cli(lib.cli.main, ["experiment", "cycle-topple", "--cycles", "3",
                                "--halfwidth", "8", "--count", str(sc["cycle_count"]),
                                "--seed", str(rng.randrange(1000))], "cycle.json")


def dynamics(p: Pass, lib, graphs: dict, rng: random.Random, sc: dict,
             out: Path) -> None:
    measures, toppling = lib.measures, lib.toppling
    path2 = graphs["path2"]

    # halfwidths spread geometrically over [k_lo, k_hi], the same for
    # every seed, so the latency distribution keeps its shape
    count = sc["windows"]
    ratio = sc["k_hi"] / sc["k_lo"]
    halfwidths = [round(sc["k_lo"] * ratio ** (i / max(count - 1, 1)))
                  for i in range(count)]
    blasts = []
    for k in halfwidths:
        config = p.op(measures.sample_window_config, path2, k, rng.randrange(2 ** 31))
        results = []
        for schedule in (toppling.CANONICAL, toppling.PARALLEL,
                         toppling.random_schedule(rng.randrange(2 ** 31))):
            # the query is a blast under a sequential schedule; a parallel
            # blast, 5-10x faster, would sort among the smaller windows'
            # sequential blasts and make the median jump from one window
            # size to another between seeds
            blast = p.op if schedule is toppling.PARALLEL else p.query
            final, odo = blast(toppling.rung_zero_blast, path2, config, schedule)
            p.count(int(odo.counts.sum()))
            results.append((final, odo))
        blasts.append((config, results))

    instances = []
    for _ in range(sc["abelian"]):
        g = graphs[rng.choice(("path2", "path3", "cycle3"))]
        length = rng.randint(4, 10)
        heights = [[rng.randint(1, h) for h in g.max_height] for _ in range(length)]
        config = toppling.LadderConfig.from_rungs(heights, start=1)
        adds = [(rng.randrange(g.n), rng.randint(1, length))
                for _ in range(rng.randint(1, 6))]
        schedules = [toppling.CANONICAL, toppling.PARALLEL,
                     toppling.random_schedule(rng.randrange(2 ** 31))]
        instances.append(p.op(toppling.check_abelian, g, config, adds, schedules))

    @p.check
    def _():
        rows = json.loads(out.read_text())
        require(len(rows) == 1 and rows[0]["samples"] == sc["cycle_count"]
                and 0.0 <= rows[0]["origin_topple_fraction"] <= 1.0,
                "cycle-topple output malformed")
        for config, results in blasts:
            adds = [(x, 0) for x in range(path2.n)]
            for final, odo in results:
                check_conservation(path2, config, adds, final, odo,
                                   toppling.laplacian_apply)
            require(all(same_avalanche(results[0], r) for r in results[1:]),
                    "blast depends on the schedule")
        require(all(instances), "check_abelian failed on a random instance")


# workload -> (its first CLI command, the rest of the pass)
WORKLOADS = {"automaton": (automaton_first, automaton),
             "census": (census_first, census_workload),
             "dynamics": (dynamics_first, dynamics)}
GRAPH_NAMES = ("point", "path2", "path3", "cycle3", "path4", "cycle4")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of a traced pass
# ---------------------------------------------------------------------------

def layer_metrics(tracer, caches: dict, p: Pass) -> dict[str, float]:
    agg = tracer.summary()
    counts = tracer.counts

    def get(name, key="s"):
        return agg.get(name, {}).get(key, 0)

    def per(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name in ("burning.full_burnable", "burning.leftmost_schedule",
                 "burning.left_burnable", "burning.advance_rung_state",
                 "measures.cylinder_prob.parry", "measures.cylinder_prob.finite_dp",
                 "measures.boundary_layer"):
        m[name + ".calls"] = get(name, "calls")
    for name in ("burning.full_burnable", "burning.leftmost_schedule",
                 "burning.left_burnable", "burning.right_burnable",
                 "burning.advance_rung_state", "census.count_series",
                 "census.iter_recurrent", "coding.build_coding",
                 "coding.check_transitive", "coding.spectral",
                 "measures.cylinder_prob.parry", "measures.cylinder_prob.finite_dp",
                 "measures.cylinder_prob.renewal", "measures.renewal_quantities",
                 "measures.mixture_experiment", "measures.boundary_layer",
                 "toppling.check_abelian"):
        m[name + ".s"] = get(name)
    m["burning.full_burnable.us_per_call"] = per(get("burning.full_burnable") * 1e6,
                                                 get("burning.full_burnable", "calls"))
    rb = caches["burning.rung_burn"]
    m["burning.rung_burn.hits"] = rb["hits"]
    m["burning.rung_burn.misses"] = rb["misses"]
    m["burning.rung_burn.hit_ratio"] = per(rb["hits"], rb["hits"] + rb["misses"])
    m["burning.is_rung_symbol.misses"] = caches["burning.is_rung_symbol"]["misses"]
    m["census.enum_rungs.misses"] = caches["census.enum_rungs"]["misses"]
    m["census.single_rung_recurrent.misses"] = caches["census.single_rung_recurrent"]["misses"]
    m["census.count_series.self_s"] = get("census.count_series", "self_s")
    m["census.windows_counted"] = counts["census.count_series.items"]
    m["census.iter_recurrent.configs"] = counts["census.iter_recurrent.items"]
    m["coding.states"] = counts["coding.build_coding.items"]
    m["coding.states_per_s"] = per(m["coding.states"], get("coding.build_coding"))
    m["coding.spectral.iterations"] = counts["coding.spectral.items"]
    # automaton count_series minus the automaton builds it triggers
    m["coding.count_words.s"] = get("coding.count_words", "self_s")
    m["measures.renewal_quantities.failed"] = get("measures.renewal_quantities", "failed")
    for name in ("measures.sample_chain_windows", "measures.sample_finite_exact"):
        m[name + ".samples_per_s"] = per(counts[name + ".items"], get(name))
    m["measures.mixture_experiment.self_s"] = get("measures.mixture_experiment", "self_s")
    m["measures.mixture_experiment.configs"] = counts["measures.mixture_experiment.items"]
    for kind in ("canonical", "parallel", "random"):
        name = f"toppling.stabilize.{kind}"
        m[name + ".s"] = get(name)
        m[name + ".topplings"] = counts[name + ".items"]
        m[name + ".topplings_per_s"] = per(counts[name + ".items"], get(name))
    m["cli.main.self_s"] = get("cli.main", "self_s")
    m["ops.attempted"] = p.attempted
    m["ops.failed_frac"] = per(p.refused, p.attempted)
    m["trace.spans"] = len(tracer.spans)
    return m


# ---------------------------------------------------------------------------

class _Lib:
    def __init__(self):
        import importlib
        for name in ("burning", "census", "cli", "coding", "errors", "graphs",
                     "measures", "toppling"):
            setattr(self, name, importlib.import_module(f"laddersand.{name}"))


def cache_stats(lib) -> dict:
    out = {}
    for module, fn in CACHED:
        info = getattr(getattr(lib, module), fn).cache_info()
        out[f"{module}.{fn}"] = {"hits": info.hits, "misses": info.misses,
                                 "currsize": info.currsize}
    return out


def run_pass(args) -> dict:
    lib = _Lib()
    import numpy
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    graphs = {name: lib.graphs.builtin_graph(name) for name in GRAPH_NAMES}
    ready = time.monotonic()
    scale = SCALES[args.workload]["tiny" if args.tiny else "full"]
    tag = f"{args.workload}-seed{args.seed}"
    p = Pass(args.spawned, Path(args.out_dir), tag)
    p.probe()
    rng = random.Random(args.seed)
    first, rest = WORKLOADS[args.workload]
    out = first(p, lib, graphs, rng, scale)
    rest(p, lib, graphs, rng, scale, out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    caches = cache_stats(lib)
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer, caches, p)
        spans_path = Path(args.out_dir) / "spans" / f"{tag}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.spans))
    error = None
    try:
        for check in p.checks:
            check()
    except GateError as exc:
        error = f"gate: {exc}"
    return {
        "setup_s": p.at_nominal(ready - args.spawned),
        "first_result_s": p.at_nominal(p.first_result_s),
        "numpy": numpy.__version__,
        "times": p.corrected(),
        "measured_times": p.times,
        "probes": p.probes,
        "queries": p.queries,
        "work": p.work,
        "work_keys": p.work_keys,
        "attempted": p.attempted,
        "refused": p.refused,
        "peak_rss_mb": peak_rss_mb,
        "caches": caches,
        "layers": layers,
        "correct": error is None,
        "error": error,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    try:
        result = run_pass(args)
    except Exception:
        traceback.print_exc()
        result = {"correct": False, "error": "crashed: " + traceback.format_exc(limit=3)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
