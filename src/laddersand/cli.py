"""Command-line surface.

Every subcommand wraps one library operation and returns CSV text or
JSON text in chunks; ``main`` writes it once, to stdout or to ``--out``
with a ``<output>.manifest.json`` beside it recording the command,
parameters, seed, and tool version.  Reruns with identical
parameters reproduce byte-identical CSV/JSON outputs (the manifest's
wall-clock differs).

Exit codes: 0 success, 2 invalid input, 3 feasibility cap hit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import __version__
from .burning import max_rung
from .census import count_series, entropy_bounds
from .coding import (build_coding, check_transitive, influence_maps_monotone,
                     parry_chain, restrict, spectral)
from .errors import FeasibilityError, StepCapExceeded, ValidationError
from .graphs import (DEFAULT_MAX_STATES, DEFAULT_VERTEX_CAP, Graph, Window,
                     _length, _seed, builtin_graph, parse_graph)
from .measures import (METHODS, CylinderEvent, cylinder_prob,
                       mixture_experiment, right_cylinder_prob,
                       sample_chain_windows, sample_finite_exact,
                       sample_window_config)
from .toppling import (CANONICAL, DEFAULT_STEP_CAP, PARALLEL, LadderConfig,
                       Schedule, demo_wave_config, random_schedule,
                       rung_zero_blast, stabilize)

BUILTIN_NAMES = ("point", "path2", "path3", "cycle3")

# a subcommand's output: CSV text, or JSON text as the encoder's chunks
Payload = Union[str, Iterable[str]]


def _load_graph(spec: str, vertex_cap: int) -> Graph:
    path = Path(spec)
    if path.is_file():
        return parse_graph(path.read_text(), name=path.stem,
                           vertex_cap=vertex_cap)
    return builtin_graph(spec, vertex_cap)


def _parse_rung(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.replace(" ", "").split(","))
    except ValueError:
        raise ValidationError(f"bad rung {text!r}; expected e.g. 3,2") from None


def _parse_site(text: str) -> tuple[int, int]:
    try:
        x, k = (int(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"bad site {text!r}; expected X,K e.g. 0,0") from None
    return x, k


def _read_config(path: str) -> LadderConfig:
    try:
        return LadderConfig.from_json(json.loads(Path(path).read_text()))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad config {path!r}: {exc!r}") from None


def _parse_event(text: str, at: Optional[int], centered: bool) -> CylinderEvent:
    rungs = tuple(_parse_rung(part) for part in text.split(";") if part)
    if centered:
        return CylinderEvent.centered(rungs)
    return CylinderEvent(rungs=rungs, lo=at or 0)


def _write(args: argparse.Namespace, payload: Payload, t0: float) -> None:
    """The payload (every one ends in a newline), text or text chunks,
    to stdout, or to ``--out`` with its manifest beside it."""
    chunks = (payload,) if isinstance(payload, str) else payload
    if args.out is None:
        sys.stdout.writelines(chunks)
        return
    path = Path(args.out)
    with path.open("w") as out:
        out.writelines(chunks)
    manifest = {
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items()
                       if k != "func" and v is not None},
        "graph_source": getattr(args, "graph", None),
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "outputs": [args.out],
        "wall_clock_s": round(time.perf_counter() - t0, 6),
    }
    path.with_suffix(path.suffix + ".manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1))


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_chunks(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, sort_keys=True, indent=1)`` and a
    newline, in pieces of about 64K characters, so that a large document
    (CLI ``coding`` on path5 is 8 MB) is written without being joined
    whole, and an unbuffered stdout is not written token by token."""
    piece: list[str] = []
    length = 0
    for chunk in json.JSONEncoder(sort_keys=True, indent=1).iterencode(obj):
        piece.append(chunk)
        length += len(chunk)
        if length >= 1 << 16:
            yield "".join(piece)
            piece, length = [], 0
    piece.append("\n")
    yield "".join(piece)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_graph(args, graph: Graph) -> Payload:
    return _json_chunks(graph.to_json())


def cmd_census(args, graph: Graph) -> Payload:
    series = count_series(graph, args.variant, args.n, method=args.method,
                          max_states=args.max_states)
    if args.format == "csv":
        rows = [(series.variant, n, v)
                for n, v in enumerate(series.values, start=1)]
        return _csv_text(("variant", "n", "count"), rows)
    entropy = None  # a zero count has no logarithm
    if 0 not in series.values:
        bounds = entropy_bounds(series)
        entropy = {"lower": list(bounds.lower), "upper": list(bounds.upper),
                   "estimate": bounds.estimate}
    return _json_chunks({
        "variant": series.variant,
        "graph": graph.name,
        "provenance": series.provenance,
        "counts": {str(n): str(v)
                   for n, v in enumerate(series.values, start=1)},
        "entropy": entropy,
    })


def cmd_coding(args, graph: Graph) -> Payload:
    auto = build_coding(graph, max_states=args.max_states)
    irreducible, power = check_transitive(auto)
    doc = auto.to_json()
    doc["transitive"] = irreducible
    doc["positive_power"] = power
    doc["influence_maps_monotone"] = influence_maps_monotone(auto)
    return _json_chunks(doc)


def cmd_spectral(args, graph: Graph) -> Payload:
    auto = build_coding(graph, max_states=args.max_states)
    if args.nonmax:
        auto = restrict(auto, lambda c: c != max_rung(graph))
    spec = spectral(auto)
    doc = {
        "graph": graph.name,
        "states": len(auto),
        "restricted_to_nonmax": bool(args.nonmax),
        "rho": spec.rho,
        "entropy": spec.entropy,
        "residual_right": spec.residual_right,
        "residual_left": spec.residual_left,
        "strictly_positive": spec.strictly_positive,
    }
    if spec.strictly_positive:
        chain = parry_chain(auto, spec)
        doc["stationary"] = {"-".join(map(str, auto.states[i].rung)): p
                             for i, p in enumerate(chain.stationary.tolist())
                             if i in auto.inclusion.values()}
        doc["entropy_rate"] = chain.entropy_rate()
    return _json_chunks(doc)


def cmd_measure(args, graph: Graph) -> Payload:
    event = _parse_event(args.event, args.at, args.centered)
    methods = METHODS if args.method == "all" else (args.method,)
    rows = []
    for method in methods:
        fn = right_cylinder_prob if args.right else cylinder_prob
        res = fn(graph, event, method,
                 dp_halfwidth=args.dp_halfwidth, max_states=args.max_states)
        budget = res.detail.get("tail_bound", "")
        rows.append((f"[{event.lo},{event.hi}]", args.event, method,
                     repr(res.value), budget))
    if args.format == "csv":
        return _csv_text(("window", "event", "method", "value",
                          "error_budget"), rows)
    return _json_chunks([{"window": r[0], "event": r[1], "method": r[2],
                          "value": float(r[3]), "error_budget": r[4] or None}
                         for r in rows])


def cmd_sample(args, graph: Graph) -> Payload:
    if args.exact_window is not None:
        lo, hi = args.exact_window
        configs = sample_finite_exact(graph, lo, hi, args.seed, count=args.count,
                                      max_states=args.max_states)
        lines = [json.dumps({"window": [lo, hi],
                             "rungs": c.heights.tolist()}, sort_keys=True)
                 for c in configs]
    else:
        windows = sample_chain_windows(graph, args.width, args.count, args.seed,
                                       max_states=args.max_states)
        lines = [json.dumps({"rungs": [list(r) for r in w]}, sort_keys=True)
                 for w in windows]
    return "\n".join(lines) + "\n"


def _schedule_from_args(args) -> Schedule:
    if args.schedule == "parallel":
        return PARALLEL
    if args.schedule == "canonical":
        return CANONICAL
    return random_schedule(args.schedule_seed if args.schedule_seed is not None
                           else (args.seed or 0))


def cmd_topple(args, graph: Graph) -> Payload:
    if args.demo == "rightward-wave":
        config, site = demo_wave_config(args.length)
        additions = [site]
    else:
        if args.config is None:
            raise ValidationError("need --config FILE or --demo rightward-wave")
        config = _read_config(args.config)
        additions = [_parse_site(a) for a in (args.add or [])]
    final, odo = stabilize(graph, config, additions,
                           _schedule_from_args(args), args.step_cap)
    return _json_chunks({
        "final": final.to_json(),
        "odometer": odo.to_json(),
        "additions": [list(a) for a in additions],
    })


def cmd_blast(args, graph: Graph) -> Payload:
    if args.config is not None:
        config = _read_config(args.config)
    else:
        config = sample_window_config(graph, args.halfwidth, args.seed or 0,
                                      max_states=args.max_states)
    final, odo = rung_zero_blast(graph, config, _schedule_from_args(args),
                                 args.step_cap)
    return _json_chunks({
        "window": [config.window.n, config.window.m],
        "odometer": odo.to_json(),
        "rung_min": {str(k): v for k, v in odo.rung_min().items()},
        "all_toppled": bool((odo.counts >= 1).all()),
    })


def cmd_mixture(args, graph: Graph) -> Payload:
    event = _parse_event(args.event, args.at, args.centered)
    windows = [Window(-m, m) for m in [_length(h, "halfwidth", 0) for h in args.halfwidths]]
    rows = mixture_experiment(graph, windows, event, max_states=args.max_states)
    table = [((f"[{r.window.n},{r.window.m}]"), args.event,
              repr(r.measured), repr(r.predicted), repr(r.gap),
              r.total_configs) for r in rows]
    if args.format == "csv":
        return _csv_text(("window", "event", "measured",
                          "predicted", "gap", "configs"), table)
    return _json_chunks([{
        "window": [r.window.n, r.window.m], "weight_left": r.weight_left,
        "measured": r.measured, "predicted": r.predicted, "gap": r.gap,
        "configs": r.total_configs} for r in rows])


def cmd_experiment(args, graph: Graph) -> Payload:
    if args.name != "cycle-topple":
        raise ValidationError(f"unknown experiment {args.name!r}")
    _length(args.count, "count", 1)
    seed = _seed(args.seed or 0)
    results = []
    for n_cyc in args.cycles:
        cyc = builtin_graph(f"cycle{n_cyc}", args.vertex_cap)
        toppled = 0
        odometer_origin = 0
        for i in range(args.count):
            config = sample_window_config(cyc, args.halfwidth,
                                          seed * 1000 + i,
                                          max_states=args.max_states)
            final, odo = stabilize(cyc, config, [(0, 0)],
                                   CANONICAL, args.step_cap)
            c = odo.count((0, 0))
            toppled += c > 0
            odometer_origin += c
        results.append({
            "cycle": n_cyc,
            "halfwidth": args.halfwidth,
            "samples": args.count,
            "origin_topple_fraction": toppled / args.count,
            "origin_mean_topplings": odometer_origin / args.count,
        })
    return _json_chunks(results)


# ---------------------------------------------------------------------------

_SHARED_FLAGS = {
    "graph": dict(default="path2",
                  help=f"builtin ({', '.join(BUILTIN_NAMES)}, pathN, cycleN) "
                       "or an edge-list file"),
    "seed": dict(type=int, default=None),
    "format": dict(choices=("csv", "json"), default="csv"),
    "max-states": dict(type=int, default=DEFAULT_MAX_STATES),
    "step-cap": dict(type=int, default=DEFAULT_STEP_CAP),
}


def _event_position(p: argparse.ArgumentParser) -> None:
    """``--at`` or ``--centered``, which place the event two ways."""
    where = p.add_mutually_exclusive_group()
    where.add_argument("--at", type=int, default=None, help="leftmost event rung")
    where.add_argument("--centered", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laddersand",
        description="Abelian sandpiles on ladder graphs: censuses, the "
                    "rung-coding automaton, limit-measure samplers, and "
                    "avalanche dynamics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, *flags: str) -> argparse.ArgumentParser:
        """A subcommand with ``--out``, ``--vertex-cap`` and the named
        shared flags, which are the ones it reads."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--vertex-cap", type=int, default=DEFAULT_VERTEX_CAP)
        for flag in flags:
            p.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
        return p

    p = command("graph", "parse and validate a base graph, emit it as JSON",
                "graph")
    p.set_defaults(func=cmd_graph)

    p = command("census", "exact counts of burnable or recurrent window "
                "classes, with entropy bounds",
                "graph", "format", "max-states")
    p.add_argument("--variant", choices=("L", "L0", "S", "S0", "REC"),
                   default="L")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("brute", "automaton"), default="brute")
    p.set_defaults(func=cmd_census)

    p = command("coding", "build the rung-coding automaton and emit states, "
                "matrix and transitivity data", "graph", "max-states")
    p.set_defaults(func=cmd_coding)

    p = command("spectral", "growth rate and maximal-entropy chain of the "
                "coding automaton", "graph", "max-states")
    p.add_argument("--nonmax", action="store_true",
                   help="restrict to states without the all-maximal rung")
    p.set_defaults(func=cmd_spectral)

    p = command("measure", "cylinder probability under the one-sided limit "
                "measure", "graph", "format", "max-states")
    p.add_argument("--event", required=True,
                   help="rungs as 'h1,h2;h1,h2;...' left to right")
    _event_position(p)
    p.add_argument("--right", action="store_true",
                   help="use the right-sided measure")
    p.add_argument("--method", choices=(*METHODS, "all"),
                   default="all")
    p.add_argument("--dp-halfwidth", type=int, default=32)
    p.set_defaults(func=cmd_measure)

    p = command("sample", "draw rung windows from the stationary chain, or "
                "exactly uniform finite windows", "graph", "seed", "max-states")
    p.add_argument("--width", type=int, default=9)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--exact-window", type=int, nargs=2, metavar=("N", "M"),
                   default=None)
    p.set_defaults(func=cmd_sample, seed=0)

    p = command("topple", "stabilize a configuration after grain additions; "
                "reports the odometer", "graph", "seed", "step-cap")
    p.add_argument("--config", default=None, help="LadderConfig JSON file")
    p.add_argument("--add", action="append", default=None,
                   metavar="X,K", help="addition site; repeatable")
    p.add_argument("--demo", choices=("rightward-wave",), default=None)
    p.add_argument("--length", type=int, default=12)
    p.add_argument("--schedule", choices=("parallel", "canonical", "random"),
                   default="canonical")
    p.add_argument("--schedule-seed", type=int, default=None)
    p.set_defaults(func=cmd_topple)

    p = command("blast", "add one grain to every site of rung 0 of a sampled "
                "window and stabilize", "graph", "seed", "max-states", "step-cap")
    p.add_argument("--halfwidth", type=int, default=8)
    p.add_argument("--config", default=None)
    p.add_argument("--schedule", choices=("parallel", "canonical", "random"),
                   default="canonical")
    p.add_argument("--schedule-seed", type=int, default=None)
    p.set_defaults(func=cmd_blast)

    p = command("mixture", "finite-window event probabilities against the "
                "mixture of one-sided limits",
                "graph", "format", "max-states")
    p.add_argument("--event", required=True)
    _event_position(p)
    p.add_argument("--halfwidths", type=lambda s: [int(x) for x in s.split(",")],
                   default=[2, 3])
    p.set_defaults(func=cmd_mixture)

    p = command("experiment", "exploratory runs; 'cycle-topple' probes how "
                "often the origin topples on cycle ladders",
                "seed", "max-states", "step-cap")
    p.add_argument("name", choices=("cycle-topple",))
    p.add_argument("--cycles", type=lambda s: [int(x) for x in s.split(",")],
                   default=[3, 4, 5])
    p.add_argument("--halfwidth", type=int, default=8)
    p.add_argument("--count", type=int, default=50)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        graph = (_load_graph(args.graph, args.vertex_cap)
                 if "graph" in args else None)
        payload = args.func(args, graph)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FeasibilityError as exc:
        print(f"feasibility: {exc}", file=sys.stderr)
        return 3
    except StepCapExceeded as exc:
        print(f"step cap: {exc}", file=sys.stderr)
        return 3
    _write(args, payload, t0)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
