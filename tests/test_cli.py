import csv
import io
import json
from pathlib import Path

import pytest

from laddersand.cli import _SHARED_FLAGS, build_parser, main
from laddersand.coding import CodingAutomaton, ParryChain
from laddersand.graphs import builtin_graph
from laddersand.measures import _AutomatonBundle, sample_chain_windows


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_census_csv_golden(capsys):
    code, out, _ = run(capsys, "census", "--graph", "path2",
                       "--variant", "L", "--n", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "variant,n,count"
    assert lines[1] == "L,1,5"
    assert lines[2] == "L,2,19"
    assert len(lines) == 9


def test_census_json_entropy(capsys):
    code, out, _ = run(capsys, "census", "--graph", "path2", "--variant", "L",
                       "--n", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"]["1"] == "5"
    assert doc["entropy"]["upper"][0] >= doc["entropy"]["estimate"]


@pytest.mark.parametrize("variant", ["L0", "S0"])
def test_census_json_zero_counts_have_no_entropy(capsys, variant):
    code, out, _ = run(capsys, "census", "--graph", "point", "--variant",
                       variant, "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"1": "0", "2": "0", "3": "0"}
    assert doc["entropy"] is None


def test_census_automaton_method(capsys):
    code, out, _ = run(capsys, "census", "--graph", "path2", "--variant", "L0",
                       "--n", "10", "--method", "automaton")
    assert code == 0
    assert out.strip().splitlines()[1] == "L0,1,4"


def test_coding_emit(tmp_path, capsys):
    target = tmp_path / "automaton.json"
    code, _, _ = run(capsys, "coding", "--graph", "path2",
                     "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert len(doc["states"]) == 7
    assert doc["transitive"] is True and doc["positive_power"] == 3
    manifest = json.loads(
        (tmp_path / "automaton.json.manifest.json").read_text())
    assert manifest["command"] == "coding"
    assert manifest["tool_version"]
    assert manifest["outputs"] == [str(target)]


def test_spectral_nonmax(capsys):
    code, out, _ = run(capsys, "spectral", "--graph", "path2", "--nonmax")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["rho"] - 2.0) < 1e-9
    assert doc["strictly_positive"] is False


def test_spectral_cycle4(capsys):
    code, out, _ = run(capsys, "spectral", "--graph", "cycle4")
    assert code == 0
    doc = json.loads(out)
    assert doc["states"] == 745
    assert doc["residual_right"] < 1e-12 and doc["residual_left"] < 1e-12
    assert doc["strictly_positive"] is True


def test_measure_all_methods(capsys):
    code, out, _ = run(capsys, "measure", "--graph", "path2",
                       "--event", "3,3", "--method", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("window,event,method")
    assert len(lines) == 4
    values = [float(line.split(",")[3].strip('"')) for line in lines[1:]]
    assert max(values) - min(values) < 1e-6


def test_sample_jsonl_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    for target in (out1, out2):
        code, _, _ = run(capsys, "sample", "--graph", "path2", "--width", "5",
                         "--count", "20", "--seed", "7", "--out", str(target))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = [json.loads(line) for line in out1.read_text().splitlines()]
    assert len(rows) == 20 and all(len(r["rungs"]) == 5 for r in rows)


def test_sample_exact_window(capsys):
    code, out, _ = run(capsys, "sample", "--graph", "path2",
                       "--exact-window", "0", "2", "--count", "5", "--seed", "1")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["window"] == [0, 2] for r in rows)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_sample_exact_window_refuses_count_below_one(capsys, count):
    code, out, err = run(capsys, "sample", "--graph", "path2",
                         "--exact-window", "-2", "2", "--count", count)
    assert code == 2 and out == "" and "count must be >= 1" in err


@pytest.mark.parametrize("name", ["path3", "cycle3"])
def test_coding_spectral_and_chain_draws_build_no_dense_matrix(capsys, monkeypatch,
                                                               name):
    def refuse(self):
        raise AssertionError("a dense matrix was built")

    monkeypatch.setattr(_AutomatonBundle, "_cache", {})
    monkeypatch.setattr(CodingAutomaton, "matrix", refuse)
    monkeypatch.setattr(ParryChain, "matrix", property(refuse))
    for command in ("coding", "spectral"):
        code, out, _ = run(capsys, command, "--graph", name)
        assert code == 0 and json.loads(out)
    assert len(sample_chain_windows(builtin_graph(name), 24, 5, seed=1)) == 5


@pytest.mark.parametrize("argv", [
    ["graph", "--graph", "cycle3"],
    ["census", "--graph", "path2", "--n", "4", "--format", "json"],
    ["coding", "--graph", "path2"],
    ["measure", "--graph", "path2", "--event", "3,3", "--method", "parry"],
    ["sample", "--graph", "path2", "--width", "3", "--count", "2"],
])
def test_out_file_holds_what_stdout_prints(tmp_path, capsys, argv):
    code, printed, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "out.txt"
    code, _, _ = run(capsys, *argv, "--out", str(target))
    assert code == 0 and target.read_text() == printed
    manifest = json.loads((tmp_path / "out.txt.manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert manifest["outputs"] == [str(target)]


def test_topple_demo(capsys):
    code, out, _ = run(capsys, "topple", "--graph", "path2",
                       "--demo", "rightward-wave", "--length", "10")
    assert code == 0
    doc = json.loads(out)
    counts = doc["odometer"]["counts"]
    assert [row[0] for row in counts] == [0, 0, 1, 2, 1, 1, 1, 1, 1, 1]
    assert [row[1] for row in counts] == [0, 0, 0, 1, 1, 1, 1, 1, 1, 1]


def test_topple_config_file(tmp_path, capsys):
    cfg = {"window": [0, 1], "heights": [[3, 3], [3, 3]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "topple", "--graph", "path2",
                       "--config", str(path), "--add", "0,0",
                       "--schedule", "random", "--schedule-seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["additions"] == [[0, 0]]


def test_blast(capsys):
    code, out, _ = run(capsys, "blast", "--graph", "path2",
                       "--halfwidth", "4", "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_toppled"] is True
    assert doc["window"] == [-4, 4]


def test_mixture(capsys):
    code, out, _ = run(capsys, "mixture", "--graph", "path2",
                       "--event", "3,3", "--centered", "--halfwidths", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("window,event,measured")
    assert len(lines) == 2


def test_experiment_cycle_topple(capsys):
    code, out, _ = run(capsys, "experiment", "cycle-topple", "--cycles", "3",
                       "--halfwidth", "3", "--count", "5", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["cycle"] == 3 and doc[0]["samples"] == 5
    assert 0 <= doc[0]["origin_topple_fraction"] <= 1


@pytest.mark.parametrize("count", ["0", "-2"])
def test_experiment_refuses_count_below_one(capsys, count):
    # --count 0 divided by zero, --count -2 printed meaningless fractions
    code, out, err = run(capsys, "experiment", "cycle-topple", "--cycles", "3",
                         "--halfwidth", "3", "--count", count)
    assert code == 2 and out == "" and "count must be >= 1" in err


@pytest.mark.parametrize("argv", [
    ["sample", "--graph", "path2", "--width", "3", "--count", "1", "--seed", "-1"],
    ["sample", "--graph", "path2", "--exact-window", "0", "2", "--seed", "-1"],
    ["experiment", "cycle-topple", "--cycles", "3", "--halfwidth", "3",
     "--count", "2", "--seed", "-1"],
    ["topple", "--graph", "path2", "--demo", "rightward-wave",
     "--schedule", "random", "--schedule-seed", "-1"],
], ids=["sample", "sample-exact", "experiment", "topple"])
def test_negative_seeds_are_invalid_input(capsys, argv):
    # sample and experiment once ended in numpy's untyped ValueError
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "seed must be >= 0" in err


def test_graph_subcommand_file(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n")
    code, out, _ = run(capsys, "graph", "--graph", str(src))
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 3 and doc["m"] == [3, 4, 3]


def test_exit_code_validation(capsys):
    code, _, err = run(capsys, "graph", "--graph", "nonsense")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "measure", "--graph", "path2", "--event", "x,y")
    assert code == 2


def test_renewal_measures_cycle3(capsys):
    code, out, _ = run(capsys, "measure", "--graph", "cycle3", "--event",
                       "4,4,4", "--method", "renewal")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert float(row["value"]) > 0 and float(row["error_budget"]) <= 1e-9


def _topple_with(tmp_path, capsys, cfg, *add):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["topple", "--graph", "path2", "--config", str(path)]
    for site in add:
        argv += ["--add", site]
    return run(capsys, *argv)


def test_topple_rejects_a_malformed_site(tmp_path, capsys):
    cfg = {"window": [0, 1], "heights": [[3, 3], [3, 3]]}
    code, _, err = _topple_with(tmp_path, capsys, cfg, "1,x")
    assert code == 2 and "bad site '1,x'" in err


def test_topple_rejects_a_site_without_a_rung(tmp_path, capsys):
    cfg = {"window": [0, 1], "heights": [[3, 3], [3, 3]]}
    code, _, err = _topple_with(tmp_path, capsys, cfg, "1")
    assert code == 2 and "bad site '1'" in err


@pytest.mark.parametrize("command", ["topple", "blast"])
def test_config_heights_must_be_integers(tmp_path, capsys, command):
    # the file's 2.5 and 3.9 were read as 2 and 3
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"window": [0, 1], "heights": [[2.5, 3], [3, 3.9]]}))
    code, out, err = run(capsys, command, "--graph", "path2", "--config", str(path))
    assert code == 2 and out == "" and "heights must be integers" in err


def test_topple_rejects_a_config_without_heights(tmp_path, capsys):
    code, _, err = _topple_with(tmp_path, capsys, {"window": [0, 1]}, "0,0")
    assert code == 2 and "heights" in err


def test_exit_code_feasibility(capsys):
    # path2's left-burnable windows have 3 transfer states per length
    code, _, err = run(capsys, "census", "--graph", "path2", "--variant", "L",
                       "--n", "15", "--max-states", "2")
    assert code == 3 and "feasibility" in err


@pytest.mark.parametrize("variant, n, held", [("REC", "4", 54), ("S", "3", 85)])
def test_max_states_caps_the_brute_census(capsys, variant, n, held):
    # path3 REC holds 54 transfer states at 3 rungs, cycle3 S 85 pairs at 2
    graph = "path3" if variant == "REC" else "cycle3"
    argv = ["census", "--graph", graph, "--variant", variant, "--n", n]
    code, out, _ = run(capsys, *argv, "--max-states", str(held))
    assert code == 0 and out == run(capsys, *argv)[1]
    code, out, err = run(capsys, *argv, "--max-states", str(held - 1))
    assert code == 3 and out == ""
    assert f"brute count exceeded max_states={held - 1}" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["census", "--n", "3"], ["census", "--n", "3", "--method", "automaton"],
    ["coding"], ["measure", "--event", "3,3"], ["mixture", "--event", "3,3"],
])
def test_a_cap_below_one_is_invalid_input(capsys, argv, cap):
    # a cap no count can meet used to exit 3, or with brute counts 0
    code, out, err = run(capsys, *argv, "--graph", "path2", "--max-states", cap)
    assert code == 2 and out == "" and "max_states must be >= 1" in err


@pytest.mark.parametrize("command", ["measure", "mixture"])
def test_at_and_centered_are_exclusive(capsys, command):
    # --centered used to win silently: measure reported window [0,0]
    with pytest.raises(SystemExit) as exc:
        main([command, "--event", "3,3", "--centered", "--at", "5"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_census_beyond_the_burn_table_exits_3(capsys):
    code, _, err = run(capsys, "census", "--graph", "path7", "--variant", "L",
                       "--n", "1")
    assert code == 3 and "one-rung burn table" in err


def test_census_automaton_l0_on_the_point(capsys):
    code, out, _ = run(capsys, "census", "--graph", "point", "--variant", "L0",
                       "--n", "3", "--method", "automaton")
    assert code == 0
    code, brute, _ = run(capsys, "census", "--graph", "point", "--variant", "L0",
                         "--n", "3")
    assert code == 0 and out == brute


def test_census_rerun_byte_identical(tmp_path, capsys):
    outs = []
    for name in ("r1.csv", "r2.csv"):
        target = tmp_path / name
        code, _, _ = run(capsys, "census", "--graph", "cycle3", "--variant",
                         "L", "--n", "3", "--out", str(target))
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]
    manifest = json.loads((tmp_path / "r1.csv.manifest.json").read_text())
    assert manifest["parameters"]["variant"] == "L"
    assert "wall_clock_s" in manifest


def test_vertex_cap_reaches_builtin_graphs(capsys):
    code, out, _ = run(capsys, "graph", "--graph", "path13", "--vertex-cap", "14")
    assert code == 0 and json.loads(out)["vertices"] == 13
    code, _, err = run(capsys, "graph", "--graph", "path13")
    assert code == 2 and "cap" in err


def test_malformed_builtin_name_is_invalid_input(capsys):
    for name in ("pathx", "path", "cycle", "point3"):
        code, _, err = run(capsys, "graph", "--graph", name)
        assert code == 2 and "unknown builtin graph" in err


def test_max_states_caps_the_measure_automaton(capsys):
    # cycle4's automaton has 745 states
    code, _, err = run(capsys, "measure", "--graph", "cycle4",
                       "--max-states", "10", "--event", "4,4,4,4",
                       "--method", "parry")
    assert code == 3 and "max_states" in err


def test_max_states_caps_the_census_automaton(capsys):
    code, _, err = run(capsys, "census", "--graph", "cycle4", "--variant", "L",
                       "--n", "2", "--method", "automaton", "--max-states", "10")
    assert code == 3 and "max_states" in err


def test_step_cap_on_every_dynamics_command(capsys):
    commands = [
        ["blast", "--graph", "path2", "--halfwidth", "8", "--seed", "1"],
        ["topple", "--graph", "path2", "--demo", "rightward-wave",
         "--length", "12"],
        ["experiment", "cycle-topple", "--cycles", "3", "--halfwidth", "8",
         "--count", "3", "--seed", "1"],
    ]
    for argv, cap in zip(commands, ("10", "1", "1")):
        code, _, err = run(capsys, *argv, "--step-cap", cap)
        assert code == 3 and "step cap" in err, argv
        code, _, err = run(capsys, *argv, "--step-cap", "0")
        assert code == 2 and "step_cap" in err, argv


# every shared flag a subcommand does not read, after the arguments it needs
IGNORED_FLAGS = [
    (["graph"], "--format --seed --step-cap --max-enum --max-states"),
    (["census", "--n", "2"], "--seed --step-cap"),
    (["coding"], "--format --seed --step-cap --max-enum"),
    (["spectral"], "--format --seed --step-cap --max-enum"),
    (["measure", "--event", "3,3"], "--seed --step-cap --max-enum"),
    (["sample"], "--format --step-cap --max-enum"),
    (["topple", "--demo", "rightward-wave"], "--format --max-enum --max-states"),
    (["blast"], "--format --max-enum"),
    (["mixture", "--event", "3,3"], "--seed --step-cap"),
    (["experiment", "cycle-topple"], "--format --max-enum --graph"),
    (["measure", "--event", "3,3"], "--renewal-order"),  # a removed flag
    (["census", "--n", "2"], "--max-enum"),  # removed: --max-states caps brute counts
    (["mixture", "--event", "3,3"], "--max-enum"),
]


@pytest.mark.parametrize("argv, flag", [(argv, flag) for argv, flags in IGNORED_FLAGS
                                        for flag in flags.split()])
def test_subcommands_refuse_flags_they_do_not_read(capsys, argv, flag):
    # e.g. coding --format csv used to write JSON and exit 0
    value = {"--format": "csv", "--graph": "path2"}.get(flag, "1")
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("blast", "--graph", "path2", "--halfwidth", "-1"),
    ("experiment", "cycle-topple", "--cycles", "3", "--halfwidth", "-1"),
    ("mixture", "--graph", "path2", "--event", "3,3", "--halfwidths", "2,-1"),
])
def test_negative_halfwidths_are_refused_by_name(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: halfwidth must be >= 0\n")


def _readme_flag_table():
    """The README's CLI table as {subcommand: the shared flags ticked}."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| subcommand"))
    table = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        table.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    header = [cell.split()[0] for cell in table[0][1:]]  # "--format {csv,json}"
    return {cells[0]: {flag for flag, cell in zip(header, cells[1:]) if cell == "✓"}
            for cells in table[2:]}


def _subparsers():
    action = next(a for a in build_parser()._actions if a.dest == "command")
    return action.choices


def test_readme_flag_table_matches_the_parser():
    table = _readme_flag_table()
    assert set(table) == set(_subparsers())
    for name, parser in _subparsers().items():
        accepted = {f"--{flag}" for flag in _SHARED_FLAGS
                    if f"--{flag}" in parser._option_string_actions}
        assert table[name] == accepted, name
