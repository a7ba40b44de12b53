import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from strategies import edge_list_documents, gml_documents

import labelprop
from labelprop import fixtures, graphs
from labelprop.cli import load_graph, main
from labelprop.graphs import GraphParseError, load_edge_list, load_gml
from labelprop.harness import TestSetting, run_experiment, trials_csv
from labelprop.propagation import TieStrategy, TimingModel


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_karate_smoke(capsys):
    code, out, _ = run_cli(capsys, "run", "karate", "--timing", "semi-sync",
                           "--tie", "prec-max", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["status"] == "converged"
    assert isinstance(doc["result"]["modularity"], float)


def test_run_c4_sync_c2_reports_period_two(capsys):
    code, out, _ = run_cli(capsys, "run", "c4", "--timing", "sync", "--tie", "max",
                           "--stop", "c2", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["stop_reason"] == "c2-period-2"


def test_run_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "run", "missing.gml")
    assert code == 1
    assert "error" in err


def test_run_cap_exceeded_exits_2(capsys):
    code, out, _ = run_cli(capsys, "run", "c4", "--timing", "sync", "--tie", "random",
                           "--stop", "no-change", "--cap", "1", "--seed", "3")
    assert code == 2
    assert json.loads(out)["result"]["status"] == "cap_exceeded"


def test_unknown_flag_value_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "c4", "--timing", "bogus"])
    assert exc.value.code == 64


def test_missing_command_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


def test_run_output_is_byte_stable(capsys):
    args = ("run", "karate", "--timing", "semi-sync", "--tie", "lpa", "--seed", "7")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_run_csv_format(capsys):
    code, out, _ = run_cli(capsys, "run", "c4", "--timing", "semi-sync", "--tie", "max",
                           "--seed", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# graph=c4 status=converged")
    assert "vertex,community" in lines
    assert lines[-1] == "3,0"


def test_run_plot_data_format(capsys):
    code, out, _ = run_cli(capsys, "run", "c4", "--timing", "semi-sync", "--tie", "max",
                           "--seed", "1", "--format", "plot-data")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,y,series"
    assert lines[1] == "0,0,f"        # identity labels: no monochromatic edges
    assert lines[-1].endswith(",f")


def test_experiment_summary_fields(capsys):
    code, out, _ = run_cli(capsys, "experiment", "karate", "--timing", "semi-sync",
                           "--tie", "lpa", "--trials", "5", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    (summary,) = doc["summaries"]
    assert summary["trials"] == 5
    assert summary["tie"] == "random"
    assert 0.0 <= summary["modularity"]["mean"] <= 1.0
    assert summary["convergence_rate"] == 1.0


def test_experiment_single_trial_zero_std(capsys):
    code, out, _ = run_cli(capsys, "experiment", "karate", "--trials", "1", "--seed", "3")
    assert code == 0
    (summary,) = json.loads(out)["summaries"]
    assert summary["modularity"]["std"] == 0.0
    assert summary["stages"]["std"] == 0.0


def test_experiment_matrix_mode(capsys):
    code, out, _ = run_cli(capsys, "experiment", "c4", "--all-ties", "--both-timings",
                           "--trials", "2", "--seed", "1")
    assert code == 0
    summaries = json.loads(out)["summaries"]
    assert len(summaries) == 8
    cells = {(s["timing"], s["tie"]) for s in summaries}
    assert len(cells) == 8


def _strict_json(text):
    """Parse JSON as RFC 8259 has it: NaN and Infinity are not numbers."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_experiment_on_an_edgeless_graph_reports_null_modularity(capsys, tmp_path: Path):
    # run prints modularity=None here; experiment leaves every trial's NaN
    # out of the aggregate instead of failing, and writes it as null.
    path = tmp_path / "edgeless.txt"
    path.write_text("a a\nb b\n")
    code, out, _ = run_cli(capsys, "experiment", str(path), "--trials", "3")
    assert code == 0
    summary = _strict_json(out)["summaries"][0]
    assert summary["modularity"] == {"mean": None, "std": None}
    assert summary["communities"] == {"mean": 2.0, "std": 0.0}
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    assert json.loads(out)["result"]["modularity"] is None


def test_experiment_with_every_trial_capped_reports_null_modularity(capsys):
    code, out, _ = run_cli(capsys, "experiment", "karate", "--timing", "sync", "--tie", "random",
                           "--cap", "1", "--trials", "3")
    assert code == 0
    (summary,) = _strict_json(out)["summaries"]
    assert (summary["non_converged"], summary["convergence_rate"]) == (3, 0.0)
    assert summary["modularity"] == {"mean": None, "std": None}
    code, out, _ = run_cli(capsys, "experiment", "karate", "--timing", "sync", "--tie", "random",
                           "--cap", "1", "--trials", "3", "--format", "csv")
    assert out.splitlines()[1].split(",")[5:7] == ["nan", "nan"]  # CSV keeps nan


def test_experiment_names_a_file_graph_by_its_file_name(capsys, tmp_path: Path):
    path = tmp_path / "pair.edgelist"
    path.write_text("a b\n")
    args = ("experiment", str(path), "--tie", "max", "--trials", "2")
    _, out, _ = run_cli(capsys, *args)
    assert [s["network"] for s in json.loads(out)["summaries"]] == ["pair.edgelist"]
    _, out, _ = run_cli(capsys, *args, "--format", "csv")
    header, row = out.splitlines()
    assert row.split(",")[header.split(",").index("network")] == "pair.edgelist"
    _, out, _ = run_cli(capsys, *args, "--format", "plot-data")
    assert {line.split(",")[0] for line in out.splitlines()[1:]} == {"semi-sync/max/pair.edgelist"}


def test_experiment_writes_outputs(capsys, tmp_path: Path):
    outdir = tmp_path / "results"
    code, out, _ = run_cli(capsys, "experiment", "c4", "--tie", "max", "--trials", "3",
                           "--seed", "2", "--out", str(outdir))
    assert code == 0
    trials = (outdir / "trials_semi_sync_max.csv").read_text()
    assert trials.splitlines()[0] == "trial,seed,modularity,steps,stages,communities,largest,converged"
    assert len(trials.splitlines()) == 4
    assert (outdir / "summary.json").read_text() == out


def test_experiment_unwritable_out_exits_1(capsys, tmp_path: Path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = run_cli(capsys, "experiment", "c4", "--trials", "1",
                           "--out", str(blocker / "sub"))
    assert code == 1
    assert "error" in err


def test_experiment_csv_format_byte_stable(capsys):
    args = ("experiment", "karate", "--tie", "prec", "--trials", "4", "--seed", "11",
            "--format", "csv")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    header, row = first.splitlines()
    assert header.startswith("timing,tie,network,trials,base_seed,modularity_mean")
    assert row.startswith("semi-sync,prec,karate,4,11,")
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_experiment_plot_data(capsys):
    code, out, _ = run_cli(capsys, "experiment", "c4", "--tie", "max", "--trials", "2",
                           "--seed", "1", "--format", "plot-data")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,y,series"
    assert any(line.endswith(",modularity_mean") for line in lines[1:])


# sha256 of each command's exit code, stdout and --out files (names and
# bytes, in name order), per --format: every byte each command writes.
# Re-record a digest only for an intended change of that output.
_PINNED_OUTPUTS = {
    "run karate --timing sync --tie prec-max": {
        "json": (0, "03335244bf90474680fe22137c0e0af255710a423a6c15af46738da825d263f4", None),
        "csv": (0, "6ea7317fa17f2706e7a23652e5d7ec62010e8fda729fd5841dbee06a3a0159fc", None),
        "plot-data": (0, "dd52347efb0d37a8ba2fc7df8f683ff4b40927f41c8e1a1e2347188b2821e561", None),
    },
    "run karate --timing sync --tie random": {
        "json": (2, "ab9289677f04b76e759198117f93cdf44c2e5f48b8727a6b05f3f98bf5a313d6", None),
        "csv": (2, "42d8553ac9f5eefbf9b8b28c5632b64b7ff520c0f301ddd8072933c9e7b65345", None),
        "plot-data": (2, "b95abc645ba4e1a8ccc8b5bbedec0bccbaf1505a4a246b1e2964525a7b7ce826", None),
    },
    "run karate --timing async --tie prec-max": {
        "json": (0, "be451729dd03f194c7eda3fd0cca9879b6da4c5e75a04950e0098128ac6726c1", None),
        "csv": (0, "e9db811401ad62223e43d4c994eaccde00d534226213e8b5579e00a85a8b6498", None),
        "plot-data": (0, "9e5b3e84024863c55522e4a1f8005a816c78d27c874bc05ba658a682d377be8a", None),
    },
    "run karate --timing async --tie random": {
        "json": (0, "4f9d40aaedbe265fa4b4e17375d31728f837db000ee464478d6b08d48ba21dba", None),
        "csv": (0, "b75dc67dee5f5ef22c054c0e53cd150834cd2e12ad5df3cecaf64383b8b0c049", None),
        "plot-data": (0, "5fcb899b80e6b7262ebbcca7573efd75670cb2398378828ba1bd7e73c7fd0f7d", None),
    },
    "run karate --timing semi-sync --tie prec-max": {
        "json": (0, "8b19d46bd384706e12a8515086250912e5a9a2e70b77c29b4186a3bcc690c877", None),
        "csv": (0, "932a95bbf32cf7c33f6fbadfe70970407796b25af12d519023b5fd31305c830a", None),
        "plot-data": (0, "9bbaab1509ba1ed64ae53836eb594b3c85185c08435c50ffb0c689833475b0e4", None),
    },
    "run karate --timing semi-sync --tie random": {
        "json": (0, "e97af0827275f17dd7fc8ef4b00e5576f47026a9ae8db7e9b0ddbd376d84277c", None),
        "csv": (0, "4a5f1689f83d852f3385e95590fc8ffbfd1d93f703ae2608c67c5b23fff326ff", None),
        "plot-data": (0, "314fb9fed0ffaee40c28188e34d200f9c9776038d5c23649b56b8266e3329c54", None),
    },
    "experiment karate --all-ties --both-timings --trials 4 --seed 5 --out {out}": {
        "json": (0, "a58d087694b4729874ca3a31a747c04fe807f4d69b901e3f41be1cf10e352bdf",
                 "42ead5f8404709d1f41ededfb57c91cc5d8c6dbd2ef0033dc9e9fa9563060b46"),
        "csv": (0, "ff184a84eea9d8d11a2914342f49636b81ec8789206bc95cfd45c744b8d20ffc",
                "e46825394a0f3e932a801d6a97f624950bac2447b9604f97a9c04df753aab670"),
        "plot-data": (0, "e06e53fbdea935924af9c1bcb53a43910db5229426eb22f1bde9da171d5cc8cb",
                      "d93af44acdde5cbe3ef8dc745cd934cbb5360dc1f6af642da2d48978fbd4e7bc"),
    },
    "experiment c4 --timing sync --tie max --trials 3": {
        "json": (0, "f3912c86b8dec220596e396d88471c1cb326ff9018aa36b7c98b93e5a2fc6e49", None),
        "csv": (0, "199b4882c08b34d2f9d1f1ed8222582cde0a623ba82d068cc95c6ecaa7d2c298", None),
        "plot-data": (0, "136bd59888af8427bddda65cafe1460dc81c6290f1c57516beffd24a92ec713d", None),
    },
    "info karate": {
        "json": (0, "0c500d9c5f9d820b78e1057d50327d3aa5410a7946e86a39a8c4ded080994228", None),
        "csv": (0, "fb3e6420d9c50bd030e2b1030c1cf926bf9098a0f735b6bc8741e1f907bd410b", None),
        "plot-data": (0, "3e8f7c44fd54debde7c5bb0d328400bffb1aea0852b360bdd337fee587f28727", None),
    },
    "info triangles-bridge": {
        "json": (0, "dbabd927115079b711c6db99faf5fbfe8bdc26d13b23ea31be25182fcd3a0621", None),
        "csv": (0, "f12f8a6fcd2ea686dca42a896aef39c1a109c57b75459b2bb253e028a651d28c", None),
        "plot-data": (0, "c420eb2c592323a758798568fc2b5a12033d6c11b622b066d74afcf9a0106350", None),
    },
}


def _out_dir_digest(out: Path) -> "str | None":
    if not out.exists():
        return None
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("fmt", ["json", "csv", "plot-data"])
@pytest.mark.parametrize("command", sorted(_PINNED_OUTPUTS))
def test_command_outputs_match_pinned_digests(capsys, tmp_path: Path, command, fmt):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, *command.format(out=out).split(), "--format", fmt)
    outcome = (code, hashlib.sha256(stdout.encode()).hexdigest(), _out_dir_digest(out))
    assert outcome == _PINNED_OUTPUTS[command][fmt]


def test_info_karate(capsys):
    code, out, _ = run_cli(capsys, "info", "karate")
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["m"]) == (34, 78)
    assert doc["max_degree"] == 17
    assert doc["components"] == 1


def test_info_karate_reports_no_normalization(capsys):
    code, out, _ = run_cli(capsys, "info", "karate")
    assert code == 0
    assert json.loads(out)["report"] == {
        "self_loops_dropped": 0,
        "duplicate_edges_dropped": 0,
        "symmetrized": False,
        "weights_ignored": False,
    }


def test_info_c4(capsys):
    code, out, _ = run_cli(capsys, "info", "c4")
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["m"], doc["max_degree"]) == (4, 4, 2)


def test_info_plot_data_lists_every_degree(capsys):
    code, out, _ = run_cli(capsys, "info", "star4", "--format", "plot-data")
    assert code == 0
    assert out == "x,y,series\n0,3,degree\n1,1,degree\n2,1,degree\n3,1,degree\n"


def test_info_gml_path(capsys, tmp_path: Path):
    gml = tmp_path / "pair.gml"
    gml.write_text('graph [ node [ id 1 label "a" ] node [ id 2 label "b" ] '
                   "edge [ source 1 target 2 ] ]")
    code, out, _ = run_cli(capsys, "info", str(gml))
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["m"]) == (2, 1)
    assert doc["name"] == "pair.gml"


def test_info_reports_components_and_load_report(capsys, tmp_path: Path):
    path = tmp_path / "two.edgelist"
    path.write_text("0 1\n1 0\n2 2\n")
    code, out, _ = run_cli(capsys, "info", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["components"] == 2
    assert doc["report"]["duplicate_edges_dropped"] == 1
    assert doc["report"]["self_loops_dropped"] == 1


def test_info_parse_error_location(capsys, tmp_path: Path):
    path = tmp_path / "bad.edgelist"
    path.write_text("0 1\noops\n")
    code, _, err = run_cli(capsys, "info", str(path))
    assert code == 1
    assert "line 2" in err


def test_info_csv_format(capsys):
    code, out, _ = run_cli(capsys, "info", "path3", "--format", "csv")
    assert code == 0
    assert "n,3" in out.splitlines()


INFO_GML = """graph [
  directed 1
  node [ id 1 ]
  node [ id 2 ]
  node [ id 3 ]
  edge [ source 1 target 2 weight 2 ]
  edge [ source 2 target 1 ]
  edge [ source 2 target 3 ]
  edge [ source 3 target 3 ]
]
"""


def test_info_prints_the_load_report_exactly(capsys, tmp_path: Path):
    # a directed, weighted file with a self-loop and a duplicate edge sets
    # every field of the load report
    path = tmp_path / "report.gml"
    path.write_text(INFO_GML)
    note = ("note: load report: self_loops_dropped=1 duplicate_edges_dropped=1 "
            "symmetrized=true weights_ignored=true\n")
    assert run_cli(capsys, "info", str(path)) == (0, (
        "{\n"
        '  "components": 1,\n'
        '  "m": 2,\n'
        '  "max_degree": 2,\n'
        '  "n": 3,\n'
        '  "name": "report.gml",\n'
        '  "report": {\n'
        '    "duplicate_edges_dropped": 1,\n'
        '    "self_loops_dropped": 1,\n'
        '    "symmetrized": true,\n'
        '    "weights_ignored": true\n'
        "  }\n"
        "}\n"
    ), "")
    assert run_cli(capsys, "info", str(path), "--format", "csv") == (0, (
        "name,report.gml\nn,3\nm,2\nmax_degree,2\ncomponents,1\n"
        "self_loops_dropped,1\nduplicate_edges_dropped,1\nsymmetrized,true\nweights_ignored,true\n"
    ), "")
    code, _, err = run_cli(capsys, "run", str(path), "--timing", "async", "--tie", "prec-max")
    assert (code, err) == (0, note)


def test_run_coloring_out(capsys, tmp_path: Path):
    target = tmp_path / "stages.csv"
    code, _, _ = run_cli(capsys, "run", "c4", "--timing", "semi-sync", "--tie", "max",
                         "--coloring-out", str(target))
    assert code == 0
    assert target.read_text() == "vertex,color\n0,0\n1,1\n2,0\n3,1\n"


def test_run_coloring_out_requires_semi_sync(capsys, tmp_path: Path):
    code, _, err = run_cli(capsys, "run", "c4", "--timing", "sync", "--tie", "max",
                           "--coloring-out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "semi-sync" in err


def test_run_and_experiment_print_nontrivial_load_report(capsys, tmp_path: Path):
    path = tmp_path / "dirty.edgelist"
    path.write_text("0 1\n1 0\n1 2\n2 2\n")
    note = "note: load report: self_loops_dropped=1 duplicate_edges_dropped=1\n"
    code, out, err = run_cli(capsys, "run", str(path), "--tie", "max")
    assert code == 0
    assert err == note
    assert json.loads(out)["graph"]["m"] == 2
    code, _, err = run_cli(capsys, "experiment", str(path), "--trials", "1")
    assert code == 0
    assert err == note


def test_gml_load_report_flags_on_stderr(capsys, tmp_path: Path):
    gml = tmp_path / "w.gml"
    gml.write_text("graph [ directed 1 node [ id 1 ] node [ id 2 ] "
                   "edge [ source 1 target 2 weight 3 ] ]")
    code, _, err = run_cli(capsys, "run", str(gml), "--tie", "max")
    assert code == 0
    assert err == "note: load report: symmetrized=true weights_ignored=true\n"


def test_clean_input_prints_no_load_report(capsys):
    code, _, err = run_cli(capsys, "run", "karate", "--tie", "max")
    assert code == 0
    assert err == ""


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _load_outcome(load, source):
    """What a load gives: the graph and report, or the error and its line."""
    try:
        return load(source)[:2]
    except GraphParseError as exc:
        return str(exc), exc.line


def _assert_exit_matches_loader(path: Path, loader) -> None:
    # load_graph streams the open file; the loaders also take whole text
    outcome = _load_outcome(loader, path.read_text())
    assert _load_outcome(load_graph, str(path)) == outcome
    malformed = isinstance(outcome[0], str)
    code, err = _main_captured(["info", str(path)])
    assert "Traceback" not in err
    if malformed:
        assert code == 1
        assert err.startswith("error: ")
    else:
        assert code == 0


@settings(max_examples=300, deadline=None)
@given(text=gml_documents())
def test_cli_fuzzed_gml_exits_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.gml"
    path.write_text(text, encoding="utf-8")
    _assert_exit_matches_loader(path, load_gml)


@settings(max_examples=300, deadline=None)
@given(text=edge_list_documents)
def test_cli_fuzzed_edge_list_exits_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.edgelist"
    path.write_text(text, encoding="utf-8")
    _assert_exit_matches_loader(path, load_edge_list)


@pytest.mark.parametrize(
    "name, text, error_line",
    [
        ("crlf.edgelist", "# planted\r\na b\r\n\r\n#a c\r\nb  c\r\nc a\r\na b\r\nd d\r\n", None),
        ("bad.edgelist", "# planted\r\na b\r\n\r\nb c d\r\n", 4),
        ("crlf.gml", 'Creator "t"\r\ngraph\r\n[ # nodes\r\n  node [ id 1 label "a" ]\r\n'
         '  node\r\n  [\r\n    id 2\r\n  ]\r\n  edge [ source 2 target 1 value 3 ]\r\n]\r\n', None),
        ("bad.gml", "graph [\r\n  node [ id 1 ]\r\n  # x\r\n  edge [ source 1 ]\r\n]\r\n", 4),
        ("bom.edgelist", "\ufeff1 2\n3 1\n2 3\n", None),
        ("bom.gml", '\ufeffgraph [ node [ id 1 ] node [ id 2 ] edge [ source 1 target 2 ] ]\n', None),
    ],
)
def test_load_graph_streams_the_file_like_the_text_loader(tmp_path: Path, monkeypatch, name, text, error_line):
    path = tmp_path / name
    path.write_bytes(text.encode())
    loader = load_gml if name.endswith(".gml") else load_edge_list
    # a leading byte-order mark is skipped: the outcome is the text's without it
    outcome = _load_outcome(loader, path.read_text(encoding="utf-8").removeprefix("\ufeff"))
    assert _load_outcome(load_graph, str(path)) == outcome
    if text.startswith("\ufeff"):  # and in the numpy reader and assembly
        monkeypatch.setattr(graphs, "ARRAY_MIN_EDGES", 0)
        assert _load_outcome(load_graph, str(path)) == outcome
    if error_line is None:
        assert outcome[0].m == (1 if name.endswith(".gml") else 3)
    else:
        assert outcome[1] == error_line


def _readme_code_blocks():
    """README's fenced code blocks as (language, body) pairs."""
    blocks, language, body = [], None, []
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines():
        if not line.startswith("```"):
            body.append(line)
        elif language is None:
            language, body = line[3:], []
        else:
            blocks.append((language, "\n".join(body) + "\n"))
            language = None
    return blocks


def test_readme_examples_run(capsys, monkeypatch, tmp_path):
    # the library example and every `labelprop ...` line of the CLI block,
    # run from tmp_path so that `--out` writes there
    monkeypatch.chdir(tmp_path)
    blocks = _readme_code_blocks()
    (python,) = [body for language, body in blocks if language == "python"]
    exec(compile(python, "README.md", "exec"), {})
    modularity, steps, stages = capsys.readouterr().out.split()
    assert -0.5 <= float(modularity) <= 1 and int(steps) >= 1 and int(stages) >= 1
    commands = [line.split()[1:] for language, body in blocks if language == ""
                for line in body.splitlines() if line.startswith("labelprop ")]
    assert len(commands) == 5
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out
    assert any((tmp_path / "results").iterdir())


def test_readme_per_trial_csv_header_is_trials_csvs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = readme.split("Per-trial CSV (one row per trial):\n\n```\n", 1)[1].split("\n", 1)[0]
    setting = TestSetting(TimingModel.SYNCHRONOUS, fixtures.graph("c4"), TieStrategy.MAX, trials=1)
    assert trials_csv(run_experiment(setting)).splitlines()[0] == documented


_NON_ASCII_GRAPHS = {
    "names.gml": 'graph [\n  node [ id 1 label "\u00e9" ]\n  node [ id 2 label "b" ]\n  node [ id 3 ]\n'
                 '  edge [ source 1 target 2 ]\n  edge [ source 2 target 3 ]\n]\n',
    "names.edgelist": "\u00e9 b\nb c\nc \u00e9\nc d\n",
}


@pytest.mark.parametrize("name", sorted(_NON_ASCII_GRAPHS))
def test_graph_files_read_as_utf8_whatever_the_locale(tmp_path: Path, name):
    # an ASCII locale's default encoding cannot decode the e-acute
    path = tmp_path / name
    path.write_text(_NON_ASCII_GRAPHS[name], encoding="utf-8")
    src = str(Path(labelprop.__file__).resolve().parents[1])
    outputs = []
    for locale in ({"PYTHONUTF8": "1"}, {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}):
        coloring = tmp_path / f"coloring-{len(outputs)}.csv"
        done = subprocess.run(
            [sys.executable, "-m", "labelprop.cli", "run", str(path), "--format", "csv",
             "--coloring-out", str(coloring)],
            env=dict(os.environ, PYTHONPATH=src, **locale), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs.append((done.stdout, coloring.read_bytes()))
    assert outputs[1] == outputs[0]
