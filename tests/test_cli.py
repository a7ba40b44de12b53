import contextlib
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
from labelprop.cli import load_graph, main
from labelprop.graphs import GraphParseError, load_edge_list, load_gml


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


def test_experiment_on_an_edgeless_graph_reports_nan_modularity(capsys, tmp_path: Path):
    # run prints modularity=None here; experiment leaves every trial's NaN
    # out of the aggregate instead of failing.
    path = tmp_path / "edgeless.txt"
    path.write_text("a a\nb b\n")
    code, out, _ = run_cli(capsys, "experiment", str(path), "--trials", "3")
    assert code == 0
    summary = json.loads(out)["summaries"][0]
    assert summary["modularity"]["mean"] != summary["modularity"]["mean"]  # NaN
    assert summary["communities"] == {"mean": 2.0, "std": 0.0}
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    assert json.loads(out)["result"]["modularity"] is None


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
    ],
)
def test_load_graph_streams_the_file_like_the_text_loader(tmp_path: Path, name, text, error_line):
    path = tmp_path / name
    path.write_bytes(text.encode())
    loader = load_gml if name.endswith(".gml") else load_edge_list
    outcome = _load_outcome(loader, path.read_text())
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
