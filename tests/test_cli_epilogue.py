"""``cli.main`` is the one place a command's outputs are written.

This reads ``src/markovseq/cli.py`` and checks that no code outside ``main``
prints, writes ``run.log`` or names a ``<command>_result.json`` file, and
that every ``_cmd_*`` handler returns a ``_Done`` record for ``main`` to
write.  It then checks the one usage error a handler raises.
"""

import ast
import json
from pathlib import Path

from markovseq import Alphabet, build_hmm, model_to_json
from markovseq.cli import _HANDLERS, main

from helpers import write_manifest

CLI = Path(__file__).resolve().parents[1] / "src" / "markovseq" / "cli.py"


def _top_level():
    return ast.parse(CLI.read_text()).body


def _outside_main():
    """Every node of cli.py outside the function ``main``."""
    return [
        node
        for top in _top_level()
        if not (isinstance(top, ast.FunctionDef) and top.name == "main")
        for node in ast.walk(top)
    ]


def test_only_main_prints_or_writes_the_log():
    called = {
        node.func.id
        for node in _outside_main()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert not called & {"print", "_write_log"}
    streams = {
        node.attr
        for node in _outside_main()
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
    }
    assert not streams & {"stdout", "stderr"}


def test_only_main_names_a_result_file():
    names = [
        node.value
        for node in _outside_main()
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.endswith("_result.json")
    ]
    assert names == []


def test_every_handler_returns_the_record():
    handlers = {
        top.name: top
        for top in _top_level()
        if isinstance(top, ast.FunctionDef) and top.name.startswith("_cmd_")
    }
    assert set(handlers) == {handler.__name__ for handler, _ in _HANDLERS.values()}
    for name, function in handlers.items():
        assert isinstance(function.returns, ast.Name) and function.returns.id == "_Done", name
        returns = [node for node in ast.walk(function) if isinstance(node, ast.Return)]
        assert returns, name
        for node in returns:
            call = node.value
            assert isinstance(call, ast.Call) and isinstance(call.func, ast.Name), name
            assert call.func.id == "_Done", name


def _coin(tmp_path):
    """A manifest of two subjects and a one-state HMM file for it."""
    manifest = write_manifest(tmp_path, [("work", ["a", "b"], [["a", "b"], ["b", "a"]])])
    hmm = build_hmm(
        (Alphabet(("a", "b")),), initial=[1.0], transition=[[1.0]],
        emissions=[[0.5, 0.5]], channel_names=("work",),
    )
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_to_json(hmm)))
    return manifest, model


def test_summary_of_an_hmm_is_a_usage_error(tmp_path, capsys):
    manifest, model = _coin(tmp_path)
    out = tmp_path / "out"
    code = main(["summary", "--manifest", str(manifest), "--model", str(model),
                 "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: summary requires a mixture model\n"
    assert sorted(p.name for p in out.iterdir()) == ["run.log"]
    assert (out / "run.log").read_text() == "markovseq summary\n"


def test_stdout_follows_format(tmp_path, capsys):
    """csv prints the table for viterbi and posterior and the text lines for
    every other command; json prints the record, or the part stdout shows."""
    manifest, model = _coin(tmp_path)
    shown = {}
    for command in ("loglik", "viterbi"):
        for fmt in ("text", "json", "csv"):
            out = tmp_path / f"{command}-{fmt}"
            argv = [command, "--manifest", str(manifest), "--model", str(model),
                    "--out", str(out), "--format", fmt]
            assert main(argv) == 0
            shown[command, fmt] = capsys.readouterr().out
    result = json.loads((tmp_path / "loglik-text" / "loglik_result.json").read_text())
    assert shown["loglik", "text"] == shown["loglik", "csv"] == f"{result['loglik']}\n"
    assert json.loads(shown["loglik", "json"]) == result
    assert shown["viterbi", "text"] == "viterbi: wrote paths for 2 subjects\n"
    assert json.loads(shown["viterbi", "json"]) == {"paths_csv": "paths.csv"}
    assert shown["viterbi", "csv"] == (tmp_path / "viterbi-csv" / "paths.csv").read_text()
