"""What importing markovseq loads, and what each CLI command's process loads.

``import markovseq`` resolves its public names on first use, and a CLI
process imports only the modules of the command it runs.  Each command
runs here in its own interpreter, as ``python -m markovseq.cli`` would,
and the modules it loaded are read from ``sys.modules`` at exit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import markovseq
import markovseq.cli
from markovseq import build_hmm, build_mhmm, model_to_json

from helpers import make_alphabets, write_manifest

ENV = dict(os.environ, PYTHONPATH=str(Path(markovseq.__file__).parents[1]))

# runs ``markovseq.cli`` as ``-m`` does, then writes the loaded module names
_MODULES_AT_EXIT = """
import atexit, json, runpy, sys
report, sys.argv = sys.argv[1], ["markovseq", *sys.argv[2:]]
def dump():
    with open(report, "w") as fh:
        json.dump(sorted(sys.modules), fh)
atexit.register(dump)
runpy.run_module("markovseq.cli", run_name="__main__", alter_sys=True)
"""

READERS = {"errors", "seqdata"}
SCORING = READERS | {"model", "inference"}

# per command: extra arguments, and exactly the markovseq modules it loads
COMMANDS = {
    "validate": ([], READERS),
    "convert": ([], READERS),
    "plot": ([], READERS | {"svgplot"}),
    "simulate": (["--n-subjects", "3", "--n-time", "4"], READERS | {"model", "simulate"}),
    "loglik": ([], SCORING),
    "bic": ([], SCORING),
    "viterbi": ([], SCORING),
    "posterior": ([], SCORING | {"floattext"}),
    "trim": (["--trim-tol", "0.01"], SCORING),
    "summary": ([], SCORING),
    "fit": (
        ["--em-max-iter", "2", "--local-step", "--local-max-iter", "2"],
        SCORING | {"estimation"},
    ),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(3)
    rows = [list(rng.choice(["c0m0", "c0m1", "*"], size=5, p=[0.45, 0.45, 0.1]))
            for _ in range(6)]
    manifest = write_manifest(tmp, [("c0", ["c0m0", "c0m1"], rows)])
    alphabets = make_alphabets([2])
    hmms = [build_hmm(alphabets, n_states=2, rng_seed=s, channel_names=("c0",)) for s in (1, 2)]
    for name, model in (("hmm.json", hmms[0]), ("mix.json", build_mhmm(hmms))):
        (tmp / name).write_text(json.dumps(model_to_json(model)))
    return tmp, manifest


def _loaded(tmp, argv):
    report = tmp / "modules.json"
    done = subprocess.run(
        [sys.executable, "-c", _MODULES_AT_EXIT, str(report), *argv],
        env=ENV, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(report.read_text())


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_command_loads_only_its_modules(inputs, tmp_path, command):
    tmp, manifest = inputs
    extra, expected = COMMANDS[command]
    model = tmp / ("mix.json" if command == "summary" else "hmm.json")
    argv = [command, "--out", str(tmp_path / "out"), "--threads", "1", *extra]
    if command != "simulate":
        argv += ["--manifest", str(manifest)]
    if command not in ("validate", "convert", "plot"):
        argv += ["--model", str(model)]
    loaded = _loaded(tmp_path, argv)
    ours = {m.split(".", 1)[1] for m in loaded if m.startswith("markovseq.")}
    assert ours == expected
    assert "concurrent.futures" not in loaded


def test_a_bare_import_loads_no_submodule_and_no_numpy():
    probe = "import json, sys, markovseq; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env=ENV, capture_output=True,
                          text=True, check=True)
    loaded = json.loads(done.stdout)
    assert [m for m in loaded if m.split(".")[0] in ("markovseq", "numpy")] == ["markovseq"]


def test_a_star_import_binds_exactly_all():
    space = {}
    exec("from markovseq import *", space)
    assert set(space) - {"__builtins__"} == set(markovseq.__all__)
    assert len(markovseq.__all__) == len(set(markovseq.__all__))


def test_dir_lists_every_public_name():
    assert set(markovseq.__all__) <= set(dir(markovseq))


@pytest.mark.parametrize("module", [markovseq, markovseq.cli], ids=["markovseq", "cli"])
def test_an_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")
