import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import markovseq
from markovseq import (
    Alphabet,
    Channel,
    CovariateDesign,
    FitControl,
    SequenceDataset,
    build_hmm,
    build_mhmm,
    fit_model,
    model_to_json,
    simulate_hmm_data,
    simulate_mhmm_data,
)
from markovseq.cli import _csv_table, _safe_name, _times, _write_dataset_files, main
from markovseq.errors import EmptyDataset

from helpers import random_dataset, random_hmm, strict_json, write_manifest


@pytest.fixture
def workspace(tmp_path):
    manifest = write_manifest(
        tmp_path,
        [("work", ["a", "b"], [["a", "a", "b", "a"], ["b", "a", "*", "b"]])],
    )
    return tmp_path, manifest


def _model_file(tmp_path, model, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(model_to_json(model), indent=2))
    return path


def _coin_model(labels=("a", "b")):
    from markovseq import Alphabet

    return build_hmm(
        (Alphabet(tuple(labels)),),
        initial=[1.0],
        transition=[[1.0]],
        emissions=[[0.5, 0.5]],
        channel_names=("work",),
    )


_SCIPY_FREE_PROBE = """
import json, sys
before = {m.split(".")[0] for m in sys.modules}
from markovseq import *  # every module: a bare import loads none
imported = sorted({m.split(".")[0] for m in sys.modules} - before - set(sys.stdlib_module_names))
from markovseq.cli import main

work = sys.argv[1]
def run(*argv):
    return main([*argv, "--out", work + "/out_" + argv[0]])

codes = [run("validate", "--manifest", work + "/manifest.json")]
for mode in ("scaled", "logspace"):
    for cmd in ("loglik", "bic", "viterbi", "posterior"):
        codes.append(run(cmd, "--manifest", work + "/manifest.json",
                         "--model", work + "/hmm.json", "--mode", mode))
codes.append(run("summary", "--manifest", work + "/manifest.json",
                 "--model", work + "/mix.json"))
codes.append(run("fit", "--manifest", work + "/manifest.json", "--model", work + "/hmm.json",
                 "--em-max-iter", "3"))
codes.append(main(["fit", "--manifest", work + "/manifest.json", "--model", work + "/hmm.json",
                  "--em-max-iter", "3", "--local-step", "--local-max-iter", "3",
                  "--out", work + "/out_local"]))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "imported": imported, "loaded": loaded}))
"""


def test_no_stage_loads_scipy(tmp_path):
    rng = np.random.default_rng(12)
    rows = [list(rng.choice(["a", "b", "*"], size=6, p=[0.45, 0.45, 0.1])) for _ in range(8)]
    write_manifest(tmp_path, [("work", ["a", "b"], rows)])
    hmm = build_hmm(_coin_model().alphabets, n_states=2, rng_seed=5, channel_names=("work",))
    _model_file(tmp_path, hmm, "hmm.json")
    clusters = [
        build_hmm(_coin_model().alphabets, n_states=2, rng_seed=s, channel_names=("work",))
        for s in (6, 7)
    ]
    _model_file(tmp_path, build_mhmm(clusters), "mix.json")
    env = dict(os.environ, PYTHONPATH=str(Path(markovseq.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["imported"] == ["markovseq", "numpy"]
    assert report["codes"] == [0] * 12
    assert report["loaded"] == []
    fit = json.loads((tmp_path / "out_local" / "fit_result.json").read_text())
    assert fit["local_iterations"] > 0


class TestValidate:
    def test_reports_shape(self, workspace, capsys):
        tmp_path, manifest = workspace
        out = tmp_path / "out"
        assert main(["validate", "--manifest", str(manifest), "--out", str(out)]) == 0
        result = json.loads((out / "validate_result.json").read_text())
        assert result["n_subjects"] == 2
        assert result["n_time"] == 4
        assert result["channels"][0]["missing_cells"] == 1
        assert (out / "run.log").exists()

    def test_missing_manifest_exits_one(self, tmp_path, capsys):
        code = main(
            ["validate", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 1

    def test_bad_subcommand_exits_two(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exits_two(self):
        assert main(["validate"]) == 2


class TestLoglik:
    def test_deterministic_consistent_pair_prints_zero(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, [("work", ["a", "b"], [["a", "b", "b"]])])
        model = build_hmm(
            _coin_model().alphabets,
            initial=[1.0, 0.0],
            transition=[[0.0, 1.0], [0.0, 1.0]],
            emissions=[[1.0, 0.0], [0.0, 1.0]],
            channel_names=("work",),
        )
        mpath = _model_file(tmp_path, model)
        out = tmp_path / "out"
        code = main(
            ["loglik", "--manifest", str(manifest), "--model", str(mpath), "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.0"

    def test_unknown_token_error_named_on_stderr(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, [("work", ["a", "b"], [["a", "q"]])])
        mpath = _model_file(tmp_path, _coin_model())
        code = main(
            ["loglik", "--manifest", str(manifest), "--model", str(mpath), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "UnknownToken" in capsys.readouterr().err

    def test_corrupt_model_json_exits_one(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, [("work", ["a", "b"], [["a", "b"]])])
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(
            ["loglik", "--manifest", str(manifest), "--model", str(bad), "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("InvalidJson: model file ")
        assert "bad.json" in err

    @pytest.mark.parametrize("content", [b"", b"\xff\xfe{}"])
    def test_model_that_is_not_json_exits_one(self, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = tmp_path / "out"
        code = main(
            ["simulate", "--model", str(bad), "--n-subjects", "2", "--n-time", "3",
             "--out", str(out)]
        )
        assert code == 1
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.startswith(f"error: InvalidJson: model file {str(bad)!r} is not JSON")

    def test_manifest_that_is_not_json_exits_one(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert main(["validate", "--manifest", str(bad), "--out", str(out)]) == 1
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.startswith(f"error: InvalidJson: manifest {str(bad)!r} is not JSON")

    def test_missing_manifest_logs_error(self, tmp_path, capsys):
        mpath = _model_file(tmp_path, _coin_model())
        out = tmp_path / "out"
        code = main(
            ["loglik", "--manifest", str(tmp_path / "nope.json"), "--model", str(mpath),
             "--out", str(out)]
        )
        assert code == 1
        last = (out / "run.log").read_text().splitlines()[-1]
        nope = str(tmp_path / "nope.json")
        assert last.startswith(f"error: UnreadableFile: manifest {nope!r} cannot be read: ")

    def test_model_row_not_summing_to_one_exits_one(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, [("work", ["a", "b"], [["a", "b"]])])
        doc = model_to_json(_coin_model())
        doc["emissions"][0][0] = ["0.5", "0.8"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(
            ["loglik", "--manifest", str(manifest), "--model", str(bad), "--out", str(tmp_path)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("RowSumError")

    def test_duplicate_state_names_exit_one(self, workspace):
        tmp_path, manifest = workspace
        two_state = build_hmm(
            _coin_model().alphabets,
            initial=[0.5, 0.5],
            transition=[[0.9, 0.1], [0.1, 0.9]],
            emissions=[[0.6, 0.4], [0.4, 0.6]],
            channel_names=("work",),
        )
        doc = model_to_json(two_state)
        doc["state_names"] = ["S", "S"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(
            ["loglik", "--manifest", str(manifest), "--model", str(bad), "--out", str(out)]
        )
        assert code == 1
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.startswith("error: DuplicateLabel: ")

    @pytest.mark.parametrize(
        "flags", [["fit", "--em-rel-tol", "nan"], ["trim", "--trim-tol", "nan"]]
    )
    def test_nan_tolerance_exits_one(self, workspace, flags):
        tmp_path, manifest = workspace
        mpath = _model_file(tmp_path, _coin_model())
        out = tmp_path / "out"
        code = main(
            [*flags, "--manifest", str(manifest), "--model", str(mpath), "--out", str(out)]
        )
        assert code == 1
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.startswith("error: InvalidParameter: ")

    @pytest.mark.parametrize("where", ["gamma", "zero_mask"])
    def test_invalid_parameter_on_load_exits_one(self, workspace, capsys, where):
        tmp_path, manifest = workspace
        doc = model_to_json(build_mhmm([_coin_model(), _coin_model()]))
        if where == "gamma":
            doc["gamma"][0][1] = "inf"
        else:
            doc["clusters"][1]["zero_mask"]["emissions"][0][0] = [1, 0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(
            ["loglik", "--manifest", str(manifest), "--model", str(bad), "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("InvalidParameter")
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.startswith("error: InvalidParameter: ")
        assert ("gamma" in last) == (where == "gamma")

    @pytest.mark.parametrize(
        "fault, named",
        [("initial", "initial entry True"), ("gamma", "gamma entry False"),
         ("mixture", "'mixture'"), (7, "7"), (None, "None"), ("MHMM", "'MHMM'")],
    )
    def test_boolean_entry_or_unknown_type_exits_one(self, workspace, capsys, fault, named):
        tmp_path, manifest = workspace
        mixture = fault in ("gamma", "MHMM")
        doc = model_to_json(build_mhmm([_coin_model()] * 2) if mixture else _coin_model())
        if fault == "initial":
            doc["initial"] = [True]
        elif fault == "gamma":
            doc["gamma"] = [[False, True]]
        else:
            doc["type"] = fault
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(
            ["loglik", "--manifest", str(manifest), "--model", str(bad), "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("InvalidParameter")
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.startswith("error: InvalidParameter: ") and named in last

    def test_dataset_without_time_points_exits_one(self, tmp_path, capsys):
        (tmp_path / "work.csv").write_text("id\ns1\ns2\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"channels": [{"name": "work", "csv": "work.csv", "alphabet": ["a", "b"]}]}
        ))
        mpath = _model_file(tmp_path, _coin_model())
        code = main(
            ["loglik", "--manifest", str(manifest), "--model", str(mpath), "--out", str(tmp_path)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("ShapeMismatch")


class TestUnreadableInput:
    """Each input file of a run, broken in turn: exit 1 with a typed error
    that names the file."""

    @staticmethod
    def _loglik(tmp_path, broken=None, content=None):
        manifest = write_manifest(
            tmp_path,
            [("work", ["a", "b"], [["a", "b"], ["b", "a"]])],
            covariate_rows=[[0.5], [1.0]],
            covariate_names=["age"],
        )
        model = _model_file(tmp_path, _coin_model())
        if broken is not None:
            (tmp_path / broken).unlink()
            if content == "directory":
                (tmp_path / broken).mkdir()
            elif content is not None:
                (tmp_path / broken).write_bytes(content)
        out = tmp_path / "out"
        code = main(
            ["loglik", "--manifest", str(manifest), "--model", str(model), "--out", str(out)]
        )
        return code, (out / "run.log").read_text().splitlines()[-1]

    def test_intact_files_exit_zero(self, tmp_path):
        assert self._loglik(tmp_path)[0] == 0

    @pytest.mark.parametrize("content", [None, "directory", b"id,t1,t2\ns1,a,\xff\n"])
    @pytest.mark.parametrize(
        "broken", ["work.csv", "covariates.csv", "manifest.json", "model.json"]
    )
    def test_missing_directory_or_not_utf8_exits_one(self, tmp_path, broken, content):
        code, last = self._loglik(tmp_path, broken, content)
        assert code == 1
        # a manifest or model file that is not UTF-8 is not JSON either
        not_json = isinstance(content, bytes) and broken.endswith(".json")
        error = "InvalidJson" if not_json else "UnreadableFile"
        assert last.startswith(f"error: {error}: ")
        assert repr(str(tmp_path / broken)) in last

    @pytest.mark.parametrize("broken", ["work.csv", "covariates.csv"])
    def test_field_over_csv_limit_exits_one(self, tmp_path, broken):
        cell = "a" * (csv.field_size_limit() + 1)
        code, last = self._loglik(tmp_path, broken, f"id,t1,t2\ns1,a,{cell}\n".encode())
        assert code == 1
        assert last.startswith("error: UnreadableFile: ")
        assert "field larger than field limit" in last


class TestUnwritableOutput:
    """An --out that cannot be created, or an artifact in it that cannot be
    written: exit 1 with a typed error that names the path."""

    @staticmethod
    def _loglik(tmp_path, manifest, out):
        mpath = _model_file(tmp_path, _coin_model())
        return main(["loglik", "--manifest", str(manifest), "--model", str(mpath),
                     "--out", str(out)])

    def test_out_under_a_file_exits_one(self, workspace, capsys):
        tmp_path, manifest = workspace
        out = tmp_path / "work.csv" / "sub"
        assert self._loglik(tmp_path, manifest, out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"UnwritableOutput: output {str(out)!r} cannot be written: ")

    @pytest.mark.parametrize("artifact", ["loglik_result.json", "run.log"])
    def test_artifact_that_cannot_be_written_exits_one(self, workspace, capsys, artifact):
        tmp_path, manifest = workspace
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        assert self._loglik(tmp_path, manifest, out) == 1
        named = f"UnwritableOutput: output {str(out / artifact)!r} cannot be written: "
        assert capsys.readouterr().err.startswith(named)
        if artifact != "run.log":
            assert (out / "run.log").read_text().splitlines()[-1].startswith("error: " + named)


def test_repeated_covariate_names_in_model_exit_one(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path,
        [("work", ["a", "b"], [["a", "b"], ["b", "a"]])],
        covariate_rows=[[0.5, 1.0], [1.0, -1.0]],
        covariate_names=["x", "y"],
    )
    design = CovariateDesign(("(Intercept)", "x", "y"), np.ones((2, 3)))
    doc = model_to_json(build_mhmm([_coin_model(), _coin_model()], covariates=design))
    doc["covariate_names"] = ["(Intercept)", "x", "x"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["loglik", "--manifest", str(manifest), "--model", str(bad), "--out", str(out)])
    assert code == 1
    last = (out / "run.log").read_text().splitlines()[-1]
    assert last.startswith("error: DuplicateLabel: duplicate covariate names")
    assert capsys.readouterr().err.startswith("DuplicateLabel")


@pytest.mark.parametrize(
    "text, error",
    [
        ("id,x\ns1,1\ns2,2\ns1,5\n", "ShapeMismatch"),
        ("id,x,x\ns1,1,2\ns2,3,4\n", "DuplicateLabel"),
        ("id,(Intercept)\ns1,1\ns2,1\n", "DuplicateLabel"),
    ],
    ids=["repeated id", "repeated column", "intercept column"],
)
def test_validate_rejects_covariate_duplicates(tmp_path, capsys, text, error):
    manifest = write_manifest(
        tmp_path,
        [("work", ["a", "b"], [["a", "b"], ["b", "a"]])],
        covariate_rows=[[0.5], [1.0]],
        covariate_names=["x"],
    )
    (tmp_path / "covariates.csv").write_text(text)
    out = tmp_path / "out"
    assert main(["validate", "--manifest", str(manifest), "--out", str(out)]) == 1
    last = (out / "run.log").read_text().splitlines()[-1]
    assert last.startswith(f"error: {error}: ")
    assert f"{error}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n-subjects", "2", "--n-time", "3", "--seed", "-1"],
        ["fit", "--manifest", "MANIFEST", "--restarts", "1", "--seed", "-5"],
    ],
)
def test_negative_seed_exits_one(workspace, argv):
    tmp_path, manifest = workspace
    mpath = _model_file(tmp_path, _coin_model())
    out = tmp_path / "out"
    argv = [str(manifest) if a == "MANIFEST" else a for a in argv]
    assert main([*argv, "--model", str(mpath), "--out", str(out)]) == 1
    last = (out / "run.log").read_text().splitlines()[-1]
    assert last.startswith("error: InvalidParameter: ") and "seed" in last


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--em-max-iter", "-3"], "em_max_iter"),
        (["--local-step", "--local-max-iter", "-1"], "local_max_iter"),
    ],
)
def test_negative_iteration_cap_exits_one(workspace, capsys, flags, name):
    tmp_path, manifest = workspace
    mpath = _model_file(tmp_path, _coin_model())
    out = tmp_path / "out"
    argv = ["fit", "--manifest", str(manifest), "--model", str(mpath), *flags]
    assert main([*argv, "--out", str(out)]) == 1
    last = (out / "run.log").read_text().splitlines()[-1]
    assert last == f"error: InvalidParameter: {name} must be >= 0, got {flags[-1]}"
    assert capsys.readouterr().err.startswith("InvalidParameter")
    assert not (out / "fit_result.json").exists()


class TestFit:
    def test_fit_writes_artifacts_and_increases_loglik(self, workspace, capsys):
        tmp_path, manifest = workspace
        rng = np.random.default_rng(0)
        start = build_hmm(_coin_model().alphabets, n_states=2, rng_seed=3, channel_names=("work",))
        mpath = _model_file(tmp_path, start)
        out = tmp_path / "fit_out"
        code = main(
            [
                "fit",
                "--manifest",
                str(manifest),
                "--model",
                str(mpath),
                "--em-max-iter",
                "100",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        fit_result = json.loads((out / "fit_result.json").read_text())
        assert (out / "model_fitted.json").exists()
        # the reported loglik is reproduced by `loglik` on the emitted model
        out2 = tmp_path / "check"
        main(
            [
                "loglik",
                "--manifest",
                str(manifest),
                "--model",
                str(out / "model_fitted.json"),
                "--out",
                str(out2),
            ]
        )
        ll = json.loads((out2 / "loglik_result.json").read_text())["loglik"]
        assert abs(ll - fit_result["loglik"]) < 1e-12
        assert "threads" not in fit_result["control"]

    def test_fit_without_optional_flags_runs_fit_control_defaults(self, workspace):
        from markovseq.estimation import FitControl

        tmp_path, manifest = workspace
        start = build_hmm(_coin_model().alphabets, n_states=2, rng_seed=1, channel_names=("work",))
        out = tmp_path / "out"
        argv = ["fit", "--manifest", str(manifest), "--model", str(_model_file(tmp_path, start))]
        assert main([*argv, "--out", str(out)]) == 0
        fit_result = json.loads((out / "fit_result.json").read_text())
        assert fit_result["control"] == FitControl().to_dict()

    def test_fit_deterministic_across_thread_counts(self, workspace):
        tmp_path, manifest = workspace
        start = build_hmm(_coin_model().alphabets, n_states=2, rng_seed=1, channel_names=("work",))
        mpath = _model_file(tmp_path, start)
        outputs = []
        for threads, name in ((1, "t1"), (4, "t4")):
            out = tmp_path / name
            code = main(
                [
                    "fit",
                    "--manifest",
                    str(manifest),
                    "--model",
                    str(mpath),
                    "--threads",
                    str(threads),
                    "--seed",
                    "11",
                    "--restarts",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outputs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out.iterdir())
                }
            )
        assert outputs[0] == outputs[1]

    def test_squarem_fit_identical_across_thread_counts(self, tmp_path):
        # N = 1100 spans three kernel chunks; SQUAREM's accept/reject
        # decisions compare log-likelihoods, so they must not depend on threads
        rng = np.random.default_rng(410)
        truth = random_hmm(rng, 3, [4, 3])
        data, _ = simulate_hmm_data(truth, 1100, 8, 0, missing_rate=0.1)
        _write_dataset_files(data, tmp_path, "dataset")
        mpath = _model_file(tmp_path, random_hmm(rng, 3, [4, 3]))
        outputs = []
        for threads in (1, 3):
            out = tmp_path / f"t{threads}"
            code = main(
                [
                    "fit",
                    "--manifest", str(tmp_path / "dataset_manifest.json"),
                    "--model", str(mpath),
                    "--restarts", "1",
                    "--em-rel-tol", "1e-8",
                    "--local-step",
                    "--local-max-iter", "5",
                    "--threads", str(threads),
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        fit = json.loads(outputs[0]["fit_result.json"])
        assert 0 < fit["em_iterations"] < 1000

    def test_line_search_failure_identical_across_thread_counts(self, tmp_path):
        # 1100 subjects span three kernel chunks; a tolerance of 5e-324 (the
        # smallest positive double) is never met, so the local step ends
        # when its line search does
        rng = np.random.default_rng(400)
        truth = random_hmm(rng, 2, [3])
        data, _ = simulate_hmm_data(truth, 1100, 5, 0, missing_rate=0.1)
        _write_dataset_files(data, tmp_path, "dataset")
        mpath = _model_file(tmp_path, truth)
        blobs = []
        for threads in (1, 3):
            out = tmp_path / f"t{threads}"
            code = main(
                [
                    "fit",
                    "--manifest", str(tmp_path / "dataset_manifest.json"),
                    "--model", str(mpath),
                    "--em-max-iter", "300",
                    "--em-rel-tol", "1e-10",
                    "--local-step",
                    "--local-max-iter", "100000",
                    "--local-grad-tol", "5e-324",
                    "--threads", str(threads),
                    "--out", str(out),
                ]
            )
            assert code == 0
            blobs.append((out / "fit_result.json").read_bytes())
        assert blobs[0] == blobs[1]
        fit = json.loads(blobs[0])
        assert fit["diagnostics"] == ["line_search_failure: returning best point found"]
        assert fit["converged_by"] == "line_search"
        assert 0 < fit["local_iterations"] < 100000

    @staticmethod
    def _fit(tmp_path, *flags):
        """fit_result.json of a fit on 300 simulated subjects with 10% missing."""
        rng = np.random.default_rng(33)
        if not (tmp_path / "dataset_manifest.json").exists():
            data, _ = simulate_hmm_data(random_hmm(rng, 3, [4, 2]), 300, 12, 0, missing_rate=0.1)
            _write_dataset_files(data, tmp_path, "dataset")
            _model_file(tmp_path, random_hmm(rng, 3, [4, 2]))
        out = tmp_path / "_".join(["fit", *flags])
        argv = ["fit", "--manifest", str(tmp_path / "dataset_manifest.json"),
                "--model", str(tmp_path / "model.json"), "--em-max-iter", "20",
                "--local-max-iter", "3", "--out", str(out), *flags]
        assert main(argv) == 0
        return out, json.loads((out / "fit_result.json").read_text())

    @pytest.mark.parametrize("local_step", [False, True])
    def test_fit_builds_no_workspace_beyond_its_fit(self, tmp_path, monkeypatch, local_step):
        # one for EM and one for the local step; the criteria reuse the fit's log-likelihood
        from markovseq import estimation, inference

        built = []

        class Counted(inference._Workspace):
            def __init__(self, data):
                built.append(data.n_subjects)
                super().__init__(data)

        monkeypatch.setattr(inference, "_Workspace", Counted)
        monkeypatch.setattr(estimation, "_Workspace", Counted)
        self._fit(tmp_path, *["--local-step"] * local_step)
        assert built == [300] * (1 + local_step)

    @pytest.mark.parametrize("mode", ["scaled", "logspace"])
    def test_fit_bic_is_that_of_the_loglik_it_reports(self, tmp_path, mode):
        from markovseq import ingest_dataset, information_criteria, model_from_json

        out, fit = self._fit(tmp_path, "--mode", mode)
        assert fit["bic"] == -2.0 * fit["loglik"] + fit["p"] * np.log(fit["nobs"])
        # the same fit in either mode; in scaled mode the bic command's figure
        assert self._fit(tmp_path)[1] == fit
        data, _ = ingest_dataset(tmp_path / "dataset_manifest.json")
        fitted = model_from_json(json.loads((out / "model_fitted.json").read_text()))
        if mode == "scaled":
            assert information_criteria(fitted, data).bic == fit["bic"]


class TestViterbi:
    def test_markov_model_paths_equal_observations(self, tmp_path):
        rows = [["a", "a", "b"], ["a", "b", "b"]]
        manifest = write_manifest(tmp_path, [("work", ["a", "b"], rows)])
        from markovseq import build_mm, ingest_dataset

        data, _ = ingest_dataset(manifest)
        mm = build_mm(data)
        mpath = _model_file(tmp_path, mm)
        out = tmp_path / "out"
        code = main(
            ["viterbi", "--manifest", str(manifest), "--model", str(mpath), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "paths.csv").read_text().strip().splitlines()
        assert lines[0] == "subject_id,t,state"
        decoded = {}
        for line in lines[1:]:
            sid, t, state = line.split(",")
            decoded.setdefault(sid, []).append(state)
        assert decoded["s1"] == rows[0]
        assert decoded["s2"] == rows[1]

    @pytest.mark.parametrize("n_time", [1, 5])
    @pytest.mark.parametrize("with_clusters", [False, True])
    def test_paths_table_bytes_match_csv_writer(self, n_time, with_clusters):
        rng = np.random.default_rng(10)
        ids, names = ("a", "b%s", "c,d", "10"), ("State 1", "x,y", "%d")
        paths = rng.integers(0, 3, size=(4, n_time))
        columns = [_times(4, n_time), (names, paths)]
        clusters = None
        if with_clusters:
            clusters = ["Cluster 2", "Cluster 1", "k,1", "Cluster 2"]
            columns.append((clusters, np.repeat(np.arange(4)[:, None], n_time, axis=1)))
        header = ("subject_id", "t", "state", "cluster")[: 3 + with_clusters]
        want = _ref_paths_csv(ids, names, paths, clusters).encode()
        assert _csv_table(header, ids, columns) == want

    def test_mixture_csv_stdout_matches_file_and_csv_writer(self, workspace, capsys):
        tmp_path, manifest = workspace
        clusters = [
            build_hmm(_coin_model().alphabets, n_states=2, rng_seed=k, channel_names=("work",))
            for k in (1, 2)
        ]
        mix = build_mhmm(clusters, gamma=[[0.0, 0.2]])
        mpath = _model_file(tmp_path, mix)
        out = tmp_path / "out"
        code = main(
            ["viterbi", "--manifest", str(manifest), "--model", str(mpath), "--out", str(out),
             "--format", "csv"]
        )
        assert code == 0
        from markovseq import CovariateDesign, combine_clusters, ingest_dataset, viterbi_paths

        data, _ = ingest_dataset(manifest)
        res = viterbi_paths(mix, data)
        names = combine_clusters(mix, CovariateDesign.intercept(2))[0].state_names
        want = _ref_paths_csv(
            data.subject_ids, names, res.paths, [mix.cluster_names[k] for k in res.clusters]
        )
        assert want.splitlines()[0] == "subject_id,t,state,cluster"
        assert (out / "paths.csv").read_bytes() == want.encode()
        assert capsys.readouterr().out == want


def _csv_writer_text(header, rows):
    """The table as ``csv.writer`` writes it with LF row ends: the oracle
    for every CSV table the CLI writes."""
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return fh.getvalue()


def _ref_paths_csv(ids, names, paths, clusters=None):
    """The path table, one ``csv.writer`` row per cell."""
    header = ["subject_id", "t", "state"] + ([] if clusters is None else ["cluster"])
    rows = [
        [sid, t + 1, names[paths[i, t]], *([] if clusters is None else [clusters[i]])]
        for i, sid in enumerate(ids)
        for t in range(paths.shape[1])
    ]
    return _csv_writer_text(header, rows)


class TestPosterior:
    def test_rows_sum_to_one(self, workspace):
        tmp_path, manifest = workspace
        model = build_hmm(
            _coin_model().alphabets, n_states=2, rng_seed=5, channel_names=("work",)
        )
        mpath = _model_file(tmp_path, model)
        out = tmp_path / "out"
        assert (
            main(["posterior", "--manifest", str(manifest), "--model", str(mpath), "--out", str(out)])
            == 0
        )
        lines = (out / "posterior.csv").read_text().strip().splitlines()
        for line in lines[1:]:
            vals = [float(x) for x in line.split(",")[2:]]
            assert abs(sum(vals) - 1.0) < 1e-10


    def test_csv_bytes_match_per_value_formatting(self):
        rng = np.random.default_rng(9)
        post = rng.dirichlet(np.ones(3), size=(4, 5))
        post[0, 0] = [0.0, 1.0, 1e-300]
        post[2, 3] = [1.0 / 3.0, 5e-324, 2.0 / 3.0]
        ids, names = ("a", "b%s", "c,d", "10"), ("s1", "s2", "s3")
        rows = [
            [sid, t + 1, *(format(v, ".17g") for v in post[i, t])]
            for i, sid in enumerate(ids)
            for t in range(post.shape[1])
        ]
        want = _csv_writer_text(["subject_id", "t", *names], rows)
        got = _csv_table(("subject_id", "t", *names), ids, [_times(4, 5)], post)
        assert got == want.encode()

    @pytest.mark.parametrize("mode", ["scaled", "logspace"])
    @pytest.mark.parametrize("mixture", [False, True])
    def test_csv_stdout_matches_file(self, workspace, capsys, mode, mixture):
        tmp_path, manifest = workspace
        clusters = [
            build_hmm(_coin_model().alphabets, n_states=2, rng_seed=k, channel_names=("work",))
            for k in (1, 2)
        ]
        model = build_mhmm(clusters, gamma=[[0.0, 0.2]]) if mixture else clusters[0]
        mpath = _model_file(tmp_path, model)
        out = tmp_path / "out"
        code = main(
            ["posterior", "--manifest", str(manifest), "--model", str(mpath), "--out", str(out),
             "--mode", mode, "--format", "csv"]
        )
        assert code == 0
        text = (out / "posterior.csv").read_bytes()
        assert text.count(b"\n") == 1 + 2 * 4
        assert capsys.readouterr().out.encode() == text


class TestSummaryAndSimulate:
    def test_summary_requires_mixture(self, workspace, capsys):
        tmp_path, manifest = workspace
        mpath = _model_file(tmp_path, _coin_model())
        code = main(
            ["summary", "--manifest", str(manifest), "--model", str(mpath), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_fit_mixture_with_manifest_covariates(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [("work", ["a", "b"], [["a", "a", "b"], ["b", "a", "a"], ["a", "b", "b"]])],
            covariate_rows=[[0.2], [1.4], [-0.7]],
            covariate_names=["age"],
        )
        from markovseq import CovariateDesign

        design_names = CovariateDesign(("(Intercept)", "age"), np.ones((2, 2)))
        clusters = [
            build_hmm(_coin_model().alphabets, n_states=2, rng_seed=s, channel_names=("work",))
            for s in (3, 4)
        ]
        mix = build_mhmm(clusters, covariates=design_names)
        mpath = _model_file(tmp_path, mix)
        out = tmp_path / "out"
        code = main(
            [
                "fit",
                "--manifest",
                str(manifest),
                "--model",
                str(mpath),
                "--em-max-iter",
                "30",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        fitted = json.loads((out / "model_fitted.json").read_text())
        assert fitted["type"] == "mhmm"
        assert fitted["covariate_names"] == ["(Intercept)", "age"]
        # covariate coefficients moved away from zero during fitting
        gamma = np.array(fitted["gamma"], dtype=float)
        assert gamma.shape == (2, 2)

    def test_fit_reports_gamma_step_notes(self, tmp_path):
        # x = -1 / +1 separates the clusters, so the gamma Newton step meets
        # saturated weights and a singular Hessian on some M-steps; EM reports
        # each distinct note once, in FitResult and in fit_result.json
        alphabets = (Alphabet(("a", "b", "c")),)
        n = 40
        x = np.repeat([-1.0, 1.0], n // 2)
        design = CovariateDesign(("(Intercept)", "x"), np.column_stack([np.ones(n), x]))
        truth = build_mhmm(
            [build_hmm(alphabets, n_states=2, rng_seed=s) for s in (1, 2)],
            covariates=design,
            gamma=[[0.0, 0.0], [0.0, 40.0]],
        )
        data, _, _ = simulate_mhmm_data(truth, design, n, 10, 1)
        start = build_mhmm(
            [build_hmm(alphabets, n_states=2, rng_seed=s) for s in (3, 4)], covariates=design
        )

        def check(diagnostics):
            assert "gamma_m_step: singular_hessian: gradient step used" in diagnostics
            assert all(d.startswith("gamma_m_step: ") for d in diagnostics)
            assert len(set(diagnostics)) == len(diagnostics)

        control = FitControl(em_rel_tol=1e-6, em_max_iter=500)
        check(fit_model(start, data, design, control).diagnostics)

        channel = data.channels[0]
        labels = channel.alphabet.labels
        rows = [[labels[c] for c in row] for row in channel.codes]
        manifest = write_manifest(
            tmp_path, [(channel.name, labels, rows)], covariate_rows=x[:, None],
            covariate_names=["x"],
        )
        out = tmp_path / "out"
        args = ["fit", "--manifest", str(manifest), "--model", str(_model_file(tmp_path, start)),
                "--em-rel-tol", "1e-6", "--em-max-iter", "500", "--out", str(out)]
        assert main(args) == 0
        # the CLI's design matrix is column-major, so its fit need not match
        # the one above bit for bit
        diagnostics = json.loads((out / "fit_result.json").read_text())["diagnostics"]
        check(diagnostics)
        assert (out / "run.log").read_text().splitlines()[-len(diagnostics):] == diagnostics

    def test_threads_default_comes_from_environment(self, monkeypatch):
        from markovseq.cli import build_parser

        monkeypatch.setenv("MARKOVSEQ_THREADS", "7")
        args = build_parser().parse_args(["validate", "--manifest", "x.json"])
        assert args.threads == 7
        monkeypatch.delenv("MARKOVSEQ_THREADS")
        args = build_parser().parse_args(["validate", "--manifest", "x.json"])
        assert args.threads == 1

    def test_summary_on_mixture(self, workspace):
        tmp_path, manifest = workspace
        rng = np.random.default_rng(1)
        clusters = [
            build_hmm(_coin_model().alphabets, n_states=2, rng_seed=s, channel_names=("work",))
            for s in (1, 2)
        ]
        mix = build_mhmm(clusters)
        mpath = _model_file(tmp_path, mix)
        out = tmp_path / "out"
        code = main(
            ["summary", "--manifest", str(manifest), "--model", str(mpath), "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "summary_result.json").read_text())
        assert "classification_table" in doc
        assert (out / "summary.txt").exists()

    def test_summary_records_why_standard_errors_are_nan(self, workspace, monkeypatch):
        from markovseq.errors import NonInvertibleHessian

        def fail(*args, **kwargs):
            raise NonInvertibleHessian("singular")

        monkeypatch.setattr("markovseq.inference.covariate_standard_errors", fail)
        tmp_path, manifest = workspace
        clusters = [
            build_hmm(_coin_model().alphabets, n_states=2, rng_seed=s, channel_names=("work",))
            for s in (1, 2)
        ]
        mpath = _model_file(tmp_path, build_mhmm(clusters))
        out = tmp_path / "out"
        code = main(
            ["summary", "--manifest", str(manifest), "--model", str(mpath), "--out", str(out)]
        )
        assert code == 0
        line = "gamma_se: NonInvertibleHessian: singular"
        doc = strict_json((out / "summary_result.json").read_text())
        assert doc["diagnostics"] == [line]
        # a NaN standard error is null in JSON and nan in the text report
        assert [row[1:] for row in doc["gamma_se"]] == [[None]]
        assert "nan" in (out / "summary.txt").read_text()
        assert line in (out / "run.log").read_text().splitlines()

    def test_simulate_roundtrips_through_manifest(self, tmp_path):
        rng = np.random.default_rng(2)
        model = random_hmm(rng, 2, [3])
        mpath = _model_file(tmp_path, model)
        out = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--model",
                str(mpath),
                "--n-subjects",
                "4",
                "--n-time",
                "6",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "paths.csv").exists()
        code = main(
            ["validate", "--manifest", str(out / "dataset_manifest.json"), "--out", str(out)]
        )
        assert code == 0
        shape = json.loads((out / "validate_result.json").read_text())
        assert (shape["n_subjects"], shape["n_time"]) == (4, 6)

    @pytest.mark.parametrize("rate", ["nan", "-0.1", "1.5", "0", "1"])
    def test_simulate_checks_missing_rate_range(self, tmp_path, capsys, rate):
        mpath = _model_file(tmp_path, random_hmm(np.random.default_rng(4), 2, [2]))
        out = tmp_path / "sim"
        argv = ["simulate", "--model", str(mpath), "--n-subjects", "3", "--n-time", "4",
                "--seed", "1", f"--missing-rate={rate}", "--out", str(out)]
        accepted = 0.0 <= float(rate) <= 1.0
        assert main(argv) == (0 if accepted else 1)
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.startswith("error: InvalidParameter:") != accepted
        assert (out / "dataset.json").exists() == accepted

    def test_simulate_rejects_duplicate_channel_names(self, tmp_path):
        # both channels would be written to one dataset_x.csv
        doc = model_to_json(random_hmm(np.random.default_rng(4), 2, [2, 3]))
        doc["channel_names"] = ["x", "x"]
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(doc))
        out = tmp_path / "sim"
        argv = ["simulate", "--model", str(mpath), "--n-subjects", "3", "--n-time", "4",
                "--out", str(out)]
        assert main(argv) == 1
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.startswith("error: DuplicateLabel: duplicate channel names")
        assert not (out / "dataset_x.csv").exists()

    @pytest.mark.parametrize("size", [("0", "4"), ("3", "0")])
    def test_simulate_rejects_size_below_one(self, tmp_path, size):
        mpath = _model_file(tmp_path, random_hmm(np.random.default_rng(4), 2, [2]))
        out = tmp_path / "sim"
        argv = ["simulate", "--model", str(mpath), "--n-subjects", size[0],
                "--n-time", size[1], "--out", str(out)]
        assert main(argv) == 1
        last = (out / "run.log").read_text().splitlines()[-1]
        name = "n_subjects" if size[0] == "0" else "n_time"
        assert last.startswith(f"error: InvalidParameter: {name} must be >= 1, got 0")
        assert not (out / "dataset.json").exists()

    def test_simulate_rejects_mixture_with_covariates(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        covariates = CovariateDesign(("(Intercept)", "age"), np.ones((2, 2)))
        mix = build_mhmm([random_hmm(rng, 2, [2]), random_hmm(rng, 2, [2])], covariates)
        mpath = _model_file(tmp_path, mix)
        out = tmp_path / "sim"
        argv = ["simulate", "--model", str(mpath), "--n-subjects", "5", "--n-time", "4",
                "--out", str(out)]
        assert main(argv) == 1
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.startswith("error: DegenerateData: mixture with covariates")
        assert "DegenerateData" in capsys.readouterr().err
        assert not (out / "dataset.json").exists()

    @pytest.mark.parametrize(
        "stage", ["fit", "loglik", "bic", "viterbi", "posterior", "summary"]
    )
    def test_covariate_mixture_without_manifest_covariates_exits_one(
        self, workspace, capsys, stage
    ):
        tmp_path, manifest = workspace
        covariates = CovariateDesign(("(Intercept)", "age"), np.ones((2, 2)))
        mix = build_mhmm([_coin_model(), _coin_model()], covariates)
        out = tmp_path / stage
        argv = [stage, "--manifest", str(manifest), "--model", str(_model_file(tmp_path, mix)),
                "--out", str(out)]
        assert main(argv) == 1
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last == "error: MissingCovariate: model expects covariates ('age',), manifest has none"
        assert capsys.readouterr().err.startswith("MissingCovariate")

    def test_intercept_mixture_ignores_manifest_covariates(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [("work", ["a", "b"], [["a", "a", "b"], ["b", "a", "a"], ["a", "b", "b"]])],
            covariate_rows=[[0.2], [1.4], [-0.7]],
            covariate_names=["age"],
        )
        clusters = [
            build_hmm(_coin_model().alphabets, n_states=2, rng_seed=s, channel_names=("work",))
            for s in (5, 6)
        ]
        mix = build_mhmm(clusters)
        out = tmp_path / "out"
        argv = ["loglik", "--manifest", str(manifest), "--model", str(_model_file(tmp_path, mix)),
                "--out", str(out)]
        assert main(argv) == 0
        data, _ = markovseq.ingest_dataset(manifest)
        got = json.loads((out / "loglik_result.json").read_text())["loglik"]
        assert got == markovseq.log_likelihood(mix, data)

    def test_simulate_deterministic(self, tmp_path):
        rng = np.random.default_rng(4)
        model = random_hmm(rng, 2, [2])
        mpath = _model_file(tmp_path, model)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(
                [
                    "simulate",
                    "--model",
                    str(mpath),
                    "--n-subjects",
                    "5",
                    "--n-time",
                    "4",
                    "--seed",
                    "9",
                    "--out",
                    str(out),
                ]
            )
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert blobs[0] == blobs[1]


def test_dataset_files_equal_per_cell_formatter(tmp_path):
    """CSV bytes match the former per-cell ``Alphabet.token`` writer."""
    rng = np.random.default_rng(13)
    model = random_hmm(rng, 2, [3, 2])
    data = random_dataset(rng, model, 30, 12, missing_rate=0.25)
    _write_dataset_files(data, tmp_path, "dataset")
    for ch in data.channels:
        lines = ["id," + ",".join(f"t{t + 1}" for t in range(data.n_time))]
        for sid, row in zip(data.subject_ids, ch.codes):
            lines.append(sid + "," + ",".join(ch.alphabet.token(int(c)) for c in row))
        got = (tmp_path / f"dataset_{_safe_name(ch.name)}.csv").read_bytes()
        assert got == ("\n".join(lines) + "\n").encode()
        assert b"*" in got


def _dataset(labels, rows, n_time, missing_token="*", name="work"):
    alpha = Alphabet(tuple(labels), missing_token)
    codes = np.array([[alpha.code(tok) for tok in row] for row in rows], dtype=np.int64)
    ids = tuple(f"s{i + 1}" for i in range(len(rows)))
    return SequenceDataset((Channel(name, alpha, codes.reshape(len(rows), n_time)),), ids)


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_dataset(
            np.random.default_rng(14), random_hmm(np.random.default_rng(15), 2, [3, 2]),
            7, 5, missing_rate=0.3,
        ),
        # the channel name holds JSON syntax
        lambda: _dataset(
            ["caf\u00e9", 'say "hi"', "back\\slash", "\u65e5"],
            [["caf\u00e9", "?", 'say "hi"'], ["\u65e5", "back\\slash", "?"]],
            3, missing_token="?", name='x"rows": []',
        ),
        lambda: _dataset(["a", "b"], [["a"], ["*"], ["b"]], 1),
        lambda: _dataset(["a", "b"], [["a", "*", "b"]], 3),
        lambda: _dataset(["a", "b"], [], 3),
    ],
    ids=["missing_cells", "non_ascii_and_quotes", "one_time_point", "one_subject", "no_subjects"],
)
def test_dataset_json_bytes_equal_json_dump(tmp_path, make):
    data = make()
    if data.n_subjects == 0:  # its document could not be read back: no file is written
        with pytest.raises(EmptyDataset, match="no subjects"):
            _write_dataset_files(data, tmp_path, "dataset")
        assert list(tmp_path.iterdir()) == []
        return
    _write_dataset_files(data, tmp_path, "dataset")
    ref = json.dumps(data.to_json()) + "\n"
    assert (tmp_path / "dataset.json").read_bytes() == ref.encode()


class TestConvertTrimPlot:
    def test_convert_combines_channels(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [
                ("m", ["s", "w"], [["s", "w"], ["w", "w"]]),
                ("k", ["n", "y"], [["n", "y"], ["*", "y"]]),
            ],
        )
        out = tmp_path / "out"
        code = main(["convert", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "converted.json").read_text())
        assert len(doc["channels"]) == 1
        assert doc["channels"][0]["rows"][1][0] == "*"

    def test_convert_without_a_fully_observed_time_point_exits_one(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path,
            [
                ("m", ["s", "w"], [["s", "*"], ["*", "w"]]),
                ("k", ["n", "y"], [["*", "y"], ["n", "*"]]),
            ],
        )
        code = main(["convert", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "EmptyDataset" in err and "no time point has every channel observed" in err

    def test_trim_reports_loglik_effect(self, workspace):
        tmp_path, manifest = workspace
        model = build_hmm(
            _coin_model().alphabets,
            initial=[0.999, 0.001],
            transition=[[0.999, 0.001], [0.5, 0.5]],
            emissions=[[0.6, 0.4], [0.4, 0.6]],
            channel_names=("work",),
        )
        mpath = _model_file(tmp_path, model)
        out = tmp_path / "out"
        code = main(
            [
                "trim",
                "--model",
                str(mpath),
                "--trim-tol",
                "0.01",
                "--manifest",
                str(manifest),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        result = json.loads((out / "trim_result.json").read_text())
        assert "loglik_before" in result and "loglik_after" in result
        trimmed = json.loads((out / "model_trimmed.json").read_text())
        assert float(trimmed["initial"][1]) == 0.0

    def test_plot_writes_svg(self, workspace):
        tmp_path, manifest = workspace
        out = tmp_path / "out"
        code = main(["plot", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        svg = (out / "plot.svg").read_text()
        assert svg.startswith("<svg")
        assert "missing-hatch" in svg

    def test_plot_reproducible(self, workspace):
        tmp_path, manifest = workspace
        a, b = tmp_path / "a", tmp_path / "b"
        main(["plot", "--manifest", str(manifest), "--out", str(a)])
        main(["plot", "--manifest", str(manifest), "--out", str(b)])
        assert (a / "plot.svg").read_bytes() == (b / "plot.svg").read_bytes()
