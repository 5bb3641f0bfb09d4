import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import markovseq
from markovseq import build_hmm, build_mhmm, model_to_json
from markovseq.cli import _posterior_csv, _safe_name, _write_dataset_files, main

from helpers import random_dataset, random_hmm, write_manifest


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


def test_cli_import_leaves_optimizer_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(markovseq.__file__).parents[1]))
    probe = "import sys, markovseq.cli; print('scipy.optimize' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


_SCIPY_FREE_PROBE = """
import json, sys
import markovseq
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
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
codes.append(main(["fit", "--manifest", work + "/manifest.json", "--model", work + "/hmm.json",
                  "--em-max-iter", "3", "--local-step", "--local-max-iter", "3",
                  "--out", work + "/out_local"]))
print(json.dumps({"codes": codes, "loaded": loaded,
                  "optimizer": "scipy.optimize" in sys.modules}))
"""


def test_stages_run_without_scipy_until_local_step(tmp_path):
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
    assert report["codes"] == [0] * 12
    assert report["loaded"] == []
    assert report["optimizer"]
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
        assert "JSONDecodeError" in capsys.readouterr().err

    def test_missing_manifest_logs_error(self, tmp_path, capsys):
        mpath = _model_file(tmp_path, _coin_model())
        out = tmp_path / "out"
        code = main(
            ["loglik", "--manifest", str(tmp_path / "nope.json"), "--model", str(mpath),
             "--out", str(out)]
        )
        assert code == 1
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.startswith("error: FileNotFoundError")

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
        lines = ["subject_id,t," + ",".join(names)]
        for i, sid in enumerate(ids):
            for t in range(post.shape[1]):
                vals = ",".join(format(v, ".17g") for v in post[i, t])
                lines.append(f"{sid},{t + 1},{vals}")
        want = "\n".join(lines) + "\n"
        assert _posterior_csv(ids, names, post).encode() == want.encode()

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

        monkeypatch.setattr("markovseq.estimation.covariate_standard_errors", fail)
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
        doc = json.loads((out / "summary_result.json").read_text())
        assert doc["diagnostics"] == [line]
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
