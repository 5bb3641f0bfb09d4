"""A thread count is an integer >= 1, in the library and on the command line.

The library raises InvalidParameter for anything else (a numpy integer
passes, a bool does not); ``--threads`` and ``MARKOVSEQ_THREADS`` go through
one argparse type, so a bad value exits 2 as a usage error.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from markovseq import (
    FitControl,
    build_mhmm,
    cluster_posterior_probs,
    fit_em,
    forward_backward,
    log_likelihood,
    loglik_gradient,
    posterior_state_probs,
)
from markovseq.cli import main
from markovseq.errors import InvalidParameter

from helpers import random_dataset, random_hmm, write_manifest

BAD_COUNTS = [0, -2, 1.5, 2.0, True, "2", None]

# entry point name -> call(data, threads) on a 3-chunk dataset
ENTRY_POINTS = {
    "log_likelihood": lambda hmm, mix, data, t: log_likelihood(hmm, data, threads=t),
    "log_likelihood-log": lambda hmm, mix, data, t: log_likelihood(hmm, data, None, "log", t),
    "posterior_state_probs": lambda hmm, mix, data, t: posterior_state_probs(
        hmm, data, threads=t
    ),
    "forward_backward": lambda hmm, mix, data, t: forward_backward(hmm, data, threads=t),
    "cluster_posterior_probs": lambda hmm, mix, data, t: cluster_posterior_probs(
        mix, data, threads=t
    ),
    "loglik_gradient": lambda hmm, mix, data, t: loglik_gradient(hmm, data, threads=t),
}


@pytest.fixture(scope="module")
def models_and_data():
    rng = np.random.default_rng(41)
    hmm = random_hmm(rng, 2, [3])
    mix = build_mhmm([hmm, random_hmm(rng, 2, [3])])
    return hmm, mix, random_dataset(rng, hmm, 1100, 2)  # 3 chunks of <= 512 subjects


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("threads", BAD_COUNTS, ids=repr)
def test_library_rejects_a_count_that_is_not_an_integer_from_one(
    models_and_data, entry, threads
):
    with pytest.raises(InvalidParameter, match=r"threads must be (an integer )?>= 1"):
        ENTRY_POINTS[entry](*models_and_data, threads)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_integer_count_gives_the_one_thread_result(models_and_data, entry):
    one = ENTRY_POINTS[entry](*models_and_data, 1)
    two = ENTRY_POINTS[entry](*models_and_data, np.int64(2))
    if hasattr(one, "alpha"):
        one, two = one.alpha, two.alpha
    np.testing.assert_array_equal(one, two)


@pytest.mark.parametrize("threads", BAD_COUNTS, ids=repr)
def test_fit_control_rejects_a_count_that_is_not_an_integer_from_one(threads):
    with pytest.raises(InvalidParameter, match=r"threads must be (an integer )?>= 1"):
        FitControl(threads=threads)


def test_fit_control_accepts_a_numpy_integer(models_and_data):
    hmm, _, data = models_and_data
    res = fit_em(hmm, data, control=FitControl(em_max_iter=2, threads=np.int32(3)))
    assert res.loglik == fit_em(hmm, data, control=FitControl(em_max_iter=2)).loglik


@pytest.fixture
def manifest(tmp_path):
    return write_manifest(tmp_path, [("work", ["a", "b"], [["a", "b", "a"], ["b", "b", "*"]])])


@pytest.mark.parametrize("value", ["0", "-1", "1.5", "abc", "", " "])
def test_bad_threads_flag_exits_two(manifest, tmp_path, capsys, value):
    code = main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
                 "--threads", value])
    assert code == 2
    assert "must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["0", "abc", "2.5"])
def test_bad_environment_thread_count_exits_two(manifest, tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("MARKOVSEQ_THREADS", value)
    code = main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "MARKOVSEQ_THREADS must be an integer >= 1" in capsys.readouterr().err


def test_flag_overrides_a_bad_environment_count(manifest, tmp_path, monkeypatch):
    monkeypatch.setenv("MARKOVSEQ_THREADS", "abc")
    out = tmp_path / "o"
    assert main(["validate", "--manifest", str(manifest), "--out", str(out),
                 "--threads", "2"]) == 0
    assert (out / "validate_result.json").exists()


def test_bad_environment_count_is_a_usage_error_not_a_traceback(manifest, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, MARKOVSEQ_THREADS="abc")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "markovseq.cli", "validate", "--manifest", str(manifest),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "usage:" in proc.stderr
