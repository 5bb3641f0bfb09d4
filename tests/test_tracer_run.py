"""perfbench's tracer still measures a real pipeline.

``perfbench/tracing.py`` reads the library by position: index 2 of
``_em_once``'s result, ``fit_em``'s fourth argument (its FitControl), and the
subject count among ``simulate_*``'s arguments.  Only ``--trace 1`` benchmark
runs install it, so a change to one of those would otherwise show only
there.  This test loads the tracer from its file, as
``test_tracer_names.py`` does, and runs three CLI stages through it
in-process on a few dozen subjects.
"""

import io
import json
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from markovseq import model_to_json
from markovseq.cli import main

from helpers import random_hmm

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_pipeline_reports_nonzero_work(tmp_path):
    tracing = runpy.run_path(str(TRACING), run_name="perfbench_tracing")
    rng = np.random.default_rng(8)
    truth, start = tmp_path / "truth.json", tmp_path / "start.json"
    truth.write_text(json.dumps(model_to_json(random_hmm(rng, 2, [3, 2]))))
    start.write_text(json.dumps(model_to_json(random_hmm(rng, 2, [3, 2]))))
    manifest = tmp_path / "simulate" / "dataset_manifest.json"
    stages = {
        "simulate": ["simulate", "--model", str(truth), "--n-subjects", "40",
                     "--n-time", "8", "--seed", "1"],
        "fit": ["fit", "--manifest", str(manifest), "--model", str(start),
                "--restarts", "1", "--local-step", "--local-max-iter", "2"],
        "loglik": ["loglik", "--manifest", str(manifest), "--model", str(start)],
    }
    tracer = tracing["Tracer"]()
    tracer.install()
    try:
        for stage, argv in stages.items():
            argv = [*argv, "--out", str(tmp_path / stage)]
            with redirect_stdout(io.StringIO()):
                assert tracer.stage(stage, lambda: main(argv)) == 0, stage
    finally:
        tracer.uninstall()

    own, errors = tracing["self_times"](tracer.spans)
    assert errors + tracing["stage_accounting"](tracer.spans, own) == []
    metrics = tracing["layer_metrics"](tracer.spans, tracer.counts, {}, 0.0)
    for name in (
        "estimation.estep_calls",
        "estimation.em_iterations",
        "estimation.local_iters",
        "simulate.draw_s",
    ):
        assert metrics[name][0] > 0, name
    # every EM E-step and every local objective evaluation, the first included,
    # is one expected_stats call
    assert metrics["estimation.estep_calls"][0] >= (
        metrics["estimation.em_iterations"][0] + metrics["estimation.local_iters"][0] + 1
    )
    fit = json.loads((tmp_path / "fit" / "fit_result.json").read_text())
    assert metrics["estimation.local_iters"][0] == fit["local_iterations"]
    assert metrics["estimation.restart_best_ratio"][0] > 0
    assert metrics["simulate.subjects_per_s"][0] > 0
