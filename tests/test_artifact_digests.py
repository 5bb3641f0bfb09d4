"""Every artifact and stdout of the benchmark workloads is byte-identical to
the digests recorded in ``tests/artifact_digests.json``.

Each case runs one workload at one seed twice in process, at ``--threads 1``
and ``2`` (``artifact_digests.RUNS``), and first checks that both runs wrote
the same bytes.  The recorded digests hold for the numpy and BLAS build the
file names: on another build the case stops there and is reported as
skipped, since ``%.17g`` text of floats may differ in its last digits.  A
change that moves an output on purpose regenerates the file with
``python tests/artifact_digests.py``.
"""

import json

import pytest

import artifact_digests as ad

RECORDED = json.loads(ad.DIGESTS.read_text(encoding="utf-8"))


def test_recorded_cases_cover_every_workload_and_seed():
    assert RECORDED["runs"] == [list(run) for run in ad.RUNS]
    want = {f"{name}/{seed}" for name in ad.workloads.WORKLOADS for seed in ad.SEEDS}
    assert set(RECORDED["cases"]) == want


@pytest.mark.parametrize("case", sorted(RECORDED["cases"]))
def test_artifacts_match_recorded_digests(case, tmp_path):
    name, seed = case.split("/")
    digests, differ = ad.workload_digests(name, int(seed), tmp_path)
    assert differ == [], f"artifacts depend on the thread count: {differ}"
    if RECORDED["build"] != ad.build():
        pytest.skip(f"digests recorded on {RECORDED['build']}, this is {ad.build()}")
    recorded = RECORDED["cases"][case]
    keys = recorded.keys() | digests.keys()
    moved = sorted(k for k in keys if recorded.get(k) != digests.get(k))
    assert moved == [], f"{case}: these outputs moved: {moved}"
