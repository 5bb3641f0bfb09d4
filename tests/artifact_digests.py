"""Recorded sha256 digests of every CLI artifact and stdout of the benchmark
workloads, so that a change meant to keep outputs byte-identical is checked by
tier-1 (``tests/test_artifact_digests.py``).

Each of perfbench's workloads (``perfbench/workloads.py``: ``decode_hmm``,
``fit_hmm``, ``mixture_cov``) runs all its stages in process through
``markovseq.cli.main`` at seeds 1-3, once with ``--threads 1 --format text``
and once with ``--threads 2 --format json``; the ``--format csv`` stdout of
the stages that print a table is that table, the bytes of ``paths.csv`` or
``posterior.csv``, so it is not run again.  Both runs must give the same
artifacts, and each stdout is recorded under ``<stage>/stdout.<format>``.

``%.17g`` text of floats depends on the numerical build, so the file records
numpy's version and its BLAS build (``build()``) next to the digests.

Regenerate the file after a change that moves an output on purpose, and name
the digests that moved in CHANGES.md::

    python tests/artifact_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("artifact_digests.json")
SEEDS = (1, 2, 3)
# (threads, stdout format) of the two runs of each workload and seed
RUNS = ((1, "text"), (2, "json"))

if str(ROOT / "src") not in sys.path:  # run as a script
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from markovseq.cli import main  # noqa: E402

# perfbench is not a package: load its workload definitions from their file
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def build() -> dict:
    """numpy's version, its BLAS library and how that was built."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "machine": platform.machine(),
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pipeline(name: str, seed: int, threads: int, fmt: str, work: Path) -> dict:
    """Digests of every artifact and of stdout of workload ``name``'s stages,
    run in ``work``; a stage that exits non-zero raises AssertionError."""
    work.mkdir(parents=True)
    inputs = workloads.setup(name, seed, work)
    digests = {}
    for stage in workloads.WORKLOADS[name].stages:
        argv = workloads.stage_argv(name, stage, seed, inputs, work)
        argv += ["--threads", str(threads), "--format", fmt]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        assert code == 0, f"{name} seed {seed}: {stage} exited {code}"
        for path in sorted((work / stage).iterdir()):
            digests[f"{stage}/{path.name}"] = _sha(path.read_bytes())
        digests[f"{stage}/stdout.{fmt}"] = _sha(stdout.getvalue().encode())
    return digests


def workload_digests(name: str, seed: int, work: Path) -> tuple[dict, list[str]]:
    """The digests of workload ``name`` at ``seed`` over ``RUNS``, and the
    artifacts whose bytes differ between its runs."""
    merged, differ = {}, []
    for threads, fmt in RUNS:
        for key, digest in run_pipeline(name, seed, threads, fmt, work / f"t{threads}").items():
            if merged.setdefault(key, digest) != digest:
                differ.append(key)
    return dict(sorted(merged.items())), differ


def main_regenerate() -> int:
    import tempfile

    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                digests, differ = workload_digests(name, seed, Path(tmp) / f"{name}-{seed}")
                if differ:
                    print(f"{name} seed {seed}: runs differ in {differ}", file=sys.stderr)
                    return 1
                cases[f"{name}/{seed}"] = digests
    doc = {"build": build(), "runs": [list(r) for r in RUNS], "cases": cases}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(c) for c in cases.values())} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main_regenerate())
