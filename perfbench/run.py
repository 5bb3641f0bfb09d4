"""End-to-end benchmark of the markovseq CLI pipeline.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload decode_hmm --seed 1 --seconds 36 --trace 0

``--trace 0`` runs every CLI stage as its own ``python -m markovseq.cli``
process and reports end-to-end metrics; ``--trace 1`` runs the stages
in-process through ``cli.main`` with spans around each layer and reports
per-layer metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED = {
    "MARKOVSEQ_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}
# set-up runs at least this often and this long, so a millisecond set-up
# still gives a steady median
SETUP_REPEATS = 5
SETUP_MIN_S = 0.5
IMPORT_REPEATS = 3
STAGE_TIMEOUT_S = 120.0
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# the reference task's wall time on an uncontended host of the kind the
# baseline was measured on; it only sets the scale of the reported seconds
REFERENCE_NOMINAL_S = 0.55


def _child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run one child to exit: wall seconds, peak RSS in MB, exit code."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _another(done: int, spent: float, seconds: float) -> bool:
    """Whether one more repetition, at the pace so far, still fits in ``seconds``."""
    return done == 0 or spent * (done + 1) / done <= seconds


def _digest(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def _bytes_written(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    with contextlib.suppress(OSError):
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned_env": PINNED,
    }


class Run:
    """One benchmark invocation: set-up, timed repetitions, checks, report."""

    def __init__(self, workload: str, seed: int, seconds: float, tmp: Path):
        self.workload, self.seed, self.seconds, self.tmp = workload, seed, seconds, tmp
        self.spec = workloads.WORKLOADS[workload]
        self.attempted = 0
        self.failed = 0  # stage invocations that exited non-zero or failed a check
        self.failures: list[str] = []
        self.reference: dict = {}  # stage -> artifact digests of the first repetition
        self.fit_loglik = None

    # -- set-up --------------------------------------------------------

    def setup(self) -> tuple[dict, list[float]]:
        """Generate inputs repeatedly; keep the last, return every time."""
        times, digests = [], []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
            i = len(times)
            out = self.tmp / f"inputs{i}"
            out.mkdir()
            start = time.perf_counter()
            inputs = workloads.setup(self.workload, self.seed, out)
            times.append(time.perf_counter() - start)
            digests.append(_digest(out))
        if any(d != digests[0] for d in digests):
            self.failures.append("setup: inputs differ between repeats of one seed")
        return inputs, times

    # -- checks --------------------------------------------------------

    def check_repetition(self, rep: Path, inputs: dict, failed: set) -> None:
        """Full checks on the first repetition; byte equality with it afterwards."""
        ok = [s for s in self.spec.stages if s not in failed]
        if not self.reference:
            try:
                checker = workloads.Checker(self.workload, self.seed, inputs, rep)
            except Exception as err:  # a missing or unreadable artifact fails them all
                self._fail(ok, f"checks could not start: {type(err).__name__}: {err}")
                return
            for stage in ok:
                try:
                    errors = checker.check(stage)
                except Exception as err:
                    errors = [f"{stage}: check raised {type(err).__name__}: {err}"]
                if errors:
                    self._fail([stage], "; ".join(errors))
                self.reference[stage] = _digest(rep / stage)
            if "fit" in ok:
                self.fit_loglik = checker.fit_loglik()
            return
        for stage in ok:
            if _digest(rep / stage) != self.reference.get(stage):
                self._fail([stage], f"{stage}: artifacts differ from the first repetition")

    def _fail(self, stages, message: str) -> None:
        self.failures.append(message)
        self.failed += len(stages)

    # -- untraced: one process per stage -------------------------------

    def untraced(self) -> dict:
        env = _child_env()

        def reference() -> float:
            return spawn([sys.executable, str(REFERENCE)], env, self.tmp / "reference.stderr")[0]

        refs = [reference()]
        inputs, setup_times = self.setup()
        refs.append(reference())
        reps: list[dict] = []
        begin = time.perf_counter()
        while _another(len(reps), time.perf_counter() - begin, self.seconds):
            rep = self.tmp / f"rep{len(reps)}"
            rep.mkdir()
            walls, rss, failed = {}, [], set()
            for stage in self.spec.stages:
                argv = workloads.stage_argv(self.workload, stage, self.seed, inputs, rep)
                walls[stage], peak, code = spawn(
                    [sys.executable, "-m", "markovseq.cli", *argv],
                    env,
                    rep / f"{stage}.stderr",
                )
                self.attempted += 1
                rss.append(peak)
                if code != 0:
                    failed.add(stage)
                    err = (rep / f"{stage}.stderr").read_text(errors="replace").strip()
                    self._fail([stage], f"{stage}: exit code {code}: {err[-300:]}")
            refs.append(reference())
            self.check_repetition(rep, inputs, failed)
            shutil.rmtree(rep)
            reps.append({"walls": walls, "peak_rss_mb": max(rss)})

        # On a shared host, contention slows whole stretches of a run by up to
        # 1.9x.  Each timing is divided by the host's speed at the time: the
        # reference task's mean time just before and after, over its nominal.
        speed = [(a + b) / 2 / REFERENCE_NOMINAL_S for a, b in zip(refs, refs[1:])]
        scaled = [
            {stage: wall / f for stage, wall in r["walls"].items()}
            for r, f in zip(reps, speed[1:])
        ]
        metrics = {
            "setup_s": (statistics.median(setup_times) / speed[0], "s"),
            "pipeline_s": (statistics.median(sum(w.values()) for w in scaled), "s"),
        }
        for stage in self.spec.stages:
            metrics[f"{stage}_s"] = (statistics.median(w[stage] for w in scaled), "s")
        metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in reps), "MB")
        if self.fit_loglik is not None:
            metrics["fit_loglik"] = (self.fit_loglik, "nats")
        metrics["error_rate"] = (self.failed / max(self.attempted, 1), "ratio")
        return {
            "repetitions": len(reps),
            "reference_s": refs,
            "setup_wall_s": setup_times,
            "stage_wall_s": [r["walls"] for r in reps],
            "metrics": metrics,
        }

    # -- traced: in-process through cli.main ----------------------------

    def _in_process(self, inputs: dict, rep: Path, tracer=None) -> tuple[float, dict, set]:
        rep.mkdir()
        failed, written = set(), {}
        start = time.perf_counter()
        for stage in self.spec.stages:
            argv = workloads.stage_argv(self.workload, stage, self.seed, inputs, rep)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    if tracer is None:
                        code = markovseq.cli.main(argv)
                    else:
                        code = tracer.stage(stage, lambda: markovseq.cli.main(argv))
                except Exception as exc:  # a crash the CLI did not map to an exit code
                    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    code = -1
            self.attempted += 1
            if code != 0:
                failed.add(stage)
                self._fail([stage], f"{stage}: exit code {code}: {err.getvalue()[-300:]}")
            written[stage] = _bytes_written(rep / stage)
        return time.perf_counter() - start, written, failed

    def traced(self, report_dir: Path) -> dict:
        inputs, _ = self.setup()
        env = _child_env()
        imports = [
            spawn([sys.executable, "-c", "import markovseq.cli"], env,
                  self.tmp / "import.stderr")[0]
            for _ in range(IMPORT_REPEATS)
        ]
        import_s = statistics.median(imports)
        # the first in-process pass warms lazy imports and caches, and is the
        # one whose artifacts are checked in full
        rep = self.tmp / "warmup"
        _, _, failed = self._in_process(inputs, rep)
        self.check_repetition(rep, inputs, failed)
        shutil.rmtree(rep)
        untraced, traced, layer_runs, counts_seen = [], [], [], []
        spans_out = []
        spent = 0.0
        while _another(len(traced), spent, self.seconds):
            rep = self.tmp / f"rep{len(untraced)}u"
            wall, _, failed = self._in_process(inputs, rep)
            untraced.append(wall)
            self.check_repetition(rep, inputs, failed)
            shutil.rmtree(rep)

            tracer = tracing.Tracer()
            rep = self.tmp / f"rep{len(traced)}t"
            tracer.install()
            try:
                wall, written, failed = self._in_process(inputs, rep, tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
            self.check_repetition(rep, inputs, failed)
            shutil.rmtree(rep)
            spent += untraced[-1] + wall

            own, errors = tracing.self_times(tracer.spans)
            errors += tracing.stage_accounting(tracer.spans, own)
            for e in errors:
                self._fail([], f"trace: {e}")
            layer = tracing.layer_metrics(tracer.spans, tracer.counts, written, import_s)
            layer_runs.append(layer)
            counts_seen.append({k: layer[k][0] for k in tracing.EXACT})
            spans_out.append([s.as_dict() for s in tracer.spans])
        if any(c != counts_seen[0] for c in counts_seen):
            self._fail([], "trace: exact counts differ between traced repetitions")

        metrics = {}
        for name, (_, unit) in layer_runs[0].items():
            values = [run[name][0] for run in layer_runs]
            metrics[name] = (values[0] if name in tracing.EXACT else statistics.median(values), unit)
        u, t = statistics.median(untraced), statistics.median(traced)
        metrics["trace.untraced_s"] = (u, "s")
        metrics["trace.traced_s"] = (t, "s")
        metrics["trace.overhead_pct"] = (100.0 * (t - u) / u, "%")

        spans_path = report_dir / f"{self.workload}-seed{self.seed}-spans.json"
        spans_path.write_text(json.dumps({"repetitions": spans_out}) + "\n")
        own, _ = tracing.self_times(tracer.spans)
        table = _layer_table(tracer.spans, own)
        return {
            "repetitions": len(traced),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "exact_counts": {
                "counted": {k: v for k, v in counts_seen[0].items()
                            if k not in tracing.COMPUTED},
                "computed": {k: counts_seen[0][k] for k in tracing.COMPUTED},
            },
            "stage_layer_self_s": table,
            "metrics": metrics,
        }


def _layer_table(spans, own) -> dict:
    """Self seconds per stage and layer of the last traced repetition."""
    table: dict = {}
    for s in spans:
        row = table.setdefault(s.stage, {})
        row[s.layer] = row.get(s.layer, 0.0) + own[s.id]
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    report_dir = WORK / "reports"
    report_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    run = Run(args.workload, args.seed, args.seconds, tmp)
    try:
        result = run.traced(report_dir) if args.trace else run.untraced()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = result.pop("metrics")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        **result,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = report_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    shown = [m["name"] for m in listed["per_layer" if args.trace else "end_to_end"]]
    for name in shown:
        if name not in metrics:
            run.failures.append(f"metric {name} was not measured")
    correct = not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in shown if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (SRC / "markovseq" / "cli.py").is_file():
        print(f"perfbench: no markovseq sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    os.environ.update(PINNED)  # before numpy loads, for the in-process runs
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import markovseq.cli  # noqa: E402
    import tracing  # noqa: E402
    import workloads  # noqa: E402

    sys.exit(main())
