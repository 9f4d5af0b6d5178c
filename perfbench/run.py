"""End-to-end benchmark of ``dwe pipeline`` on seeded synthetic workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 10 --trace 0

Set-up generates the workload's inputs from ``--seed``; the benchmark then
runs ``dwe pipeline --config run.cfg`` as a fresh process, one at a time,
until the runs add up to ``--seconds``.  Set-up is repeated twice more,
between the runs, to time it and to check that the seed fixes the inputs.
Each run's outputs are checked (see checks.py) and must be byte-identical
to the first run's.  With ``--trace 1`` one more run goes through
tracing.py and the per-layer metrics come from its spans.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

SETUP_REPEATS = 3
#: pipeline runs still going this long after start are killed and fail
RUN_DEADLINE_S = 165.0
HERE = Path(__file__).resolve().parent
#: BLAS threads for set-up and every pipeline run.  With the default of one
#: thread per core, the idle OpenBLAS thread spins between calls: on a
#: 2-core machine the ladder run took both cores and ran 15% slower than
#: with one thread, and its time then depends on whatever else runs there.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _high_percentile(values: list[float]) -> str:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return f"none ({n} samples; needs at least 11)"
    ordered = sorted(values)
    for p in range(99, -1, -1):
        rank = max(1, -(-p * n // 100))  # nearest-rank percentile
        if n - rank >= 10:
            return f"p{p} = {ordered[rank - 1]!r}"
    return "none"


def _blas_info() -> dict[str, str]:
    import numpy as np
    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = ", ".join(f"{k}={os.environ.get(k)}"
                                     for k in BLAS_THREADS)
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _output_hashes(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes())
            .hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


class Session:
    """One benchmark invocation over one workload."""

    def __init__(self, root: Path, workload: str, seed: int,
                 deadline: float):
        self.deadline = deadline
        self.timed_out = False
        self.work = root / ".perfbench_work" / workload
        self.workload = workload
        self.seed = seed
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.walls: list[float] = []
        self.rss_mb: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_outputs: dict[str, str] | None = None

    def set_up(self) -> None:
        """Generate the inputs the pipeline runs read."""
        import workloads
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        t0 = time.perf_counter()
        self.expected = workloads.setup(self.workload, self.seed, self.work)
        self.setup_times = [time.perf_counter() - t0]
        self.input_digest = workloads.tree_digest(self.work)

    def set_up_again(self) -> None:
        """Generate the inputs once more, elsewhere; they must not differ."""
        import workloads
        target = self.work / f"setup-{len(self.setup_times)}"
        target.mkdir()
        t0 = time.perf_counter()
        workloads.setup(self.workload, self.seed, target)
        self.setup_times.append(time.perf_counter() - t0)
        if workloads.tree_digest(target) != self.input_digest:
            self.problems.append(f"{target.name} wrote other inputs than "
                                 "the first set-up")
        shutil.rmtree(target)

    def _spawn(self, argv: list[str], spans: Path | None
               ) -> tuple[float, float, int]:
        """(wall seconds, peak RSS MB, exit code) of one pipeline process."""
        out = self.work / "out"
        if out.exists():
            shutil.rmtree(out)
        log = self.work / ("traced.log" if spans else "pipeline.log")
        with open(log, "wb") as fh:
            spawn = time.monotonic()
            if spans is not None:
                argv = [sys.executable, str(HERE / "tracing.py"),
                        str(spans), repr(spawn)] + argv
            else:
                argv = [sys.executable, "-m", "dwe.cli"] + argv
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)

            def kill():
                self.timed_out = True
                proc.kill()
            timer = threading.Timer(
                max(1.0, self.deadline - time.monotonic()), kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - spawn
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if self.timed_out:
            self.problems.append(f"pipeline killed after {wall:.1f} s")
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def run_once(self, spans: Path | None = None) -> float:
        import checks
        wall, rss, code = self._spawn(["pipeline", "--config", "run.cfg"],
                                      spans)
        score = checks.score_run(code, self.work, self.expected)
        outputs = _output_hashes(self.work / "out")
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            changed = sorted(k for k in set(outputs) | set(self.first_outputs)
                             if outputs.get(k) != self.first_outputs.get(k))
            score.problems.append(f"outputs differ from the first run: "
                                  f"{changed}")
            score.failed += 1
        self.attempted += score.attempted
        self.failed += score.failed
        self.problems += score.problems
        if spans is None:
            self.walls.append(wall)
            self.rss_mb.append(rss)
        return wall

    def record(self) -> dict:
        import scipy
        import workloads
        return {
            "workload": self.workload, "seed": self.seed,
            "synth_seed": workloads.workload_seed(self.workload, self.seed),
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "scipy": scipy.__version__,
            **_blas_info(),
            "input_sha256": self.input_digest,
            "output_sha256": self.first_outputs or {},
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ladder", "robust", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dwe" / "cli.py").is_file():
        return _fail(f"no dwe sources under {root / 'src'}; run from the "
                     "root of a checkout")
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))
    import dwe  # noqa: F401  (numpy and scipy load here, outside set-up)

    session = Session(root, args.workload, args.seed,
                      time.monotonic() + RUN_DEADLINE_S)
    session.set_up()
    # the repeated set-ups go between pipeline runs, so that the medians of
    # both sample more of the machine's load over the session
    measured = 0.0
    while not session.walls or (measured < args.seconds
                                and not session.timed_out):
        measured += session.run_once()
        if len(session.setup_times) < SETUP_REPEATS:
            session.set_up_again()
    while len(session.setup_times) < SETUP_REPEATS:
        session.set_up_again()
    setup_s = statistics.median(session.setup_times)
    wall = statistics.median(session.walls)

    per_layer = None
    if args.trace and not session.timed_out:
        import tracing
        spans = session.work / "spans.json"
        traced_wall = session.run_once(spans)
        if spans.exists() and not session.timed_out:
            trace = json.loads(spans.read_text(encoding="utf-8"))
            per_layer = tracing.layer_metrics(trace, traced_wall, wall)

    exp = session.expected
    metrics = {
        "wall_s": (wall, "s"),
        "articles_per_s": (exp.articles / wall, "1/s"),
        "peak_rss_mb": (statistics.median(session.rss_mb), "MB"),
        "setup_s": (setup_s, "s"),
    }
    correct = not session.problems and session.failed == 0

    print(f"workload {args.workload} seed {args.seed}: {exp.articles} "
          f"articles, {len(session.walls)} untraced runs")
    for key, value in session.record().items():
        if key != "output_sha256":
            print(f"  record {key}: {value}")
    for name, digest in (session.first_outputs or {}).items():
        print(f"  output sha256 {name}: {digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value!r} {unit}")
    print(f"  wall_s samples: {len(session.walls)}; high percentile: "
          f"{_high_percentile(session.walls)}")
    print(f"  failed_share: {session.failed / session.attempted!r} "
          f"({session.failed} of {session.attempted} operations)")
    if per_layer is not None:
        for name, bound in sorted(trace["bindings"].items()):
            if len(bound) > 1:
                print(f"  traced {name} at {', '.join(bound)}")
        for name in trace["missing"]:
            print(f"  not traced, no longer in dwe: {name}")
        for name in tracing.counter_failures(trace):
            print(f"  counts unreadable from the result of {name}")
        for name, value in per_layer.items():
            print(f"  {name}: {value!r}")
        busy = sum(v for k, v in per_layer.items()
                   if k.endswith(".busy_s") or k in ("cli.self_s",
                                                      "cli.startup_s"))
        print(f"  traced wall {traced_wall!r} s = startup + layer self "
              f"times {busy!r} s + unaccounted "
              f"{per_layer['trace.unaccounted_s']!r} s")
    for problem in session.problems:
        print(f"  CHECK FAILED: {problem}")

    end_to_end = {k: {"value": v, "unit": u}
                  for k, (v, u) in metrics.items()}
    layers = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
              for k, v in (per_layer or {}).items()}
    summary = {"correct": correct, "attempted": session.attempted,
               "failed": session.failed,
               "metrics": layers if per_layer is not None else end_to_end}
    (session.work / "result.json").write_text(json.dumps(
        {**summary, "end_to_end": end_to_end, "per_layer": layers,
         "wall_s_samples": session.walls, "problems": session.problems,
         "record": session.record()}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
