"""insdel benchmark: run one workload through ``insdel.cli.main`` in-process.

    python3 perfbench/run.py --workload {construct,sweep,queries} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a source checkout; the program is imported from its
``src`` directory. The seed makes the job list (see workloads.py). The
run is closed loop with one client: jobs run one after another in this
process, and the job list is repeated in passes until the next pass
would end after ``--seconds``. The first pass's outputs are checked
(checks.py); every later pass must print the same bytes.

Every job time is scaled to a reference interpreter speed measured
around each job (speed.py), because a shared machine's speed can change
by up to 1.8 times for stretches of 20 ms to tens of seconds; the report
lines give the raw pass times.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median of
several fresh interpreters' import plus field and parameter set-up, each
scaled by the reference loop it ran (probe.py); ``wall_s``, the median over passes of the job list's time;
``job_ms_p50`` and ``job_ms_p90`` over all jobs run; ``peak_rss_mb`` of
this process. ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of tracing.py, medians over traced passes,
plus ``trace_overhead_ratio``. Spans are written to
``.bench_build/perfbench/trace-<workload>-seed<seed>.jsonl``.

``--size tiny`` runs every workload in a second or two (test_smoke.py).

Before the result the run prints report lines: jobs attempted and failed,
``failed_ratio``, and the sha256 of all job stdout of one pass, which
stays the same for the same seed as long as the program's output does.
The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import BURST, REFERENCE_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
PROBES = {"full": 15, "tiny": 2}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def setup_samples(tokens, count: int) -> list[float]:
    """Set-up seconds of `count` fresh interpreters, one after another,
    each scaled to reference speed by the loops it ran around its set-up."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), *tokens],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        seconds, loop = (float(x) for x in proc.stdout.split())
        samples.append(seconds * REFERENCE_S / loop)
    return samples


class Pass:
    def __init__(self):
        self.wall = 0.0  # raw seconds the pass took, loop samples included
        self.times: list[float] = []  # per job, scaled to reference speed
        self.raw_times: list[float] = []  # per job, as measured
        self.outputs: list[str] = []
        self.errors: list[str | None] = []
        self.spans = []  # traced passes only


class Runner:
    """Runs passes over one job list and keeps the failure count."""

    def __init__(self, main, jobs, work: Path, checker, speed):
        self.main = main
        self.speed = speed
        self.jobs = jobs
        self.work = work
        self.checker = checker
        self.argvs = [[a.replace("{work}", str(work)) for a in job.argv] for job in jobs]
        self.first: Pass | None = None
        self.bad: dict[int, str] = {}  # job index -> why its pass-1 output is wrong
        self.attempted = 0
        self.failed = 0

    def path(self, placeholder: str) -> str:
        return placeholder.replace("{work}", str(self.work))

    def run_pass(self, tracer=None) -> Pass:
        result = Pass()
        intervals = []
        self.speed.sample(BURST)
        start = time.perf_counter()
        for argv in self.argvs:
            self.speed.sample()
            out, err = io.StringIO(), io.StringIO()
            error = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                span = tracer.open("cli.main", "cli") if tracer else None
                try:
                    rc = self.main(argv)
                except Exception:  # noqa: BLE001 - a raising job is a failed job
                    rc, error = None, "raised\n" + traceback.format_exc()
                finally:
                    if span is not None:
                        tracer.close(span)
                t1 = time.perf_counter()
            if error is None and rc != 0:
                error = f"exit {rc}: {err.getvalue().strip()}"
            intervals.append((t0, t1))
            result.outputs.append(out.getvalue())
            result.errors.append(error)
            self.speed.after_job(t1 - t0)
        result.wall = time.perf_counter() - start
        self.speed.sample(BURST)
        result.times = [self.speed.scale(t0, t1) for t0, t1 in intervals]
        result.raw_times = [t1 - t0 for t0, t1 in intervals]
        self._account(result)
        return result

    def _account(self, result: Pass) -> None:
        if self.first is None:
            self.first = result
            for idx, (job, stdout, error) in enumerate(zip(self.jobs, result.outputs, result.errors)):
                if error is None:
                    try:
                        self.checker.check(job, stdout, self.path)
                    except Exception:  # noqa: BLE001 - any check error fails the job
                        error = "check\n" + traceback.format_exc()
                if error is not None:
                    self.bad[idx] = error
        for idx, (stdout, error) in enumerate(zip(result.outputs, result.errors)):
            self.attempted += 1
            if error is None and stdout != self.first.outputs[idx]:
                error = "output differs from the first pass"
            error = error or self.bad.get(idx)
            if error is not None:
                self.failed += 1
                sys.stderr.write(f"perfbench: job {' '.join(self.argvs[idx])} failed: {error}\n")

    def digest(self) -> str:
        return hashlib.sha256("".join(self.first.outputs).encode()).hexdigest()


def measure(runner: Runner, seconds: float, tracer=None):
    """Run passes until the next one would end after `seconds`.

    Untraced only, or, with a tracer, alternating untraced and traced
    passes with at least one of each. Returns the passes of each kind.
    """
    kinds = (False, True) if tracer else (False,)
    passes = {False: [], True: []}
    start = time.perf_counter()
    k = 0
    while True:
        traced = kinds[k % len(kinds)]
        if traced:
            tracer.spans = []
            tracer.install()
            try:
                p = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            p.spans = tracer.spans
        else:
            p = runner.run_pass()
        passes[traced].append(p)
        k += 1
        nxt = kinds[k % len(kinds)]
        if k >= len(kinds):
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(q.wall for q in passes[nxt]) > seconds:
                return passes


def job_list_seconds(passes) -> float:
    """Median over passes of the job list's time at reference speed."""
    return statistics.median(sum(p.times) for p in passes)


def end_to_end(passes, setup) -> dict[str, float]:
    times_ms = [t * 1e3 for p in passes for t in p.times]
    cuts = statistics.quantiles(times_ms, n=10) if len(times_ms) > 1 else times_ms * 9
    return {
        "setup_s": statistics.median(setup),
        "wall_s": job_list_seconds(passes),
        "job_ms_p50": cuts[4],
        "job_ms_p90": cuts[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "insdel" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no insdel sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402 - after the program check

    try:
        joblist = workloads.build(args.workload, args.seed, args.size)
    except ValueError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    tokens = joblist.setup_tokens()
    speed = Speed()
    setup = [] if args.trace else setup_samples(tokens, PROBES[args.size])

    import insdel
    import insdel.cli

    if Path(insdel.__file__).resolve().parent != (SRC / "insdel").resolve():
        sys.stderr.write(f"perfbench: imported insdel from {insdel.__file__}, not {SRC}\n")
        return 2
    import probe
    from checks import Checker
    from tracing import LAYER_METRICS, Tracer, layer_metrics, note_file_sizes

    probe.build(tokens)

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    runner = Runner(insdel.cli.main, joblist.jobs, work, Checker(), speed)
    try:
        passes = measure(runner, args.seconds, tracer)
        layers = []
        for p in passes[True]:
            note_file_sizes(p.spans)
            layers.append(layer_metrics(p.spans, sum(p.times) / sum(p.raw_times)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
        traced, untraced = job_list_seconds(passes[True]), job_list_seconds(passes[False])
        values["trace_overhead_ratio"] = traced / untraced
        print(f"perfbench trace traced_wall_s={traced!r} untraced_wall_s={untraced!r}")
        units = LAYER_METRICS
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", [s for p in passes[True] for s in p.spans])
    else:
        values = end_to_end(passes[False], setup)
        units = END_TO_END
    ratio = runner.failed / runner.attempted
    npasses = sum(len(v) for v in passes.values())
    print(
        f"perfbench workload={args.workload} seed={args.seed} size={args.size} trace={args.trace} "
        f"passes={npasses} jobs_per_pass={len(joblist.jobs)} attempted={runner.attempted} "
        f"failed={runner.failed} failed_ratio={ratio:g}"
    )
    print(f"perfbench digest workload={args.workload} seed={args.seed} sha256={runner.digest()}")
    raw_walls = [p.wall for p in passes[False]]
    print(
        f"perfbench speed reference_loop_s_median={statistics.median(speed.took)!r} "
        f"raw_pass_wall_s_median={statistics.median(raw_walls)!r} raw_pass_wall_s_min={min(raw_walls)!r}"
    )
    for name, value in values.items():
        print(f"perfbench metric {name}={value!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
