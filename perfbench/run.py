"""framelab benchmark: seeded workloads run through the CLI, one process per config.

Usage (from the repository root):

    python3 perfbench/run.py --workload {grid,gabor,lattice} --seed N \
        --seconds S --trace {0,1}

Each workload is a closed loop with one client: the configs generated from
the seed run one at a time, each as a fresh ``framelab`` CLI process, which
is how users run it.  With ``--trace 0`` whole passes over the configs
repeat while another pass should end within S seconds (at least one pass
runs), and the end-to-end metrics named in BENCHMARK.json are printed.
With ``--trace 1`` one untraced pass is followed by one pass with every
public framelab function wrapped (see child.py), and the per-module metrics
are printed instead.

Every run is checked against expectations derived from the generated input
(workloads.check), and one config per workload runs twice and must give a
byte-identical report.json.  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads

ROOT = Path.cwd()
CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned in every child, because reports differ in the last digits with the
# BLAS thread count: 2, or 1 on a single-CPU machine.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
SPAN_FIELDS = {"calls": 0, "s": 1, "self_s": 2, "bytes": 3}


@dataclass
class Run:
    """One CLI process: its case, exit code, timings and output."""

    case: workloads.Case
    code: int
    spawn: float
    end: float
    rss_mb: float
    stats: dict
    report: bytes | None
    output_bytes: int
    problems: list

    @property
    def setup_s(self):
        return self.stats["enter"] - self.spawn if "enter" in self.stats else None

    @property
    def compute_s(self):
        if "exit" not in self.stats:
            return None
        return self.stats["exit"] - self.stats["enter"]


class Runner:
    """Spawns child.py for one case at a time, with a pinned BLAS thread count."""

    def __init__(self, work: Path, threads: int):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.update({var: str(threads) for var in BLAS_THREAD_VARS})
        self.count = 0

    def run(self, case: workloads.Case, trace: bool) -> Run:
        self.count += 1
        rundir = self.work / f"run{self.count:04d}"
        out = rundir / "out"
        out.mkdir(parents=True)
        cfg_path = rundir / "config.json"
        cfg_path.write_text(json.dumps(case.config))
        stats_path = rundir / "stats.json"
        argv = [sys.executable, str(CHILD), str(stats_path), "1" if trace else "0",
                "--", "--config", str(cfg_path), "--out", str(out)]
        with open(rundir / "stderr.txt", "wb") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            stats = json.loads(stats_path.read_text())
        except (OSError, json.JSONDecodeError):
            stats = {}
        report_path = out / "report.json"
        report = report_path.read_bytes() if report_path.is_file() else None
        try:
            doc = json.loads(report) if report is not None else None
        except json.JSONDecodeError:
            doc = None
        return Run(
            case=case,
            code=proc.returncode,
            spawn=spawn,
            end=end,
            rss_mb=usage.ru_maxrss / 1024.0,
            stats=stats,
            report=report,
            output_bytes=sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
            problems=workloads.check(case, proc.returncode, doc),
        )


def run_pass(runner: Runner, cases: list, trace: bool) -> list:
    return [runner.run(case, trace) for case in cases]


def environment(seed: int, threads: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def pass_wall_s(runs: list) -> float:
    """From spawning the first process of a pass to the exit of the last."""
    return runs[-1].end - runs[0].spawn


def _median(values, default=float("nan")):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def end_to_end(passes: list, runs: list) -> dict:
    """Medians over whole passes; setup_s is the median over every process."""
    return {
        "wall_s": _median(pass_wall_s(p) for p in passes),
        "setup_s": _median(r.setup_s for r in runs),
        "compute_s": _median(sum(r.compute_s or 0.0 for r in p) for p in passes),
        "peak_rss_mb": _median(max(r.rss_mb for r in p) for p in passes),
    }


def per_layer(names: list, traced: list, untraced: list) -> dict:
    """Per-module totals over one traced pass; a function absent at this
    commit contributes 0."""
    spans = [r.stats.get("spans", {}) for r in traced]
    special = {
        "trace.overhead_frac": pass_wall_s(traced) / pass_wall_s(untraced) - 1.0,
        "cli.import_s": sum(r.stats.get("import_s", 0.0) for r in traced),
        "cli.output_bytes": sum(r.output_bytes for r in traced),
        "shiftinv.window.subnormal": sum(r.case.sizes["subnormal"] for r in traced),
        "shiftinv.gram.bytes": sum(
            s.get("shiftinv.gabor_gram_spectrum", [0, 0, 0, 0])[3] for s in spans
        ),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        key, field = name.rsplit(".", 1)
        out[name] = sum(s.get(key, [0, 0.0, 0.0, 0])[SPAN_FIELDS[field]] for s in spans)
    return out


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "framelab" / "cli.py").is_file() or not bench_path.is_file():
        print(f"error: run from a framelab checkout; no src/framelab/cli.py or "
              f"BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text())
    cases = workloads.WORKLOADS[args.workload](args.seed)

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for case in cases:
            if case.samples is not None:
                path = work / f"{case.name}.csv"
                workloads.write_samples(path, case.samples)
                case.config["window"]["samples_path"] = str(path)
        print(f"workload {args.workload}: {len(cases)} configs, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}")
        print("env " + json.dumps(environment(args.seed, BLAS_THREADS)))
        for case in cases:
            print(f"config {case.name}: mode {case.config['mode']}, expect "
                  f"{case.verdict}, sizes (computed) {json.dumps(case.sizes)}")

        runner = Runner(work, BLAS_THREADS)
        if args.trace:
            untraced = run_pass(runner, cases, trace=False)
            traced = run_pass(runner, cases, trace=True)
            runs = untraced + traced
            repeat = (untraced[0], traced[0])
        else:
            # Start another pass only while it should end within --seconds.
            passes = [run_pass(runner, cases, trace=False)]
            while passes[-1][-1].end - passes[0][0].spawn + pass_wall_s(passes[-1]) <= args.seconds:
                passes.append(run_pass(runner, cases, trace=False))
            runs = [r for p in passes for r in p]
            if len(passes) > 1:
                repeat = (passes[0][0], passes[1][0])
            else:
                repeat = (passes[0][0], runner.run(cases[0], trace=False))
                runs.append(repeat[1])

        for r in runs:
            for problem in r.problems:
                print(f"FAIL {r.case.name}: {problem}")
        deterministic = repeat[0].report is not None and repeat[0].report == repeat[1].report
        print(f"determinism: {repeat[0].case.name} run twice, report.json "
              f"{'identical' if deterministic else 'DIFFERS'}")
        attempted = len(runs)
        failed = sum(1 for r in runs if r.problems) + (0 if deterministic else 1)

        if args.trace:
            names = [m["name"] for m in bench["per_layer"]]
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            values = per_layer(names, traced, untraced)
            print(f"per-module totals over one traced pass of {len(cases)} configs")
        else:
            for case in cases:
                times = [r.compute_s for r in runs if r.case is case]
                print(f"config {case.name}: compute_s median {_fmt(_median(times))} "
                      f"over {len(times)} runs")
            values = end_to_end(passes, runs)
            values["failed_frac"] = failed / attempted
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            units["failed_frac"] = "ratio"
            print(f"end to end, median over {len(passes)} passes of {len(cases)} configs")
        for name, unit in units.items():
            print(f"  {name:48s} {_fmt(values[name]):>14s} {unit}")

        declared = bench["per_layer" if args.trace else "end_to_end"]
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
            },
        }
        print(json.dumps(result, allow_nan=False))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
