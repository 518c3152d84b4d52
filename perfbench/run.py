"""Benchmark for coprimelab.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every measurement runs in a fresh
interpreter (`worker.py`), one process at a time, with the commands called
in-process through ``cli.main`` so that interpreter start-up stays out of
the timings. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it print each
metric by name and unit. A wrong output makes ``correct`` false and the exit
code 1. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
PACKAGE_INIT = os.path.join(ROOT, "src", "coprimelab", "__init__.py")
SHIPPED_CORPUS = os.path.join(ROOT, "src", "coprimelab", "data", "corpus.json")

# Nominal length of one pass on a 2-core machine. A run makes
# round(seconds / nominal) passes, at least one, so every run of a workload
# attempts whole passes and the same number of them whatever the machine.
PASS_NOMINAL_S = {"corpus_suite": 30.0, "nilpotent_pairs": 6.0, "cli_commands": 7.5}
WORKLOADS = tuple(PASS_NOMINAL_S)
SETUP_REPEATS = 5
RUN_DEADLINE_S = 175   # a run that would take longer fails instead
# Printed but kept out of the JSON result. pass_cpu_s, the CPU time of the
# pass process, is a diagnostic: where it holds still while pass_s moves, the
# process waited for a core rather than did more work.
PRINT_ONLY = tracer.PRINT_ONLY + ("pass_cpu_s",)


class BenchError(Exception):
    pass


def build_job(workload: str, seed: int, work_dir: str) -> dict:
    """The inputs of one workload: what setup builds, the command plan and
    what the checks need."""
    if workload == "corpus_suite":
        with open(SHIPPED_CORPUS, encoding="utf-8") as fh:
            specs = json.load(fh)["instances"]
        plan = [{"argv": ["suite", "--jobs", "1"], "kind": "suite"}]
        return {"build_specs": specs, "suite_specs": specs, "plan": plan, "files": {}}
    if workload == "nilpotent_pairs":
        corpus = workloads.nilpotent_corpus(seed)
        path = os.path.join(work_dir, "nilpotent_pairs.json")
        workloads.write_json(path, corpus)
        specs = corpus["instances"]
        plan = [{"argv": ["suite", path, "--jobs", "1"], "kind": "suite"}]
        return {"build_specs": specs, "suite_specs": specs, "plan": plan, "files": {}}
    planned = workloads.cli_plan(seed)
    for name, spec in planned["files"].items():
        workloads.write_json(os.path.join(work_dir, name + ".json"), spec)
    plan = [{"argv": workloads.cli_argv(cmd, work_dir), "kind": cmd[0], "file": cmd[1],
             "word": cmd[2]} for cmd in planned["commands"]]
    build_specs = [workloads.GLAUBERMAN_SPEC] + list(planned["files"].values())
    return {"build_specs": build_specs, "suite_specs": [], "plan": plan,
            "files": planned["files"]}


class Workers:
    """Starts workers for one run, one at a time, each within the run's deadline."""

    def __init__(self, job: dict, work_dir: str, deadline: float):
        self.job = job
        self.work_dir = work_dir
        self.deadline = deadline
        self.job_path = os.path.join(work_dir, "job.json")
        workloads.write_json(self.job_path, job)

    def run(self, mode: str) -> dict:
        result_path = os.path.join(self.work_dir, f"result-{mode}.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), mode,
                               self.job_path, result_path], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)

    def check_errors(self, passes: list) -> list:
        """Check the outputs of all passes in one worker, so each group the
        checks need is built once."""
        workloads.write_json(self.job["outputs_path"],
                             [{"outputs": p.pop("outputs"), "codes": p["codes"]} for p in passes])
        return self.run("check")["check_errors"]


def timed_metrics(workers: Workers, n_passes: int):
    # Setups and passes alternate, so that each median samples the whole run
    # rather than one stretch of it.
    setups, passes = [], []
    for i in range(max(SETUP_REPEATS, n_passes)):
        if i < SETUP_REPEATS:
            setups.append(workers.run("setup")["setup_s"])
        if i < n_passes:
            passes.append(workers.run("pass"))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(p["pass_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "cmd_p50_s": (statistics.median(t for p in passes for t in p["cmd_s"]), "s"),
        "pass_cpu_s": (statistics.median(p["pass_cpu_s"] for p in passes), "s"),
    }
    return metrics, passes


def traced_metrics(workers: Workers):
    plain = workers.run("pass")
    traced = workers.run("trace")
    metrics = dict(traced["layers"])
    for name, value in workers.run("mulbench").items():
        metrics[name] = (value, "us")
    metrics["trace.untraced_pass_s"] = (plain["pass_s"], "s")
    metrics["trace.overhead_s"] = (traced["pass_s"] - plain["pass_s"], "s")
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(PACKAGE_INIT):
        print(f"error: the program is not here ({os.path.relpath(PACKAGE_INIT, ROOT)} is missing)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        job = build_job(args.workload, args.seed, work_dir)
        job["trace_path"] = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        job["outputs_path"] = os.path.join(work_dir, "outputs.json")
        workers = Workers(job, work_dir, deadline)
        if args.trace:
            metrics, passes = traced_metrics(workers)
        else:
            n_passes = max(1, round(args.seconds / PASS_NOMINAL_S[args.workload]))
            metrics, passes = timed_metrics(workers, n_passes)
        errors = workers.check_errors(passes)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    # No workload has a command that is meant to fail, so a failed command
    # makes the run incorrect, even where its payload passed the checks.
    failed = sum(1 for p in passes for code in p["codes"] if code != 0)
    result = {
        "correct": not errors and failed == 0,
        "attempted": sum(len(p["codes"]) for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                    if name not in PRINT_ONLY},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
