"""One measurement in a fresh interpreter: ``worker.py MODE JOB RESULT``.

MODE is one of
  setup     import coprimelab and build every instance the workload analyses
  pass      run the workload's commands once through ``cli.main``
  check     check the outputs of every pass, in one process after the passes
  trace     one pass with the span tracer installed
  mulbench  time ``FiniteGroup.mul`` on fixed element pairs

JOB is the JSON file `run.py` wrote; RESULT is where this writes its JSON
result. Nothing from coprimelab is imported before the clocks start.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402  (checks imports nothing from the program)
import workloads  # noqa: E402


def do_setup(job: dict) -> dict:
    start = time.perf_counter()
    from coprimelab import corpus
    for spec in job["build_specs"]:
        corpus.load_instance(spec)
    return {"setup_s": time.perf_counter() - start}


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_commands(plan: list) -> dict:
    from coprimelab import cli
    outputs, latencies, codes = [], [], []
    cpu_start = _cpu_s()
    start = time.perf_counter()
    for item in plan:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(item["argv"])
        latencies.append(time.perf_counter() - t0)
        outputs.append(out.getvalue())
        codes.append(code)
    pass_s = time.perf_counter() - start
    pass_cpu_s = _cpu_s() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"pass_s": pass_s, "pass_cpu_s": pass_cpu_s, "cmd_s": latencies, "codes": codes,
            "peak_rss_mb": peak_rss_mb, "outputs": outputs}


def _payload(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def check_outputs(job: dict, runs: list) -> list:
    """Check the output of every command in every pass, whatever its exit
    code; returns the failures' messages. A command that exits nonzero is a
    failure of its own: every command prints its payload before it returns 1
    on a fail verdict, so that payload is still checked, and a command that
    printed none fails the check."""
    from coprimelab import corpus
    errors = []
    groups: dict = {}

    def group(key, spec):
        if key not in groups:
            G, _, _ = corpus.load_instance(spec)
            groups[key] = (G.elements, G.generators)
        return groups[key]

    for run in runs:
        layer_dims = {}  # filled by each `lie` output, read by the `eigen` after it
        for item, text, code in zip(job["plan"], run["outputs"], run["codes"]):
            where = " ".join([item["argv"][0]] + ([item["file"]] if item.get("file") else []))
            if code != 0:
                errors.append(f"{where}: exited {code}")
            try:
                check_one(job, item, _payload(text), group, layer_dims)
            except (checks.CheckFailed, KeyError, IndexError, TypeError, ValueError) as exc:
                errors.append(f"{where}: {type(exc).__name__}: {exc}")
    return errors


def check_one(job: dict, item: dict, payload: dict, group, layer_dims: dict) -> None:
    kind, name = item["kind"], item.get("file")
    spec = job["files"][name] if name else None
    if kind == "suite":
        checks.check_suite(payload, job["suite_specs"])
        for rep in payload["instances"]:
            if rep["id"] == workloads.GLAUBERMAN_SPEC["id"]:
                checks.check_suite_glauberman(rep, *group("glauberman", workloads.GLAUBERMAN_SPEC))
    elif kind == "glauberman":
        checks.check_glauberman_payload(payload, *group("glauberman", workloads.GLAUBERMAN_SPEC))
    elif kind == "info":
        checks.check_info(spec, payload)
    elif kind == "auto":
        checks.check_auto(spec, payload)
    elif kind == "lie":
        checks.check_lie(spec, payload)
        layer_dims[name] = payload["layer_dims"]
    elif kind == "eigen":
        checks.check_eigen(spec, payload, layer_dims[name])
    elif kind == "decompose":
        checks.check_decompose(item["word"], payload, *group(name, spec),
                               workloads.generator_powers(spec))
    else:
        raise checks.CheckFailed(f"no check for command {kind!r}")


def do_pass(job: dict) -> dict:
    return run_commands(job["plan"])


def do_check(job: dict) -> dict:
    with open(job["outputs_path"], encoding="utf-8") as fh:
        runs = json.load(fh)
    return {"check_errors": check_outputs(job, runs)}


def do_trace(job: dict) -> dict:
    import tracer
    t = tracer.Tracer()
    t.install()
    run = run_commands(job["plan"])
    summary = t.summary()
    t.write(job["trace_path"])
    with open(job["trace_path"].replace(".jsonl", "-summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    run["layers"] = tracer.layer_metrics(summary)
    return run


MUL_PAIRS = 4000
MUL_REPEATS = 7


def _mul_us(G, rng: random.Random) -> float:
    pairs = [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(MUL_PAIRS)]
    mul = G.mul
    times = []
    for _ in range(MUL_REPEATS):
        t0 = time.perf_counter()
        for a, b in pairs:
            mul(a, b)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / MUL_PAIRS * 1e6


def do_mulbench(job: dict) -> dict:
    from coprimelab import corpus
    rng = random.Random(0)
    out = {}
    for key, spec in (("groups.mul_us", workloads.GLAUBERMAN_SPEC),
                      ("groups.mul_small_us", workloads.MUL_SMALL_SPEC)):
        G, _, _ = corpus.load_instance(spec)
        out[key] = _mul_us(G, rng)
    return out


MODES = {"setup": do_setup, "pass": do_pass, "check": do_check, "trace": do_trace,
         "mulbench": do_mulbench}


def main(argv) -> int:
    mode, job_path, result_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = MODES[mode](job)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
