"""In-memory span tracer for the traced benchmark run.

The program is instrumented from outside: `install` wraps the public
functions listed in SPANNED and rebinds every module's binding of them, so
names taken with ``from ... import`` are traced too. ``FiniteGroup.mul`` is
counted, not spanned: it runs millions of times, and a span per call would
cost more memory than the run it measures.

A span is [name, start, end, parent index, attributes]. Spans stay in memory
until `write` puts them in a JSON-lines file.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# module -> functions that get a span named "<module>.<function>"; a leading
# "cmd_" or "_" is dropped from the span name (cli.cmd_info -> cli.info).
SPANNED = {
    "corpus": ["load_instance"],
    "groups": ["generate_group", "subgroup_generated", "quotient_group", "are_conjugate"],
    "structure": ["lower_central_series", "derived_series", "fitting_height"],
    "automorphisms": ["build_automorphism", "twisted_data", "phi_invariant_closure",
                      "fixed_generation_S", "factorization_status", "check_coprime_facts",
                      "nilpotent_decompose"],
    "lie": ["jlz_series", "build_graded_lie", "check_lazard_all", "check_riley",
            "extend_and_eigendecompose"],
    "linalg": ["rref"],
    "report": ["analyze_instance", "theorem1_probe", "theorem2_probe", "thompson_probe",
               "_group_section", "_auto_section", "_lie_section", "_probe_section"],
    "cli": ["cmd_info", "cmd_auto", "cmd_lie", "cmd_eigen", "cmd_decompose",
            "cmd_glauberman", "cmd_suite"],
}

# Times of layers that some workload never reaches. They would read 0 on every
# run of that workload, so they are printed but left out of the JSON result,
# which carries cli.commands_s and groups.are_conjugate_calls instead.
PRINT_ONLY = ("groups.are_conjugate_s", "cli.info_s", "cli.auto_s", "cli.lie_s", "cli.eigen_s",
              "cli.decompose_s", "cli.glauberman_s")

SECTIONS = ("report.group_section", "report.auto_section", "report.lie_section",
            "report.probe_section")


def span_name(module: str, func: str) -> str:
    for prefix in ("cmd_", "_"):
        if func.startswith(prefix):
            func = func[len(prefix):]
    return f"{module}.{func}"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._origin = time.perf_counter()

    def wrap(self, name, fn, attrs=None, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1,
                      attrs(args) if attrs else None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in SPANNED and count ``FiniteGroup.mul``."""
        modules = {m: importlib.import_module(f"coprimelab.{m}") for m in SPANNED}
        loaded = [mod for key, mod in sys.modules.items()
                  if key == "coprimelab" or key.startswith("coprimelab.")]
        counts = self.counts
        hooks = {
            "analyze_instance": dict(attrs=lambda args: {"id": args[0].get("id")}),
            "generate_group": dict(on_result=lambda G: counts.update(
                {"groups.elements_enumerated": G.order})),
        }
        for mod_name, funcs in SPANNED.items():
            for func in funcs:
                original = getattr(modules[mod_name], func)
                wrapped = self.wrap(span_name(mod_name, func), original, **hooks.get(func, {}))
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

        group_cls = modules["groups"].FiniteGroup
        mul = group_cls.mul
        cell = [0]
        self._mul_cell = cell

        def counted_mul(self_, a, b):
            cell[0] += 1
            return mul(self_, a, b)

        group_cls.mul = counted_mul

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                row = {"i": i, "name": name, "start": start - self._origin,
                       "end": end - self._origin, "parent": parent}
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")

    def summary(self) -> dict:
        """Per span name: count, inclusive time and self time, plus counters
        and a per-instance table of report section times.

        Inclusive time counts only the outermost span of a name, so a
        function that calls itself is not counted twice. Self time is a
        span's duration minus the time its child spans cover.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        count, inclusive, self_time = Counter(), defaultdict(float), defaultdict(float)
        closures_built = 0
        instances: dict = {}
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            dur = end - start
            count[name] += 1
            self_time[name] += dur - child[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += dur
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "groups.subgroup_generated" and parent_name == "automorphisms.phi_invariant_closure":
                closures_built += 1
            if parent_name == "report.analyze_instance" and (name in SECTIONS or name == "corpus.load_instance"):
                row = instances.setdefault(spans[parent][4]["id"], {})
                row[name] = row.get(name, 0.0) + dur
            if name == "report.analyze_instance":
                instances.setdefault(attrs["id"], {})["total"] = dur
        counters = dict(self.counts)
        counters["groups.mul_calls"] = self._mul_cell[0]
        counters["automorphisms.closures_built"] = closures_built
        return {"spans": {n: {"count": count[n], "inclusive_s": inclusive[n],
                              "self_s": self_time[n]} for n in sorted(count)},
                "counters": counters, "instances": instances}


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics (name -> (value, unit)) from a trace summary."""
    spans, counters = summary["spans"], summary["counters"]

    def seconds(name):
        return spans.get(name, {}).get("inclusive_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("count", 0)

    closure_calls = calls("automorphisms.phi_invariant_closure")
    built = counters["automorphisms.closures_built"]
    out = {
        "groups.mul_calls": (counters["groups.mul_calls"], "count"),
        "groups.elements_enumerated": (counters.get("groups.elements_enumerated", 0), "count"),
        "groups.subgroup_generated_calls": (calls("groups.subgroup_generated"), "count"),
        "groups.quotient_group_calls": (calls("groups.quotient_group"), "count"),
        "groups.are_conjugate_calls": (calls("groups.are_conjugate"), "count"),
        "automorphisms.closure_calls": (closure_calls, "count"),
        "automorphisms.closures_built": (built, "count"),
        "automorphisms.closure_hit_ratio": (
            (closure_calls - built) / closure_calls if closure_calls else 0.0, "ratio"),
        "automorphisms.nilpotent_decompose_calls": (calls("automorphisms.nilpotent_decompose"),
                                                    "count"),
        "linalg.rref_calls": (calls("linalg.rref"), "count"),
        "cli.commands_s": (sum(seconds(n) for n in spans if n.startswith("cli.")), "s"),
    }
    for mod_name, funcs in SPANNED.items():
        for func in funcs:
            name = span_name(mod_name, func)
            if mod_name == "linalg" or name in SECTIONS or name == "cli.suite":
                continue
            out[name + "_s"] = (seconds(name), "s")
    return out
