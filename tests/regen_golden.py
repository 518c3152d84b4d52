"""Write the golden files that ``tests/test_acceptance.py`` compares with.

    python tests/regen_golden.py

from the root of a checkout. It is the only writer of ``tests/golden/``:

- ``suite.jsonl`` holds the shipped-corpus suite bundle as ``coprimelab
  suite`` prints it, one canonical-JSON line per instance and then a line
  with the rest of the bundle (its schema and summary);
- ``glauberman.json`` holds the standard output of ``coprimelab glauberman``;
- ``<stem>.json``, for each stem of ``STDOUT_PINS``, holds the standard
  output of its ``lie`` or ``eigen`` command, with the structure constants
  and field moduli that the suite bundle does not carry.

A change that alters a file re-pins its SHA-256 (in
``tests/test_acceptance.py`` for the first two, in
``tests/test_report_cli.py`` for the rest) and says why.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "src"))

from coprimelab import cli  # noqa: E402
from coprimelab.corpus import default_corpus  # noqa: E402
from coprimelab.report import canonical_json, run_suite  # noqa: E402


def _cyclic(m: int) -> dict:
    return {"name": "cyclic", "params": {"m": m}}


HEIS5_INV = {"name": "heisenberg", "params": {"p": 5},
             "automorphism": {"recipe": "power", "k": -1}}
HEIS3_C9_INV = {"name": "direct_product",
                "params": {"factors": [{"name": "heisenberg", "params": {"p": 3}}, _cyclic(9)]},
                "automorphism": {"recipe": "power", "k": -1}}
C5_POW5 = {"name": "direct_product", "params": {"factors": [_cyclic(5)] * 5},
           "automorphism": {"recipe": "gen_powers", "powers": [2, 3, 4, 2, 3]}}

# Golden file stem -> (command, spec). A string spec is the id of a
# shipped-corpus instance: the last two are the pins whose fields are
# extensions, GF(2^4) with modulus [1,1,1,1,1], and GF(2^3).
STDOUT_PINS = {
    "heis5-lie": ("lie", HEIS5_INV),
    "heis5-eigen": ("eigen", HEIS5_INV),
    "heis3xc9-lie": ("lie", HEIS3_C9_INV),
    "heis3xc9-eigen": ("eigen", HEIS3_C9_INV),
    "c5^5-lie": ("lie", C5_POW5),
    "c5^5-eigen": ("eigen", C5_POW5),
    "c2quad_m5-eigen": ("eigen", "c2quad_m5"),
    "c2cube_m7-eigen": ("eigen", "c2cube_m7"),
}


def pinned_spec(spec) -> dict:
    """A spec of ``STDOUT_PINS``, with a corpus id replaced by its instance."""
    if isinstance(spec, str):
        return next(s for s in default_corpus()["instances"] if s["id"] == spec)
    return spec


def json_differences(old, new, path: str):
    """'path: old -> new' for each JSON path at which old and new differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from json_differences(old.get(key, "<absent>"), new.get(key, "<absent>"),
                                        f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from json_differences(a, b, f"{path}[{i}]")
    elif canonical_json(old) != canonical_json(new):
        yield f"{path}: {canonical_json(old)} -> {canonical_json(new)}"


def suite_lines(bundle: dict) -> list:
    """The golden lines of a suite bundle: one per instance, then the rest."""
    rest = {key: value for key, value in bundle.items() if key != "instances"}
    return [canonical_json(obj) + "\n" for obj in (*bundle["instances"], rest)]


def bundle_of(lines: list) -> dict:
    """The suite bundle that ``suite_lines`` wrote as these lines."""
    *instances, rest = map(json.loads, lines)
    return {**rest, "instances": instances}


def command_stdout(argv: list) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def main() -> None:
    bundle, _ = run_suite(default_corpus())
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "suite.jsonl").write_bytes("".join(suite_lines(bundle)).encode("ascii"))
    (GOLDEN / "glauberman.json").write_bytes(command_stdout(["glauberman"]).encode("ascii"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        for stem, (command, spec) in STDOUT_PINS.items():
            path.write_text(json.dumps(pinned_spec(spec)), encoding="utf-8")
            stdout = command_stdout([command, str(path)])
            (GOLDEN / f"{stem}.json").write_bytes(stdout.encode("ascii"))


if __name__ == "__main__":
    main()
