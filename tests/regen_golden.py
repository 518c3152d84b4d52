"""Write the golden files that ``tests/test_acceptance.py`` compares with.

    python tests/regen_golden.py

from the root of a checkout. It is the only writer of ``tests/golden/``:

- ``suite.jsonl`` holds the shipped-corpus suite bundle as ``coprimelab
  suite`` prints it, one canonical-JSON line per instance and then a line
  with the rest of the bundle (its schema and summary);
- ``glauberman.json`` holds the standard output of ``coprimelab glauberman``.

A change that alters either file re-pins its SHA-256 in
``tests/test_acceptance.py`` and says why.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "src"))

from coprimelab import cli  # noqa: E402
from coprimelab.corpus import default_corpus  # noqa: E402
from coprimelab.report import canonical_json, run_suite  # noqa: E402


def suite_lines(bundle: dict) -> list:
    """The golden lines of a suite bundle: one per instance, then the rest."""
    rest = {key: value for key, value in bundle.items() if key != "instances"}
    return [canonical_json(obj) + "\n" for obj in (*bundle["instances"], rest)]


def bundle_of(lines: list) -> dict:
    """The suite bundle that ``suite_lines`` wrote as these lines."""
    *instances, rest = map(json.loads, lines)
    return {**rest, "instances": instances}


def glauberman_stdout() -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["glauberman"])
    if code != 0:
        raise SystemExit(f"glauberman exited {code}")
    return out.getvalue()


def main() -> None:
    bundle, _ = run_suite(default_corpus())
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "suite.jsonl").write_bytes("".join(suite_lines(bundle)).encode("ascii"))
    (GOLDEN / "glauberman.json").write_bytes(glauberman_stdout().encode("ascii"))


if __name__ == "__main__":
    main()
