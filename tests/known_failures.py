"""Compare the failures of a tier-1 run with the known list.

    python -m pytest -q --continue-on-collection-errors --junitxml=tier1.xml
    python tests/known_failures.py tier1.xml

Reads pytest's junit XML report, turns each failed or erroring test case into
its pytest node id (`tests/test_acceptance.py::test_criterion_5_...`), and
compares that set with `tests/data/known_failures.txt`, one node id a line.
Exits 0 when the two sets are equal and 1 otherwise, naming each new failure
and each known failure that did not fail: a fixed known failure must leave the
list too.  The known failures are run, not deselected, so the report still
shows what they say.  Uses only the standard library.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KNOWN = ROOT / "tests" / "data" / "known_failures.txt"


def node_id(classname: str, name: str) -> str:
    """The pytest node id of a junit test case: the module part of the dotted
    classname becomes its file path, the rest (a test class) stays a name."""
    parts = classname.split(".") if classname else []
    for k in range(len(parts), 0, -1):
        path = "/".join(parts[:k]) + ".py"
        if (ROOT / path).is_file():
            return "::".join([path, *parts[k:], name])
    return "::".join([*parts, name])  # a collection error names only its module


def failed(report: Path) -> set[str]:
    return {
        node_id(case.get("classname", ""), case.get("name", ""))
        for case in ET.parse(report).getroot().iter("testcase")
        if case.find("failure") is not None or case.find("error") is not None
    }


def known() -> set[str]:
    return {line.strip() for line in KNOWN.read_text(encoding="utf-8").splitlines() if line.strip()}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/known_failures.py JUNIT_XML", file=sys.stderr)
        return 2
    got, want = failed(Path(argv[0])), known()
    for node in sorted(got - want):
        print(f"new failure: {node}")
    for node in sorted(want - got):
        print(f"known failure did not fail: {node}")
    if got != want:
        return 1
    print(f"failures match {KNOWN.relative_to(ROOT)}: {len(got)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
