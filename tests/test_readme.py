"""README.md is a reference: the tests it cites exist, its CLI section covers the
parser, and its quick start runs."""

import contextlib
import io
import re
from pathlib import Path

from pentafuzz.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
TEST_FILES = sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "bench" / "tests").glob("*.py"))


def _section(title: str) -> str:
    """The text of a `## title` section, up to the next `## ` heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : None if end < 0 else end]


def _defined(paths) -> set[str]:
    names = set()
    for path in paths:
        names.update(re.findall(r"^\s*(?:def|class) (\w+)", path.read_text(encoding="utf-8"), re.M))
    return names


def test_every_cited_test_exists():
    paths = re.findall(r"(?<![\w/])((?:bench/)?tests/[\w./]*\w)((?:::\w+)*)", README)
    assert paths
    for path, names in paths:
        assert (ROOT / path).exists(), path
        if names:  # tests/x.py::TestA::test_b names must be defined in that file
            missing = set(names.split("::")[1:]) - _defined([ROOT / path])
            assert not missing, f"{path}: {sorted(missing)}"
    # A bare name may live in any test file; one that ends in .py is a path.
    cited = set(re.findall(r"\b(test_\w+|Test[A-Z]\w*)\b(?!\.py)", README))
    assert cited
    assert not cited - _defined(TEST_FILES), sorted(cited - _defined(TEST_FILES))


def _parser_flags() -> tuple[set[str], set[str]]:
    parser = _build_parser()
    flags = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
    (sub,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    for p in sub.choices.values():
        flags |= {s for a in p._actions for s in a.option_strings if s.startswith("--")}
    return set(sub.choices), flags


def test_the_cli_section_names_every_subcommand_and_flag():
    cli = _section("CLI")
    commands, flags = _parser_flags()
    assert not {c for c in commands if f"pentafuzz {c} " not in cli}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*[a-z]", cli))
    assert flags - named == set(), "flags the CLI section does not name"
    assert named - flags == set(), "flags the parser lacks"


def test_the_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", _section("Library quick start"), re.S)
    assert "axiom_audit(EntropyKind.BUSTINCE_BURILLO)" in block
    scope: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, "README.md", "exec"), scope)
    assert scope["report"].failed_axioms() == ("e2",)
    assert out.getvalue().splitlines()[-1] == "('e2',)"
