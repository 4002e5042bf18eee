"""The pytest settings in pyproject.toml let a failing test fail on its own,
and tests/known_failures.py tells the known tier-1 failures from new ones."""

import subprocess
import sys
from pathlib import Path

from known_failures import main as check_known_failures

ROOT = Path(__file__).resolve().parent.parent

FAILING_AND_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # Reporting the failing example imports libcst, which raises a
    # DeprecationWarning that the error filters would turn into an
    # internal error ending the session.
    (tmp_path / "test_settings_probe.py").write_text(FAILING_AND_PASSING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_settings_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), run.stdout


def _junit(tmp_path, *failing):
    cases = [("tests.test_kernel.TestReducedPenta", "test_general_class_has_no_reduction", "")]
    cases += [(classname, name, "<failure message='x'/>") for classname, name in failing]
    body = "".join(f"<testcase classname='{c}' name='{n}'>{f}</testcase>" for c, n, f in cases)
    path = tmp_path / "tier1.xml"
    path.write_text(f"<testsuites><testsuite>{body}</testsuite></testsuites>", encoding="utf-8")
    return str(path)


def test_known_failures_checker_exits_1_on_any_difference(tmp_path, capsys):
    criterion_5 = ("tests.test_acceptance", "test_criterion_5_property_suites_and_audits")
    new = ("tests.test_kernel.TestReducedPenta", "test_rejects_class_mismatch")
    assert check_known_failures([_junit(tmp_path, criterion_5)]) == 0
    assert check_known_failures([_junit(tmp_path, criterion_5, new)]) == 1
    assert check_known_failures([_junit(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "new failure: tests/test_kernel.py::TestReducedPenta::test_rejects_class_mismatch" in out
    assert "known failure did not fail: tests/test_acceptance.py::test_criterion_5" in out
