"""Every example script must run cleanly (they are living documentation)."""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"
SRC = EXAMPLES.parent / "src"


def _env_with_src() -> dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(SRC) if not existing else str(SRC) + os.pathsep + existing
    )
    return env

FAST_EXAMPLES = [
    "quickstart.py",
    "naturemapping_curation.py",
    "message_board.py",
    "beliefsql_tour.py",
    "concurrent_curation.py",
    "curation_transaction.py",
    "lifecycle_audit.py",
    "overhead_study.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=180,
        env=_env_with_src(),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples should print something"


def test_quickstart_output_contains_paper_answers():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=180,
        env=_env_with_src(),
    )
    assert "('s2', 'Alice', 'raven')" in result.stdout        # q1
    assert "('Bob', 'crow', 'raven')" in result.stdout        # q2
    assert "4 states" in result.stdout                        # Fig. 4
    assert "overhead" in result.stdout


def test_reproduce_paper_writes_its_report(tmp_path):
    report = tmp_path / "report"
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "reproduce_paper.py"), str(report)],
        capture_output=True,
        text=True,
        timeout=180,
        env=_env_with_src(),
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    text = report.read_text()
    assert "## Table 2" in text
    # Fig. 6 counts rows, so its trends are facts; Table 2's are timings.
    assert "- flat series rises: held" in text
    assert "- skewed series falls: held" in text


def test_cli_overhead_subcommand():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "overhead",
         "--n", "60", "--users", "4", "--repeats", "1"],
        capture_output=True,
        text=True,
        timeout=180,
        env=_env_with_src(),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "|R*|/n" in result.stdout
