"""The CI workflow stays in step with the documented checks.  It is read as
plain text, since no YAML parser is among the test dependencies."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _workflow_lines() -> list:
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    return [line.strip() for line in text.splitlines()]


def test_workflow_runs_the_documented_checks_on_one_blas_thread():
    lines = _workflow_lines()
    # ROADMAP.md documents the Tier-1 command on its "Tier-1 verify" line
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    documented = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap)
    assert documented, "ROADMAP.md no longer documents the Tier-1 command"
    assert 'OPENBLAS_NUM_THREADS: "1"' in lines
    assert f"run: {documented.group(1)}" in lines
    assert "run: python3 bench/selftest.py" in lines


def test_tier1_job_has_a_time_limit():
    # a hung criterion stops within 30 minutes, not at the 6-hour default
    lines = _workflow_lines()
    job = lines.index("tier1:")
    steps = lines.index("steps:", job)
    assert "timeout-minutes: 30" in lines[job:steps]
