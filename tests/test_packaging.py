"""Package-level invariants: import cost and the single version source."""

import os
import pathlib
import re
import subprocess
import sys

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_import_repro_leaves_scipy_stats_unloaded():
    # scipy.stats is most of a cold ``import repro``; only the KS drift
    # test needs it, so it must load on first use, not at import.
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "False"


def test_version_matches_newest_changelog_heading():
    changelog = (ROOT / "CHANGELOG.md").read_text(encoding="utf-8")
    newest = re.search(r"^## (\S+)", changelog, flags=re.MULTILINE)
    assert newest is not None
    assert repro.__version__ == newest.group(1)
