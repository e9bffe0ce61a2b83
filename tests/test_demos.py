"""Smoke test of the demo scripts: each runs to completion against the
package's public names.  Demo 05 (the full well scenario, about 12 s) is
left out.  README's "A minimal step by hand" block runs too."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("0[1-4]_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_readme_minimal_step_runs():
    """The documented step by hand runs against the public API and converges."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"A minimal step by hand:\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None, "README lost its minimal step block"
    namespace = {}
    exec(compile(block.group(1), "README.md", "exec"), namespace)
    assert namespace["report"].converged
    assert (namespace["t_new"][namespace["top"]] == -20.0).all()
