"""The benchmark's tracer patches program entry points by module attribute
name (benchmarks/spans.py).  Installing its full set here makes a change
that removes or renames one of those names fail the test suite, not only a
later benchmark run.  Only reads benchmarks/."""

import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    return spans


def test_full_span_set_installs_and_uninstalls(spans):
    rec = spans.Recorder()
    originals = [owner.__dict__[attr] for owner, attr, _name, _info in spans.FULL]
    rec.install(spans.FULL)
    try:
        patched = [owner.__dict__[attr] for owner, attr, _name, _info in spans.FULL]
        assert all(p is not o for p, o in zip(patched, originals))
    finally:
        rec.uninstall()
    restored = [owner.__dict__[attr] for owner, attr, _name, _info in spans.FULL]
    assert all(r is o for r, o in zip(restored, originals))
