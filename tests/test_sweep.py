"""The before/after sweep in ``tools/sweep.py`` is deterministic: the
same slice run twice compares equal, and a changed record is reported."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import sweep  # noqa: E402


def test_sweep_slice_is_reproducible():
    first = list(sweep.records(["hand", "mc-size"]))
    second = list(sweep.records(["hand", "mc-size"]))
    assert len(first) > 1000
    assert any("error" in r for r in first) and any("value" in r for r in first)
    assert sweep.compare(first, second) == {}
    err = next(i for i, r in enumerate(second) if i and "error" in r)
    val = next(i for i, r in enumerate(second) if i and "value" in r)
    changed = list(second[1:]) + [{"id": "extra", "value": 1.0}]
    changed[err - 1] = {"id": second[err]["id"], "error": [second[err]["error"][0], "changed"]}
    changed[val - 1] = {"id": second[val]["id"], "error": ["ConfigError", "changed"]}
    diffs = sweep.compare(first, changed)
    assert {kind: len(lines) for kind, lines in diffs.items()} == {"missing": 2, "message": 1, "outcome": 1}


def test_enum_wide_piece_is_reproducible():
    # a group of 2^15 elements: two enumeration blocks
    first = list(sweep.enum_records("j15"))
    assert len(first) == 24 and all("value" in r for r in first)
    assert sweep.compare(first, list(sweep.enum_records("j15"))) == {}
