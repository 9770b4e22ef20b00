"""Every output file of the golden runs matches its digest in tests/golden.json."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)


def test_outputs_match_golden_digests(tmp_path):
    want = json.loads(golden.GOLDEN.read_text())
    got = golden.digests(tmp_path)
    expected = want["digests"]
    differ = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert not differ, (
        f"{len(differ)} of {len(expected)} output digests differ: {differ}. "
        f"golden.json was made with {want['versions']}, this run has {golden.versions()}; "
        "rewrite it with `python3 tools/golden.py` only for a declared stream change"
    )


def test_changes_name_each_added_changed_and_removed_key():
    old = {"a/1/x.csv": "0", "b/1/y.csv": "1", "c/1/z.csv": "2"}
    new = {"a/1/x.csv": "0", "b/1/y.csv": "9", "d/1/w.csv": "3"}
    assert golden.changes(old, new) == ["changed b/1/y.csv", "removed c/1/z.csv", "added d/1/w.csv"]
    assert golden.changes(new, new) == []
