"""Every output file of the golden runs matches its digest in tests/golden.json."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)


def _cpu_features() -> tuple[list, dict]:
    """numpy's dispatched SIMD features and which this CPU has; numpy keeps
    both private, at a path that moved in numpy 2.0."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return __cpu_dispatch__, __cpu_features__


# Every command once, at a small config: 4 nodes, 3 s, 2 groups.
SMALL = (("small", {"n_nodes": 4, "duration_s": 3.0, "n_groups": 2}, (5,), golden._ALL_STEPS),)
CASE_SETS = {"golden": golden.CASES, "small": SMALL}

# Loads this module from argv[2], reruns the cases CASE_SETS[argv[3]] and
# writes their digests, with the dispatch features it was asked to switch off
# that numpy still reports on, to the file argv[1].
_CHILD = """
import importlib.util, json, os, sys, tempfile
from pathlib import Path
spec = importlib.util.spec_from_file_location("test_golden", sys.argv[2])
here = importlib.util.module_from_spec(spec)
spec.loader.exec_module(here)
on = here._cpu_features()[1]
still_on = [f for f in os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split() if on.get(f)]
with tempfile.TemporaryDirectory() as tmp:
    found = here.golden.digests(Path(tmp), here.CASE_SETS[sys.argv[3]])
Path(sys.argv[1]).write_text(json.dumps({"still_on": still_on, "digests": found}))
"""


def _child(out: Path, cases: str, **env: str) -> dict:
    """The ``_CHILD`` result of a fresh interpreter that runs ``cases`` with ``env`` added."""
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(out), __file__, cases],
        env={**os.environ, **env}, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


def _assert_match(got: dict) -> None:
    want = json.loads(golden.GOLDEN.read_text())
    expected = want["digests"]
    differ = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert not differ, (
        f"{len(differ)} of {len(expected)} output digests differ: {differ}. "
        f"golden.json was made with {want['versions']}, this run has {golden.versions()}; "
        "rewrite it with `python3 tools/golden.py` only for a declared stream change"
    )


def test_outputs_match_golden_digests(tmp_path):
    _assert_match(golden.digests(tmp_path))


def test_outputs_do_not_depend_on_simd_dispatch(tmp_path):
    # numpy picks its vectorized loops at import from the CPU's features. A
    # child with every dispatched feature this CPU has switched off runs the
    # baseline loops; on a CPU with nothing above the baseline both runs match.
    dispatch, on = _cpu_features()
    off = [f for f in dispatch if on.get(f)]
    child = _child(tmp_path / "child.json", "golden", NPY_DISABLE_CPU_FEATURES=" ".join(off))
    assert child["still_on"] == [], f"NPY_DISABLE_CPU_FEATURES={off} left {child['still_on']} on"
    _assert_match(child["digests"])


def test_outputs_do_not_depend_on_the_string_hash_seed(tmp_path):
    # Set and dict order of strings follows PYTHONHASHSEED; no output may.
    one, two = (_child(tmp_path / f"seed{h}.json", "small", PYTHONHASHSEED=h)["digests"] for h in ("1", "2"))
    assert len(one) == sum(len(golden.cli._OUTPUTS[command]) for _, command, _ in golden._ALL_STEPS)
    assert one == two


def test_changes_name_each_added_changed_and_removed_key():
    old = {"a/1/x.csv": "0", "b/1/y.csv": "1", "c/1/z.csv": "2"}
    new = {"a/1/x.csv": "0", "b/1/y.csv": "9", "d/1/w.csv": "3"}
    assert golden.changes(old, new) == ["changed b/1/y.csv", "removed c/1/z.csv", "added d/1/w.csv"]
    assert golden.changes(new, new) == []


def test_changes_name_a_digest_moved_to_one_new_key_a_rename():
    old = {"a/1/summary.csv": "5", "b/1/y.csv": "1", "c/1/z.csv": "2", "e/1/p.csv": "7", "e/1/q.csv": "7"}
    new = {"a/1/tracking.csv": "5", "b/1/y.csv": "9", "d/1/v.csv": "2", "d/1/w.csv": "2", "f/1/p.csv": "7"}
    # c's digest went to two new keys, and e's two keys share the digest of f's one.
    assert golden.changes(old, new) == [
        "renamed a/1/summary.csv -> a/1/tracking.csv",
        "changed b/1/y.csv",
        "removed c/1/z.csv",
        "added d/1/v.csv",
        "added d/1/w.csv",
        "removed e/1/p.csv",
        "removed e/1/q.csv",
        "added f/1/p.csv",
    ]
    assert golden.changes(new, old)[0] == "renamed a/1/tracking.csv -> a/1/summary.csv"
