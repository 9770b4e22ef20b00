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


# Loads this module from argv[2], reruns every golden case and writes its
# digests, with the dispatch features it was asked to switch off that numpy
# still reports on, to the file argv[1].
_CHILD = """
import importlib.util, json, os, sys, tempfile
from pathlib import Path
spec = importlib.util.spec_from_file_location("test_golden", sys.argv[2])
here = importlib.util.module_from_spec(spec)
spec.loader.exec_module(here)
on = here._cpu_features()[1]
still_on = [f for f in os.environ["NPY_DISABLE_CPU_FEATURES"].split() if on.get(f)]
with tempfile.TemporaryDirectory() as tmp:
    found = here.golden.digests(Path(tmp))
Path(sys.argv[1]).write_text(json.dumps({"still_on": still_on, "digests": found}))
"""


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
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(off)}
    out = tmp_path / "child.json"
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(out), __file__],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    child = json.loads(out.read_text())
    assert child["still_on"] == [], f"NPY_DISABLE_CPU_FEATURES={off} left {child['still_on']} on"
    _assert_match(child["digests"])


def test_changes_name_each_added_changed_and_removed_key():
    old = {"a/1/x.csv": "0", "b/1/y.csv": "1", "c/1/z.csv": "2"}
    new = {"a/1/x.csv": "0", "b/1/y.csv": "9", "d/1/w.csv": "3"}
    assert golden.changes(old, new) == ["changed b/1/y.csv", "removed c/1/z.csv", "added d/1/w.csv"]
    assert golden.changes(new, new) == []
