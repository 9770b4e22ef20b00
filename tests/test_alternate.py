"""tools/alternate.py: fresh-process timings of one covis command from two trees, taken in alternation."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("alternate", ROOT / "tools" / "alternate.py")
alternate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(alternate)


def test_this_tree_against_itself(tmp_path, capsys):
    config = tmp_path / "homing.json"
    config.write_text(json.dumps({"duration_s": 1.0}))
    argv = [str(ROOT), str(ROOT), "--rounds", "2", "--", "homing", "--config", str(config)]
    assert alternate.main(argv) == 0
    title, header, *rows = capsys.readouterr().out.splitlines()
    assert title == f"covis homing --config {config}: 2 rounds"
    assert header.split() == ["tree", "min_s", "median_s", "iqr_s", "won"]
    assert [row.split()[0] for row in rows] == [str(ROOT)] * 2
    for row in rows:
        low, median, spread, won = row.split()[1:]
        assert 0.0 < float(low) <= float(median) and float(spread) >= 0.0 and won in "012"
    assert sum(int(row.split()[4]) for row in rows) <= 2


def test_rounds_alternate_which_tree_runs_first(monkeypatch):
    calls = []
    monkeypatch.setattr(alternate, "time_once", lambda tree, command: calls.append(tree) or float(len(calls)))
    times = alternate.alternate((Path("a"), Path("b")), ["homing"], 3)
    assert calls == [Path(t) for t in "abbaab"]
    assert times == [[1.0, 4.0, 5.0], [2.0, 3.0, 6.0]]


def test_iqr_is_the_inclusive_quartile_distance():
    assert alternate.iqr([0.5]) == 0.0
    assert alternate.iqr([4.0, 1.0, 3.0, 2.0]) == 1.5  # quartiles 1.75 and 3.25


def test_a_failed_command_is_reported(tmp_path):
    with pytest.raises(RuntimeError, match="exited 3"):
        alternate.time_once(ROOT, ["metrics", "--input", str(tmp_path / "missing.jsonl")])
