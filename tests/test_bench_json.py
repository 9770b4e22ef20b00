"""tools/bench_json.py: medians, quartiles and seed-matched pairs from result records."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_json", ROOT / "tools" / "bench_json.py")
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)


def write_records(checkout, workload, rates, trace=0, first_seed=1):
    results = checkout / ".perfbench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    for k, rate in enumerate(rates):
        seed = first_seed + k
        metrics = {"work_per_ref_s": rate, "peak_rss_mb": 100.0 + k, "setup_s": 1.0}
        if trace:
            metrics = {"metrics.edges": 4000 + k, "cli.metrics.s": 0.1}
        record = {"workload": workload, "seed": seed, "trace": trace, "seconds": 28.0, "failed": k % 2,
                  "attempted": 10, "metrics": metrics,
                  "machine": {"nproc": 2, "cpu_model": "cpu", "loadavg_at_start": [k, 0, 0]}}
        (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_summary(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_records(parent, "formation", [10.0, 20.0, 30.0, 40.0, 50.0])
    write_records(change, "formation", [15.0, 25.0, 35.0, 45.0, 5.0])
    write_records(change, "formation", [1.0], first_seed=99)  # no parent run of this seed
    write_records(parent, "formation", [0.0], trace=1)
    write_records(change, "formation", [0.0], trace=1)
    out = tmp_path / "BENCH.json"
    assert bench_json.main(["--parent", str(parent), "--change", str(change), "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["machine"] == {"cpu_model": "cpu", "nproc": 2}
    formation = bench["workloads"]["formation"]
    rate = formation["end_to_end"]["work_per_ref_s"]
    assert (rate["parent"]["median"], rate["parent"]["q1"], rate["parent"]["q3"]) == (30.0, 20.0, 40.0)
    assert rate["change"]["runs"] == 6 and rate["pairs"] == {"won": 4, "lost": 1, "tied": 0}
    # Lower is better for memory: equal seeds give equal values here.
    assert formation["end_to_end"]["peak_rss_mb"]["pairs"]["tied"] == 5
    assert formation["passes"]["parent"] == {"failed": 2, "attempted": 50}
    assert formation["per_layer_median"]["change"]["metrics.edges"] == 4000


@pytest.mark.parametrize("text, seeds", [("7001-7003,7401", {7001, 7002, 7003, 7401}), ("5", {5}), (None, None)])
def test_parse_seeds(text, seeds):
    assert bench_json.parse_seeds(text) == seeds


def test_missing_side(tmp_path):
    write_records(tmp_path / "parent", "dataset", [1.0])
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "none"), "--out", str(tmp_path / "b.json")]
    assert bench_json.main(argv) == 2


def test_commit_labels_tree_state(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    (repo / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one")
    head = git("rev-parse", "HEAD")
    (repo / "untracked.txt").write_text("not part of the tree\n")
    assert bench_json.commit_of(repo) == head
    assert capsys.readouterr().err == ""
    (repo / "a.txt").write_text("two\n")
    assert bench_json.commit_of(repo) == f"{head}-dirty"
    assert "uncommitted changes" in capsys.readouterr().err
    (repo / "plain").mkdir()
    assert bench_json.commit_of(repo / "plain") is None
    assert "not a git checkout" in capsys.readouterr().err
