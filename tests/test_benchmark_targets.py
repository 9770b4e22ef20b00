import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Run in a child process: Tracer.install patches covis modules process-wide.
CHECK = """
import sys
sys.path[:0] = ["src", "perfbench"]
import covis.cli
from tracing import Tracer
missing = Tracer().install()
assert missing == [], missing
assert callable(covis.cli.run_homing)
"""


# The traced benchmark fails every pass whose estimate span count differs from
# the estimates in its output, so estimates must stay one call per edge.
ONE_CALL_PER_EDGE = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import covis.cli
from tracing import Tracer
tracer = Tracer()
assert tracer.install() == []
config, out = sys.argv[1:]
assert covis.cli.main(["simulate", "--config", config, "--out", out]) == 0
lines = open(out + "/runlog.jsonl").read().splitlines()[1:]
logged = sum(len(json.loads(line)["estimates"]) for line in lines)
calls = tracer.summarize()["estimator.estimate"]["calls"]
assert calls == logged > 0, (calls, logged)
"""


def run_child(code, *args):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_every_trace_target_exists():
    """A renamed library name would read 0 in the benchmark's per-layer metrics."""
    run_child(CHECK)


def test_one_traced_estimate_per_logged_estimate(tmp_path):
    # One slot per node: pairs sharing a slot would collide through the whole
    # second and log no estimate.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_nodes": 8, "n_slots": 8, "duration_s": 1.0}))
    run_child(ONE_CALL_PER_EDGE, str(config), str(tmp_path / "out"))
