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


def test_every_trace_target_exists():
    """A renamed library name would read 0 in the benchmark's per-layer metrics."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", CHECK], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
