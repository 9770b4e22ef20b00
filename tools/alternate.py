"""Time one ``covis`` command from two source trees, alternating which runs first.

    python3 tools/alternate.py ../parent . --rounds 10 -- metrics --input runlog.jsonl

Each run is a fresh Python process with ``PYTHONPATH`` set to the tree's
``src``; it times ``covis.cli.main`` on the given arguments, so interpreter
start and imports stay out of the number. ``--out`` goes to a new temporary
directory per run. Round k runs the first tree first when k is even and the
second tree first when k is odd. For each side the tool prints the minimum
and median seconds, the interquartile range (the distance between the
inclusive quartiles, as ``tools/bench_json.py`` takes them) and the rounds it
won; a tie counts for neither.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# Run in the child: time main(argv) and print the seconds, or fail with its exit code.
_CHILD = """
import sys, time
from covis.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
elapsed = time.perf_counter() - start
if code:
    sys.exit(code)
print(repr(elapsed))
"""


def time_once(tree: Path, command: list[str]) -> float:
    """Seconds that ``covis.cli.main(command)`` took in a fresh process importing ``tree/src``."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    with tempfile.TemporaryDirectory() as out:
        done = subprocess.run([sys.executable, "-c", _CHILD, *command, "--out", out],
                              env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: covis {' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def alternate(trees: tuple[Path, Path], command: list[str], rounds: int) -> list[list[float]]:
    """Each tree's seconds per round, the first tree running first in even rounds."""
    times: list[list[float]] = [[], []]
    for k in range(rounds):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            times[side].append(time_once(trees[side], command))
    return times


def iqr(times: list[float]) -> float:
    """Distance between the inclusive quartiles of ``times``; 0 for a single run."""
    if len(times) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q3 - q1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    argv, command = argv[:split], argv[split + 1 :]
    parser = argparse.ArgumentParser(usage="%(prog)s first second [--rounds N] -- covis-command [args...]",
                                     description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("first", type=Path, help="root of the first source tree, e.g. the parent commit")
    parser.add_argument("second", type=Path, help="root of the second source tree, e.g. the change")
    parser.add_argument("--rounds", type=int, default=10, help="runs per tree (default 10)")
    args = parser.parse_args(argv)
    if not command or args.rounds < 1:
        parser.error("give --rounds >= 1 and a covis command after --")
    times = alternate((args.first, args.second), command, args.rounds)
    won = [sum(a < b for a, b in zip(times[side], times[1 - side])) for side in (0, 1)]
    print(f"covis {' '.join(command)}: {args.rounds} rounds")
    print(f"{'tree':<40} {'min_s':>10} {'median_s':>10} {'iqr_s':>10} {'won':>5}")
    for tree, t, w in zip((args.first, args.second), times, won):
        print(f"{str(tree):<40} {min(t):>10.4f} {statistics.median(t):>10.4f} {iqr(t):>10.4f} {w:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
