"""Golden output digests: the sha256 of every output file of a fixed set of runs.

``tests/test_golden.py`` reruns the cases below and compares against
``tests/golden.json``. A change that alters an output on purpose rewrites the
file from the repository root with

    python3 tools/golden.py

which prints each key it adds, changes, removes or renames, and names every
changed digest. The digests depend on the Python and numpy
builds (and the platform libm), so ``golden.json`` records the versions it was
made with.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"

sys.path.insert(0, str(ROOT / "src"))
from covis import cli  # noqa: E402

# A step is (output directory, subcommand, input file written by an earlier step).
_DATASET_STEPS = (("datagen", "datagen", None), ("metrics", "metrics", "datagen/dataset.jsonl"))
# Every command once; metrics reads both the runlog and the dataset.
_ALL_STEPS = (
    ("simulate", "simulate", None),
    ("metrics_runlog", "metrics", "simulate/runlog.jsonl"),
    ("traces", "traces", "simulate/runlog.jsonl"),
    *_DATASET_STEPS,
    ("netbench", "netbench", None),
    ("homing", "homing", None),
)
# The closed-loop steps, run for each leader trajectory kind.
_TRAJECTORY_STEPS = (
    ("simulate", "simulate", None),
    ("traces", "traces", "simulate/runlog.jsonl"),
    ("homing", "homing", None),
)
# (name, config, seeds, steps). formation, dataset and netstorm are the
# perfbench workload configs; world16 is a floor that is not a whole number of
# cells at the default resolution; rect_dynamic and fig8_static cover the
# trajectory kinds that the default (fig8_dynamic) does not; contended shares
# slots, so frames collide, with a propagation delay and heavy random loss.
CASES = (
    ("default", {}, (101,), _ALL_STEPS),
    (
        "formation",
        {"n_nodes": 8, "duration_s": 10.0},
        (101, 202),
        (("simulate", "simulate", None), ("metrics", "metrics", "simulate/runlog.jsonl")),
    ),
    ("dataset", {"n_groups": 4}, (101, 202), _DATASET_STEPS),
    ("netstorm", {"n_nodes": 8, "n_slots": 8, "duration_s": 60.0}, (101, 202), (("netbench", "netbench", None),)),
    ("world16", {"n_groups": 4, "world_extent_m": 16.0}, (101, 202), _DATASET_STEPS),
    ("rect_dynamic", {"trajectory": "rect_dynamic", "duration_s": 30.0}, (101,), _TRAJECTORY_STEPS),
    ("fig8_static", {"trajectory": "fig8_static", "duration_s": 30.0}, (101,), _TRAJECTORY_STEPS),
    (
        "contended",
        {"n_nodes": 6, "n_slots": 3, "propagation_s": 0.0005, "base_loss": 0.2, "duration_s": 20.0},
        (101,),
        (("netbench", "netbench", None), ("simulate", "simulate", None)),
    ),
)


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def digests(work: Path, cases=CASES) -> dict[str, str]:
    """Run every case under ``work``; sha256 per output file, keyed case/seed/step/file."""
    out: dict[str, str] = {}
    for name, config, seeds, steps in cases:
        cfg_path = work / f"{name}.json"
        cfg_path.write_text(json.dumps(config))
        for seed in seeds:
            run = work / name / str(seed)
            for out_dir, command, source in steps:
                argv = [command, "--config", str(cfg_path), "--seed", str(seed), "--out", str(run / out_dir)]
                if source is not None:
                    argv += ["--input", str(run / source)]
                code = cli.main(argv)
                if code != cli.EXIT_OK:
                    raise RuntimeError(f"{name} seed {seed}: covis {command} exited {code}")
            for path in sorted(p for p in run.rglob("*") if p.is_file()):
                key = f"{name}/{seed}/{path.relative_to(run).as_posix()}"
                out[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per key added, changed, removed or renamed from ``old`` to ``new``.

    A removed key is renamed when its digest is that of no other removed key
    and of exactly one added key, which is then not reported as added.
    """
    removed, added = old.keys() - new.keys(), new.keys() - old.keys()
    gone, came = Counter(old[k] for k in removed), Counter(new[k] for k in added)
    key_of = {new[k]: k for k in added}
    renamed = {k: key_of[old[k]] for k in removed if gone[old[k]] == came[old[k]] == 1}
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key in renamed:
            lines.append(f"renamed {key} -> {renamed[key]}")
        elif old.get(key) != new.get(key) and key not in renamed.values():
            lines.append(f"{'added' if key not in old else 'removed' if key not in new else 'changed'} {key}")
    return lines


def main() -> int:
    old = json.loads(GOLDEN.read_text())["digests"] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        found = digests(Path(tmp))
    GOLDEN.write_text(json.dumps({"versions": versions(), "digests": found}, indent=1, sort_keys=True) + "\n")
    for line in changes(old, found):
        print(line)
    print(f"wrote {len(found)} digests to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
