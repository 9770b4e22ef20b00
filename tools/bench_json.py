"""Summarize perfbench result records of two checkouts into one BENCH_<n>.json.

    python3 tools/bench_json.py --parent ../parent --change . --out BENCH_7.json

Each side is the root of a source checkout that ran ``perfbench/run.py``; its
records are read from ``.perfbench_out/results/*.json``. For every workload
and every end-to-end metric named in ``BENCHMARK.json`` the file holds the
runs, median and quartiles of each side, and over the seeds both sides ran,
the pairs the change won and lost. Traced runs (``--trace 1``) give the
median of each per-layer metric per side. Machine facts and the failed and
attempted passes come from the records themselves. ``--seeds`` keeps only
records of the listed seeds, for example ``7001-7010,7401``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str | None) -> set[int] | None:
    if not text:
        return None
    seeds: set[int] = set()
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.update(range(int(low), int(high or low) + 1))
    return seeds


def load_records(checkout: Path, seeds: set[int] | None) -> list[dict]:
    paths = sorted((checkout / ".perfbench_out" / "results").glob("*.json"))
    records = [json.loads(p.read_text()) for p in paths]
    return [r for r in records if seeds is None or r["seed"] in seeds]


def commit_of(checkout: Path) -> str | None:
    """HEAD's hash, with ``-dirty`` when a tracked file differs from it, or None
    when ``checkout`` is not the root of a git checkout; both are warned about."""
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)

    done = git("rev-parse", "--show-toplevel", "HEAD")
    top, _, commit = done.stdout.strip().partition("\n")
    if done.returncode != 0 or Path(top).resolve() != checkout.resolve():
        print(f"warning: {checkout} is not a git checkout; its commit is recorded as null", file=sys.stderr)
        return None
    if git("status", "--porcelain", "--untracked-files=no").stdout.strip():
        print(f"warning: {checkout} has uncommitted changes; its commit is recorded as {commit}-dirty",
              file=sys.stderr)
        commit += "-dirty"
    return commit


def spread(values: list[float]) -> dict:
    """Runs, median and inclusive quartiles of one side's values."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3, "values": values}


def compare(parent: list[dict], change: list[dict], metric: str, better: str) -> dict:
    """One end-to-end metric of one workload on both sides, with the seed-matched pairs."""
    by_seed = {"parent": {}, "change": {}}
    for side, records in (("parent", parent), ("change", change)):
        for r in records:
            by_seed[side].setdefault(r["seed"], []).append(r["metrics"][metric])
    out = {side: spread([r["metrics"][metric] for r in records])
           for side, records in (("parent", parent), ("change", change)) if records}
    wins = losses = 0
    both = set(by_seed["parent"]) & set(by_seed["change"])
    for seed in sorted(both):
        a, b = statistics.median(by_seed["parent"][seed]), statistics.median(by_seed["change"][seed])
        gain = b - a if better == "higher" else a - b
        wins += gain > 0
        losses += gain < 0
    out["pairs"] = {"won": wins, "lost": losses, "tied": len(both) - wins - losses}
    if "parent" in out and "change" in out and out["parent"]["median"]:
        out["change_over_parent"] = out["change"]["median"] / out["parent"]["median"]
    return out


def machine(records: list[dict]) -> dict:
    """Each machine fact with every value the records report for it."""
    facts: dict[str, list] = {}
    for r in records:
        for key, value in r.get("machine", {}).items():
            if key != "loadavg_at_start" and value not in facts.setdefault(key, []):
                facts[key].append(value)
    return {key: values[0] if len(values) == 1 else values for key, values in sorted(facts.items())}


def summarize(parent: list[dict], change: list[dict], spec: dict) -> dict:
    workloads = sorted({r["workload"] for r in parent + change})
    out = {}
    for workload in workloads:
        sides = {name: [r for r in records if r["workload"] == workload]
                 for name, records in (("parent", parent), ("change", change))}
        untraced = {name: [r for r in records if not r["trace"]] for name, records in sides.items()}
        traced = {name: [r for r in records if r["trace"]] for name, records in sides.items()}
        entry = {
            "seeds": sorted({r["seed"] for rs in untraced.values() for r in rs}),
            "passes": {
                name: {"failed": sum(r["failed"] for r in rs), "attempted": sum(r["attempted"] for r in rs)}
                for name, rs in untraced.items()
            },
            "end_to_end": {
                m["name"]: compare(untraced["parent"], untraced["change"], m["name"], m["better"])
                for m in spec["end_to_end"] if untraced["parent"] or untraced["change"]
            },
        }
        if any(traced.values()):
            entry["per_layer_median"] = {
                name: {metric: statistics.median(r["metrics"][metric] for r in rs)
                       for metric in sorted(rs[0]["metrics"])}
                for name, rs in traced.items() if rs
            }
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--seeds", help="keep only these seeds, e.g. 7001-7010,7401")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    parent, change = load_records(args.parent, seeds), load_records(args.change, seeds)
    if not parent or not change:
        print("no result records on one side", file=sys.stderr)
        return 2
    bench = {
        "command": spec["command"] + ["--workload", "<name>", "--seed", "<seed>", "--seconds", "<s>",
                                      "--trace", "<0|1>"],
        "seconds": sorted({r["seconds"] for r in parent + change}),
        "commits": {"parent": commit_of(args.parent), "change": commit_of(args.change)},
        "machine": machine(parent + change),
        "workloads": summarize(parent, change, spec),
    }
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
