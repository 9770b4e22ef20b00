"""covis benchmark driver.

    python3 perfbench/run.py --workload formation --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the library is imported from ``src/``.
A run starts four worker processes, one at a time. Each times its own set-up,
then repeats passes of the workload (its commands in a closed loop) for its
share of ``--seconds``. With ``--trace 0`` every worker is untraced and the
end-to-end metrics are reported; with ``--trace 1`` untraced and traced
workers alternate and the per-layer metrics are reported. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. A full
record of the run, with machine facts, every pass, the simulated counts and
the output digest, goes to ``.perfbench_out/results/``.

``--self-test`` feeds the output checks deliberately broken outputs and exits
non-zero unless each one is counted as a failed pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import CORRUPTIONS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# Every worker is killed once the run has lasted this long, so that the run
# ends well inside its 180 s limit.
HARD_LIMIT_S = 150.0
# Workers per run: each gives one set-up and one peak-RSS sample, then repeats
# the workload for its share of --seconds, less this allowance for set-up and
# the output checks.
WORKERS_PER_RUN = 4
SETUP_ALLOWANCE_S = 1.0
# (rate metric, count it divides, commands whose wall time it divides by)
STAGE_RATES = (
    ("estimates_per_s", "estimates", ("simulate", "homing")),
    ("edges_scored_per_s", "edges_scored", ("metrics",)),
    ("groups_per_s", "groups", ("datagen",)),
    ("frames_per_s", "frames_tx", ("netbench",)),
)
COMMANDS = ("simulate", "metrics", "datagen", "netbench", "homing")
# A reference second is the wall time the host takes for this many reference
# blocks (worker.reference_block), about 0.9 s on the 2-vCPU VM the
# benchmark was tuned on.
REFERENCE_BLOCKS_PER_S = 60


def run_worker(name: str, seed: int, worker_dir: Path, trace: bool, seconds: float, deadline: float,
               corrupt: str | None = None) -> dict:
    """One worker process repeating passes for ``seconds``; returns its result with set-up time."""
    if worker_dir.exists():
        shutil.rmtree(worker_dir)
    worker_dir.mkdir(parents=True)
    config = worker_dir / "config.json"
    config.write_text(json.dumps(WORKLOADS[name].config, sort_keys=True))
    argv = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--config", str(config),
            "--workload", name, "--seed", str(seed), "--dir", str(worker_dir), "--trace", str(int(trace)), "--seconds", repr(seconds)]
    if corrupt:
        argv += ["--corrupt", corrupt]
    ready = b""
    setup_s = 0.0
    with (worker_dir / "worker.log").open("w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log, cwd=ROOT)
        try:
            if select.select([proc.stdout], [], [], max(1.0, deadline - time.perf_counter()))[0]:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - start
            proc.stdout.close()
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    result_file = worker_dir / "result.json"
    if ready == b"ready\n" and proc.returncode == 0 and result_file.exists():
        result = json.loads(result_file.read_text())
    else:
        result = {"problems": [f"worker exited {proc.returncode} (ready={ready!r}); see {worker_dir}/worker.log"],
                  "passes": []}
    result.update(trace=trace, setup_s=setup_s)
    return result


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*.py")) + list(HERE.glob("*.py"))):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def mark_inconsistent(name: str, seed: int, workers: list[dict], ledger_path: Path | None) -> str | None:
    """Fail every worker whose outputs or counts differ from the first good worker's.

    The ledger also fails the run when an earlier run of the same seed on the
    same sources wrote different outputs. Returns the reference digest.
    """
    checked = [w for w in workers if not w["problems"] and w["passes"] and not w["passes"][0]["problems"]]
    if not checked:
        return None
    ref = checked[0]
    for w in checked[1:]:
        if (w["digest"], w["counts"]) != (ref["digest"], ref["counts"]):
            w["problems"].append("outputs or counts differ from the first worker of this seed")
    if ledger_path is not None:
        ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
        key = f"{name}/{seed}/{source_hash()}"
        if ledger.setdefault(key, ref["digest"]) != ref["digest"]:
            for w in workers:
                w["problems"].append("outputs differ from an earlier run of this seed")
        ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return ref["digest"]


def tally(workers: list[dict]) -> tuple[int, int]:
    """(passes attempted, passes failed); a worker that failed as a whole fails all its passes."""
    attempted = failed = 0
    for w in workers:
        n = max(1, len(w["passes"]))
        attempted += n
        failed += n if w["problems"] else sum(bool(p["problems"]) for p in w["passes"])
    return attempted, failed


def good_passes(workers: list[dict], traced: bool) -> list[tuple[dict, dict]]:
    return [(w, p) for w in workers if w["trace"] == traced and not w["problems"]
            for p in w["passes"] if not p["problems"]]


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(pairs) -> float:
    """Sum of numerators over sum of denominators: work over the time it took."""
    pairs = list(pairs)
    total = sum(d for _, d in pairs)
    return sum(n for n, _ in pairs) / total if total else 0.0


def work_per_ref_s(name: str, plain: list[tuple[dict, dict]]) -> float:
    """All work of the run's passes over their wall time counted in reference seconds.

    The reference is timed after every command, so both means sample the same
    stretch of the run: a host that runs everything slower for a while moves
    both alike and the ratio stays put, while a faster program raises it.
    """
    unit = WORKLOADS[name].work_unit
    ref_s = statistics.fmean(p["ref_s"] for _, p in plain) if plain else 0.0
    return REFERENCE_BLOCKS_PER_S * ref_s * _ratio((w["counts"][unit], sum(p["walls"].values())) for w, p in plain)


def end_to_end(name: str, workers: list[dict]) -> dict:
    plain = good_passes(workers, traced=False)
    return {
        "setup_s": _median(w["setup_s"] for w in workers if w["setup_s"] > 0.0),
        "peak_rss_mb": _median(w["peak_rss_mb"] for w in {id(w): w for w, _ in plain}.values()),
        "work_per_ref_s": work_per_ref_s(name, plain),
    }


def per_layer(name: str, workers: list[dict]) -> dict:
    plain = good_passes(workers, traced=False)
    traced = good_passes(workers, traced=True)
    good = plain + traced
    names = traced[0][1]["layers"] if traced else {}
    metrics = {key: _median(p["layers"][key] for _, p in traced) for key in names}
    for rate, count, commands in STAGE_RATES:
        metrics[rate] = _ratio((w["counts"][count], p["walls"][c]) for w, p in plain for c in commands if c in p["walls"])
    for command in COMMANDS:
        metrics[f"cli.{command}.s"] = _ratio((p["walls"][command], 1) for _, p in plain if command in p["walls"])
    metrics["cli.sim_x_realtime"] = _ratio(
        (w["counts"]["sim_seconds"], next(iter(p["walls"].values()))) for w, p in plain if w["counts"].get("sim_seconds")
    )
    metrics["cli.output_mb"] = _median(w["output_bytes"] / 1e6 for w, _ in good)
    metrics["netproto.decode.us_per_call"] = _median(
        w["decode_us_per_call"] for w in workers if not w["problems"] and "decode_us_per_call" in w
    )
    plain_wall = _ratio((sum(p["walls"].values()), 1) for _, p in plain)
    traced_wall = _ratio((sum(p["walls"].values()), 1) for _, p in traced)
    unit = WORKLOADS[name].work_unit
    metrics["work_per_s"] = _ratio((w["counts"][unit], sum(p["walls"].values())) for w, p in plain)
    metrics["reference_block_ms"] = 1e3 * _median(p["ref_s"] for _, p in plain + traced)
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0) if plain_wall and traced_wall else 0.0
    attempted, failed = tally(workers)
    metrics["error_rate"] = failed / attempted
    return metrics


def machine_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "loadavg_at_start": os.getloadavg(),
    }


def warm_up() -> None:
    """Import the library once so set-up timing never includes writing bytecode.

    A failed import is left for the workers to report as failed passes.
    """
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import covis.cli"],
                   cwd=ROOT, timeout=120, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def benchmark(args, facts: dict) -> dict:
    run_dir = OUT / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    warm_up()
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    workers: list[dict] = []
    for k in range(WORKERS_PER_RUN):
        share = (start + args.seconds - time.perf_counter()) / (WORKERS_PER_RUN - k)
        traced = bool(args.trace) and k % 2 == 1
        workers.append(run_worker(args.workload, args.seed, run_dir / f"worker{k}", traced,
                                  max(0.0, share - SETUP_ALLOWANCE_S), deadline))
        # Keep the newest good worker of each kind, and every failed one, on disk.
        older = [i for i, w in enumerate(workers[:-1]) if w["trace"] == traced and not w["problems"]]
        if older:
            shutil.rmtree(run_dir / f"worker{older[-1]}", ignore_errors=True)
        if time.perf_counter() >= deadline:
            break
    digest = mark_inconsistent(args.workload, args.seed, workers, OUT / "digests.json")
    attempted, failed = tally(workers)
    metrics = per_layer(args.workload, workers) if args.trace else end_to_end(args.workload, workers)
    ok = [w for w in workers if not w["problems"] and w["passes"]]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": facts, "versions_in_worker": ok[0]["versions"] if ok else None,
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "digest": digest, "counts": ok[0]["counts"] if ok else None,
        "metrics": metrics, "workers": workers,
    }


def self_test(seed: int) -> int:
    """Each corruption must turn a clean pass of its workload into a failed one."""
    outcomes = []
    for kind, (name, _, _) in CORRUPTIONS.items():
        for corrupt in (None, kind):
            deadline = time.perf_counter() + HARD_LIMIT_S
            w = run_worker(name, seed, OUT / "self-test" / f"{kind}-{bool(corrupt)}", False, 0.0, deadline, corrupt)
            problems = w["problems"] + [q for p in w["passes"] for q in p["problems"]]
            outcomes.append({"workload": name, "corruption": corrupt, "failed": bool(problems), "problems": problems})
    passed = all(o["failed"] == (o["corruption"] is not None) for o in outcomes)
    for o in outcomes:
        print(f"{o['workload']:10s} {str(o['corruption']):22s} counted as failure: {o['failed']}", file=sys.stderr)
    print(json.dumps({"self_test_passed": passed, "outcomes": outcomes}))
    return 0 if passed else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "covis" / "cli.py").is_file():
        print(f"no covis sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    facts = machine_facts()
    record = benchmark(args, facts)
    names = {m["name"] for m in listed}
    if set(record["metrics"]) - names or (record["failed"] == 0 and names - set(record["metrics"])):
        raise SystemExit(f"metrics {sorted(record['metrics'])} do not match BENCHMARK.json")
    for name in names - set(record["metrics"]):  # a run with no good traced pass
        record["metrics"][name] = 0.0
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
