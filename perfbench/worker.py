"""Passes of one workload in a fresh interpreter; started by run.py.

Set-up is interpreter start, ``import covis.cli`` and loading the config; the
worker prints ``ready`` once it is done so the parent can time it. A pass runs
the workload's commands back to back through ``covis.cli.main``; passes repeat
until ``--seconds`` have gone by, always at least one. After the first pass
the worker records peak RSS, then checks the outputs; every later pass must
write byte-identical outputs. ``result.json`` goes into the worker directory.

After every command the worker times a few runs of a fixed reference block
that does not use ``covis`` (``reference_block``), so that the run's passes
can be read against how fast the host ran while they did. Peak RSS is read
before the first reference block runs.
"""

import argparse
import functools
import importlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np


@functools.cache
def _reference_grid() -> tuple[np.ndarray, np.ndarray]:
    """A 64 x 64 x 96 grid, the size of the ray samples of one BEV crop, and a scattered order of its cells."""
    grid = np.linspace(0.0, 1.0, 64 * 64 * 96).reshape(64, 64, 96)
    return grid, np.arange(grid.size) * 7919 % grid.size


def reference_block() -> float:
    """A fixed mix of work that reads host speed and nothing of the program.

    13 to 20 ms on a 2-vCPU Xeon VM: dict updates and integer arithmetic in
    the interpreter, elementwise numpy on a small array, then elementwise
    work, a scattered gather and a reduction over a grid as large as the ray
    samples of one BEV crop. The grid is made on the first call, after the
    worker has read peak RSS.
    """
    acc: dict = {}
    total = 0.0
    for i in range(20000):
        key = i & 63
        acc[key] = acc.get(key, 0.0) + i * 0.5
        total += (i * 2654435761) & 1023
    x = np.linspace(0.0, 1.0, 16384)
    for _ in range(30):
        x = np.sqrt(x * 1.0001 + 0.5)
    grid, order = _reference_grid()
    scaled = grid * 1.0001 + 0.5
    picked = np.take(scaled.ravel(), order) > 0.7
    clear = (picked.reshape(grid.shape) & (scaled < 1.2)).any(axis=-1)
    return total + acc[0] + float(x[-1]) + float(clear.sum())


def time_reference() -> float:
    """Mean wall time of a reference block over three runs."""
    start = time.perf_counter()
    for _ in range(3):
        reference_block()
    return (time.perf_counter() - start) / 3


def install_captures(captured: dict) -> None:
    """Keep the run objects the outputs do not carry: network events and the homing result.

    Only references are kept; counting happens after the commands return.
    """
    netsim, cli = sys.modules["covis.netsim"], sys.modules["covis.cli"]
    run = netsim.Simulator.run

    def capture_run(sim, duration):
        events = run(sim, duration)
        captured["sim"] = (events, [b.trace for b in sim.behaviors.values()], len(sim.behaviors))
        return events

    netsim.Simulator.run = capture_run
    homing = cli.run_homing

    def capture_homing(cfg, *args, **kwargs):
        captured["homing"] = homing(cfg, *args, **kwargs)
        return captured["homing"]

    cli.run_homing = capture_homing


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=0.0, help="keep repeating the workload this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt")
    args = parser.parse_args()

    sys.path.insert(0, str(args.root / "src"))
    cli = importlib.import_module("covis.cli")
    cli.RunConfig.from_file(args.config)
    print("ready", flush=True)
    os.dup2(2, 1)  # the parent's pipe carries the ready line only

    import workloads
    from tracing import Tracer, layer_metrics

    workload = workloads.WORKLOADS[args.workload]
    cfg = json.loads(args.config.read_text())
    out = args.dir / "out"
    tracer = Tracer() if args.trace else None
    result = {"problems": [], "passes": []}
    if tracer is not None:
        result["untraced_targets"] = tracer.install()
    captured: dict = {}
    install_captures(captured)

    budget_end = time.perf_counter() + args.seconds
    while True:
        if tracer is not None:
            tracer.reset()
        shutil.rmtree(out, ignore_errors=True)
        walls, refs, problems = {}, [], []
        first = not result["passes"]
        for command, source in workload.commands:
            argv = workloads.command_argv(command, source, args.config, args.seed, out)
            start = time.perf_counter()
            rc = cli.main(argv)
            walls[command] = time.perf_counter() - start
            if not first:
                refs.append(time_reference())
            if rc != 0:
                problems.append(f"{command} exited {rc}")
                break
        if first:  # read before any reference block has run, so the peak is the program's
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            refs.append(time_reference())
        sim = captured.pop("sim", None)
        if first:
            if sim is not None:
                events, traces, n_nodes = sim
                captured["network"] = workloads.network_counts(
                    ((e.kind, e.collided) for e in events), [s["divisor"] for t in traces for s in t], n_nodes
                )
            if args.corrupt:
                workloads.corrupt(args.corrupt, out)
            counts: dict = {}
            if not problems:
                try:
                    counts = workloads.CHECKS[workload.name](out, cfg, captured, problems)
                except Exception:  # a check that cannot read the output is a failed output
                    problems.append("check raised:\n" + traceback.format_exc())
            if "decode_us_per_call" in counts:  # a timing, so kept out of the compared counts
                result["decode_us_per_call"] = counts.pop("decode_us_per_call")
            result["counts"] = counts
        digest, size = workloads.output_digest(out)
        if first:
            result["digest"], result["output_bytes"] = digest, size
        elif digest != result["digest"]:
            problems.append("outputs differ from the first pass in this process")
        one = {"walls": walls, "ref_s": sum(refs) / len(refs), "problems": problems}
        if tracer is not None:
            one["layers"] = layer_metrics(tracer, result["counts"])
            estimates = result["counts"].get("estimates", 0)
            if one["layers"]["estimator.estimate.calls"] != estimates:
                problems.append("traced estimate calls differ from the estimates in the output")
        result["passes"].append(one)
        if problems or time.perf_counter() >= budget_end:
            break

    if tracer is not None:
        tracer.write(args.dir / "spans.csv")
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
    }
    (args.dir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
