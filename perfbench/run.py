"""Run one workload of the ptheta benchmark and print its metrics.

    python3 perfbench/run.py --workload eval-direct --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout: ptheta is imported from ./src.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones (BENCHMARK.json), measured with
tracing off; with --trace 1 they are the per-layer ones, from a traced replay
of the same rounds.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 7
SETUP_CODE = "import ptheta; ptheta.theta_certified(0.5, -6.0); print('ready', flush=True)"


def measure_setup(sampler):
    """(start, duration) in ns of SETUP_RUNS fresh interpreters, each timed
    from its start to its first certified value, import included."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    starts, durations = [], []
    for _ in range(SETUP_RUNS):
        sampler.sample()
        t0 = time.perf_counter_ns()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            starts.append(t0)
            durations.append(time.perf_counter_ns() - t0)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, output {line!r})")
    sampler.sample()
    return starts, durations


class Phase:
    """What one sequence of whole rounds produced."""

    def __init__(self):
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        # timed operations that succeeded: round, index in the round, kind,
        # start and duration (ns)
        self.timed: list[tuple[int, int, str, int, int]] = []
        self.normalised_ns = None  # durations at the reference speed
        self.outputs: dict = {}  # (round, index) -> (op, output)
        self.mismatches: list[str] = []
        self.failures: dict = {}  # op kind -> first failure seen


def run_phase(workload, sampler, *, seconds=None, rounds=None, tracer=None,
              reference=None) -> Phase:
    """Run whole rounds until the operations have taken `seconds` (at least
    one round; drawing inputs and preparing are not counted) or exactly
    `rounds` rounds.  Outputs of a round that repeats inputs seen
    before, in this phase or in `reference`, must be identical to them."""
    from ptheta.errors import PThetaError

    phase = Phase()
    paused = tracer.paused if tracer else contextlib.nullcontext
    stream = workload.rounds()
    measured_ns = 0
    while True:
        for i, op in enumerate(next(stream)):
            if op.prepare:
                with paused():
                    op.prepare()
            sampler.maybe_sample()
            with contextlib.nullcontext() if op.timed else paused():
                t0 = time.perf_counter_ns()
                try:
                    out, exc = op.fn(), None
                except Exception as e:  # every escape counts as a failed operation
                    out, exc = None, e
                dt = time.perf_counter_ns() - t0
            measured_ns += dt
            phase.attempted += 1
            if not (isinstance(exc, PThetaError) if op.must_raise else exc is None):
                phase.failed += 1
                phase.failures.setdefault(op.kind, f"{op.args}: {exc!r}" if exc else
                                          f"{op.args}: returned instead of raising")
                continue
            if op.must_raise:
                continue
            if op.timed:
                phase.timed.append((phase.rounds, i, op.kind, t0, dt))
            key = (0 if workload.repeats_inputs else phase.rounds, i)
            known = (reference or {}).get(key) or phase.outputs.get(key)
            if known is None:
                phase.outputs[key] = (op, out)
            elif known[1] != out:
                phase.mismatches.append(f"{op.kind}{op.args}: output differs from an earlier round")
        phase.rounds += 1
        sampler.maybe_sample()
        if rounds is not None:
            if phase.rounds >= rounds:
                break
        elif measured_ns >= seconds * 1e9:
            break
    return phase


def percentile(sorted_values, p: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def normalise(phase: Phase, sampler) -> None:
    _, _, _, starts, durations = zip(*phase.timed)
    phase.normalised_ns = sampler.normalise(starts, durations)


def per_round(phase: Phase) -> list[dict]:
    """Normalised seconds by op kind, one dict per round."""
    rounds = [{} for _ in range(phase.rounds)]
    for (r, _, kind, _, _), ns in zip(phase.timed, phase.normalised_ns):
        rounds[r][kind] = rounds[r].get(kind, 0.0) + ns / 1e9
    return rounds


def end_to_end(phase: Phase, setup_s: float, repeats_inputs: bool) -> dict:
    """The end-to-end metrics.  Where rounds repeat their inputs, an
    operation's latency is its median over the rounds of the run."""
    if repeats_inputs:
        by_op: dict = {}
        for (_, i, _, _, _), ns in zip(phase.timed, phase.normalised_ns):
            by_op.setdefault(i, []).append(ns)
        lat = sorted(statistics.median(v) for v in by_op.values())
    else:
        lat = sorted(phase.normalised_ns)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(phase.timed) / (phase.normalised_ns.sum() / 1e9), "1/s"),
        "op_p50_us": (statistics.median(lat) / 1e3, "us"),
        "op_p99_us": (percentile(lat, 99) / 1e3, "us"),
    }


def traced_run(workload, seconds: float, sampler):
    """Untraced rounds, the same rounds traced, then a ddarith counting pass.
    Returns (phases, per-layer metrics)."""
    import spans
    import workloads

    base = run_phase(workload, sampler, seconds=seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        traced = run_phase(workload, sampler, rounds=base.rounds, tracer=tracer,
                           reference=base.outputs)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    phases = [base, traced]
    counter = spans.DDCounter()
    if tracer.count("tripleprod.split_parts_dd"):
        counter.install()
        try:
            phases.append(run_phase(workload, sampler, rounds=1, reference=base.outputs))
        finally:
            counter.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload.name}.npz")
    claim_ids = workloads.VERIFY_CLAIMS
    metrics = spans.layer_metrics(tracer, traced.rounds, claim_ids, counter.calls, counter.splits)
    normalise(base, sampler)
    normalise(traced, sampler)
    overhead = traced.normalised_ns.sum() / base.normalised_ns.sum() - 1.0
    metrics["bench.trace_overhead_pct"] = (100.0 * overhead, "%")
    return phases, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ptheta" / "__init__.py").is_file():
        print(f"ptheta sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import clock
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)

    sampler = clock.SpeedSampler()
    sampler.start()
    try:
        if args.trace:
            phases, metrics = traced_run(workload, args.seconds, sampler)
        else:
            starts, durations = measure_setup(sampler)
            print(f"{workload.name}: raw setup_s {np.median(durations) / 1e9:.6g}")
            setup_s = float(np.median(sampler.normalise(starts, durations))) / 1e9
            phases = [run_phase(workload, sampler, seconds=args.seconds)]
            normalise(phases[0], sampler)
            metrics = end_to_end(phases[0], setup_s, workload.repeats_inputs)
    finally:
        sampler.stop()

    first = phases[0]
    problems = workload.check(list(first.outputs.values()))
    for phase in phases:
        problems += phase.mismatches
    for line in workload.breakdown(per_round(first)):
        print(f"{workload.name}: {line}")
    raw_s = sum(t[4] for t in first.timed) / 1e9
    print(f"{workload.name}: {first.rounds} rounds, {len(first.timed)} timed operations, "
          f"{raw_s:.3f} s measured, {first.normalised_ns.sum() / 1e9:.3f} s at reference speed, "
          f"raw ops_per_s {len(first.timed) / raw_s:.6g}")
    for kind, failure in sorted({k: v for p in phases for k, v in p.failures.items()}.items()):
        print(f"{workload.name}: failed {kind}: {failure}")
    for problem in problems[:20]:
        print(f"{workload.name}: INCORRECT {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name}: {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
