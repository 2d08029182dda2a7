"""Benchmark for lcsg: one workload per run, in one process and one thread.

    python3 bench/run.py --workload membership --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
is a digest of every checked output.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("membership", "weighted", "generation", "induction")
SETUP_SAMPLES = 9
# Set-up times are scaled to a host on which a bare interpreter that
# imports numpy is ready this long after it starts.
BARE_START_S = 0.18
MIN_ROUNDS = 3  # repeats behind each operation's latency; peak RSS is read after them
# Times are scaled to a host on which the two halves of the reference task
# take this long.
REFERENCE_PYTHON_S = 0.0015
REFERENCE_NUMPY_S = 0.0015
CALIBRATE_EVERY_S = 0.2


def _arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


def _import_lcsg() -> float:
    """Import lcsg from this checkout's ``src/``; return the seconds taken."""
    sys.path[:0] = [str(SRC), str(HERE)]
    start = time.perf_counter()
    import lcsg  # noqa: F401

    return time.perf_counter() - start


def _reference_python() -> int:
    """Fixed pure-Python work shaped like a rewriting search: slice and
    splice tuples, probe a dict, keep small objects."""
    seen: dict = {}
    forms = [tuple(range(i % 7, i % 7 + 6)) for i in range(40)]
    for rep in range(12):
        for form in forms:
            for j in range(len(form)):
                grown = form[:j] + (rep,) + form[j + 1:]
                if grown not in seen:
                    seen[grown] = (form, j)
    return len(seen)


@functools.cache
def _reference_arrays():
    import numpy as np  # imported here, so that it counts in the import of lcsg

    return np, np.random.default_rng(0).standard_normal((64, 8)), np.random.default_rng(1).standard_normal((8, 8))


def _reference_numpy() -> float:
    """Fixed small-array numpy work shaped like causal attention over a
    growing context."""
    np, x, w = _reference_arrays()
    total = 0.0
    for n in range(1, 64):
        q = x[:n] @ w
        scores = q @ q.T / 3.0
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        total += float((weights / weights.sum(axis=1, keepdims=True))[-1, 0])
    return total


def _median_time(task) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _host_scale() -> float:
    """How fast the host runs now against the reference times: the geometric
    mean of the two halves' reference time over their median of three
    timings.  The garbage collector is off meanwhile, so that the timings
    do not depend on the heap the workload has built."""
    gc.disable()
    try:
        python = REFERENCE_PYTHON_S / _median_time(_reference_python)
        numpy = REFERENCE_NUMPY_S / _median_time(_reference_numpy)
    finally:
        gc.enable()
    return math.sqrt(python * numpy)


def _ready_after(command: list[str]) -> float:
    """Seconds from starting a child process until it prints the wall clock;
    the parent waits for the child to exit."""
    start = time.time()
    child = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return float(child.stdout.split()[-1]) - start


def _setup_seconds(args: argparse.Namespace) -> float:
    """Median time from starting a fresh interpreter to the first timed call,
    scaled to a fixed speed of starting processes.

    Each sample is a child process that imports lcsg and builds the
    workload's first round (parsing grammars, training predictors), timed
    against a bare interpreter that imports numpy, started just before it.
    """
    bare = [sys.executable, "-c", "import time, numpy; print(repr(time.time()))"]
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    ratios = []
    for _ in range(SETUP_SAMPLES):
        baseline = _ready_after(bare)
        ratios.append(_ready_after(probe) / baseline)
    return statistics.median(ratios) * BARE_START_S


def _tail(latencies: list[float]) -> float:
    """The highest-percentile latency that still has ten samples beyond it."""
    ordered = sorted(latencies)
    return ordered[len(ordered) - 11]


class _Runner:
    """Runs operations, times each call, checks each output untimed."""

    def __init__(self, tr, workloads_module):
        self.tr, self.workloads = tr, workloads_module
        self.attempted = self.failed = 0
        self.wrong: list[str] = []
        self.scale = _host_scale()
        self.scales = [self.scale]
        self.next_calibration = time.perf_counter() + CALIBRATE_EVERY_S

    def run(self, op_id: str, op) -> tuple[float, str]:
        """Scaled seconds inside lcsg, and the canonical text of the output."""
        self.tr.op = op_id
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as e:  # an operation that raises is failed, and the run goes on
            end = time.perf_counter()
            self.failed += 1
            print(f"bench: operation {op_id} raised {type(e).__name__}: {e}", file=sys.stderr)
            line = f"raised {type(e).__name__}"
        else:
            end = time.perf_counter()
            try:
                line = op.check(out)  # untimed
            except self.workloads.KnownFault as e:
                self.failed += 1
                line = f"known fault: {e}"
            except self.workloads.CheckFailed as e:
                self.wrong.append(f"operation {op_id}: {e}")
                line = f"wrong: {e}"
        scaled = (end - start) * self.scale
        if time.perf_counter() >= self.next_calibration:
            self.scale = _host_scale()
            self.scales.append(self.scale)
            self.next_calibration = time.perf_counter() + CALIBRATE_EVERY_S
        return scaled, line


def main() -> int:
    args = _arguments()
    if not (SRC / "lcsg" / "__init__.py").is_file():
        sys.exit(f"bench: no lcsg package under {SRC}; run from a checkout of the repository")
    if args.setup_probe:
        _import_lcsg()
        import workloads
        from tracing import Tracer

        workloads.build(args.workload, args.seed, Tracer(False)).make_round(0)
        print(repr(time.time()))
        return 0

    setup_s = None if args.trace else _setup_seconds(args)
    import_s = _import_lcsg()
    import workloads
    from tracing import Tracer, layer_metrics, unreached

    name = args.workload
    tr = Tracer(bool(args.trace))
    tr.op = f"{name}/setup"
    if tr.enabled:
        tr.spans.append((-1, "setup.import", 0, int(import_s * 1e9), None, tr.op, 0))
    wl = workloads.build(name, args.seed, tr)
    tr.op = f"{name}/0.build"
    ops = wl.make_round(0)
    per_round = len(ops)
    if per_round < 40:
        sys.exit(f"bench: {per_round} operations per round is too few for a tail latency")
    if tr.enabled:
        for g in wl.grammars:
            for _ in range(5):
                with tr.span("grammar.hash"):
                    hash(g)

    runner = _Runner(tr, workloads)
    latencies: list[list[float]] = [[] for _ in range(per_round)]  # per operation, one per round
    digest = hashlib.sha256()  # round 0, whose inputs every round repeats
    began = time.perf_counter()
    rounds = 0
    while True:
        for i, op in enumerate(ops):
            seconds, line = runner.run(f"{name}/{rounds}.{i}", op)
            latencies[i].append(seconds)
            if rounds == 0:
                digest.update(f"{i} {line}\n".encode())
        rounds += 1
        if rounds == MIN_ROUNDS:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if rounds >= MIN_ROUNDS and time.perf_counter() - began >= args.seconds:
            break
        tr.op = f"{name}/{rounds}.build"
        ops = wl.make_round(rounds)
    tr.op = f"{name}/finish"
    try:
        for line in wl.finish():
            digest.update(f"{line}\n".encode())
    except workloads.CheckFailed as e:
        runner.wrong.append(f"whole run: {e}")
    attempted, failed = runner.attempted, runner.failed

    typical = [statistics.median(x) for x in latencies]  # each operation's median round
    e2e = {
        "ops_per_s": {"value": per_round / sum(typical), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(typical) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": _tail(typical) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
    }
    print(f"host scale: median {statistics.median(runner.scales):.4g} over {len(runner.scales)} calibrations")
    if tr.enabled:
        # Layers this workload does not reach are timed on one round of each
        # other workload in turn, with the same seed, until all are reached.
        order = [name] + [w for w in WORKLOADS if w != name]
        for other in order[1:]:
            if not unreached(tr.spans):
                break
            tr.op = f"{other}/0.build"
            for i, op in enumerate(workloads.build(other, args.seed, tr).make_round(0)):
                runner.run(f"{other}/0.{i}", op)
        metrics, source = layer_metrics(tr.spans, order)
        tr.write(HERE / "results" / f"spans-{name}-{args.seed}.jsonl")
        print("traced: " + " ".join(f"{k}={v['value']:.6g}" for k, v in e2e.items()))
        print("layers from: " + " ".join(f"{k}={v}" for k, v in source.items() if v != name))
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **e2e}
    for message in runner.wrong[:20]:
        print(f"bench: WRONG {message}", file=sys.stderr)
    print(f"digest {digest.hexdigest()} over {attempted} operations in {rounds} rounds")
    print(json.dumps({"correct": not runner.wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
