"""pentabell benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload report --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): `report`, `theta-graphs`, `qmax-simulate`.
Each runs passes of its work in a closed loop with one client until about
`--seconds` have been spent (and at least three passes), checks every output
outside the timed region, and prints as its last stdout line one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts the run's distinct operations (report items, graphs,
see-saw calls, simulations), not their repetitions, so it and `failed` do
not depend on the machine's speed.  With `--trace 0` the metrics are the
end-to-end ones (`setup_s`, `pass_ref`, `peak_rss_mb`); the line before it
holds the workload's named metrics (medians, in seconds) with units and
sample counts, the machine details and any failure notes.

`pass_ref` is the median over passes of a pass's wall time divided by the
median time of a small fixed reference kernel that an interval timer runs
every REF_INTERVAL_S seconds during that pass.  On a shared host the speed
of this process drifts by a third or more within minutes, and the drift
slows the program and the reference alike, so the ratio is far steadier
than the pass time itself; a change to the program moves the ratio as it
moves the pass time.  The sampler's share of a pass, about 1% of its time,
is included in every pass time.

With `--trace 1` the run first repeats untraced passes for half the time, then
does one pass (plus, for theta-graphs, the random graphs) with every public
pentabell function wrapped, and reports per-layer metrics; the spans are
written to perfbench/out/spans-<workload>.npz.

BLAS runs on one pinned thread.  The program is imported from `src/` next
to this directory; without it the benchmark exits with code 2 and prints
no result.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere in this process or its children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
MIN_PASSES = 3
REF_INTERVAL_S = 0.1
PROBE_TIMEOUT_S = 60


class SetupError(RuntimeError):
    """The program under test cannot be imported from this checkout."""


def import_workloads():
    """Import the workloads (and so numpy and pentabell) from ./src only."""
    sys.path.insert(0, str(SRC))
    try:
        import workloads
        import pentabell
    except ImportError as exc:
        raise SetupError(f"cannot import pentabell from {SRC}: {exc}") from None
    if SRC not in Path(pentabell.__file__).resolve().parents:
        raise SetupError(f"pentabell was imported from {pentabell.__file__}, not from {SRC}")
    return workloads


def setup_probe(workload: str, seed: int, tiny: bool) -> float:
    """Seconds to import pentabell and build the workload's inputs, in a
    fresh interpreter (this function runs in the child)."""
    t0 = time.perf_counter()
    wl = import_workloads()
    wl.WORKLOADS[workload](seed, tiny)
    return time.perf_counter() - t0


class SetupProbes:
    """Set-up time measured in fresh interpreters.  The probes are spread
    over the run, between passes, so that slow drifts in the machine's speed
    average out in their median as they do in the passes' median."""

    def __init__(self, workload: str, seed: int, tiny: bool, count: int):
        self.count = count
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
        if tiny:
            self.cmd.append("--tiny")
        self.times = []

    def catch_up(self, fraction: float) -> None:
        """Run probes until `fraction` of the planned count is done."""
        while len(self.times) < min(self.count, math.ceil(self.count * fraction)):
            done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
            if done.returncode != 0:
                raise SetupError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
            self.times.append(float(done.stdout.strip().splitlines()[-1]))


def machine_details() -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Reference:
    """A fixed kernel with the program's character and none of its code:
    LAPACK eigensolves of a 24 x 24 symmetric matrix (as in theta), numpy
    calls on 2 x 2 and 4 x 4 arrays (as in the see-saw and the two-angle
    scan), and interpreted integer arithmetic.  Within `sampling()` an
    interval timer runs it once at the start and then every REF_INTERVAL_S
    seconds, between the program's own bytecodes, so its call times sample
    the machine's speed at the same moments as the program runs."""

    def __init__(self):
        import numpy as np

        self.np = np
        a = np.random.default_rng(0).standard_normal((24, 24))
        self.matrix = a + a.T
        self.small = np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.5, 0.5], [0.5, 0.5]])
        self.samples = []

    def call(self) -> float:
        np = self.np
        p, q = self.small
        t0 = time.perf_counter()
        for _ in range(2):
            np.linalg.eigh(self.matrix)
        for k in range(20):
            np.linalg.eigvalsh(np.kron(p, q) + k * np.kron(q, p))
        acc = 0
        for i in range(400):
            acc += i * i % 7
        return time.perf_counter() - t0

    def _tick(self, signum=None, frame=None) -> None:
        self.samples.append(self.call())

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def run_passes(work, tally, budget: float, min_passes: int, after_pass=None, reference=None):
    """Closed loop: start another pass while fewer than `min_passes` are done
    or it is expected to end by about `budget` seconds (half a pass of
    slack).  `after_pass` gets the share of the run done so far, 1.0 after
    the last pass.  Returns the pass times and, with a `reference` sampled
    during each pass, each pass's time over the median reference call."""
    times, ratios = [], []
    t0 = time.perf_counter()
    while True:
        if reference is None:
            times.append(work.run_pass(tally))
        else:
            first = len(reference.samples)
            with reference.sampling():
                times.append(work.run_pass(tally))
            ratios.append(times[-1] / statistics.median(reference.samples[first:]))
        elapsed = time.perf_counter() - t0
        last = len(times) >= min_passes and elapsed >= budget - 0.5 * times[-1]
        if after_pass is not None:
            after_pass(1.0 if last else min(elapsed / budget, len(times) / min_passes))
        if last:
            return times, ratios


def layer_metrics(summary: dict, counts: dict, overhead: float, layers) -> dict:
    def get(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per_call(name, scale):
        s = get(name)
        return s["total_s"] / s["calls"] * scale if s["calls"] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    iterations = counts.get("theta.iterations", 0)
    restarts = counts.get("quantum.qmax_seesaw.restarts", 0)
    shots = counts.get("simkit.sample_counts.shots", 0)
    cli_self = sum(s["self_s"] for name, s in summary.items() if name.startswith("cli."))
    values = {
        "numerics.project_psd.calls": (get("numerics.project_psd")["calls"], "count"),
        "numerics.project_psd.us_per_call": (per_call("numerics.project_psd", 1e6), "us"),
        "theta.lovasz_theta.calls": (get("theta.lovasz_theta")["calls"], "count"),
        "theta.iterations": (iterations, "count"),
        "theta.convergence_errors": (counts.get("theta.convergence_errors", 0), "count"),
        "theta.us_per_iteration": (ratio(get("theta.lovasz_theta")["self_s"] * 1e6, iterations), "us"),
        "graphs.independence_number.calls": (get("graphs.independence_number")["calls"], "count"),
        "graphs.independence_number.us_per_call": (per_call("graphs.independence_number", 1e6), "us"),
        "scenarios.random_ns_behavior.us_per_call": (per_call("scenarios.random_ns_behavior", 1e6), "us"),
        "scenarios.enumerate_pentagonal.ms": (per_call("scenarios.enumerate_pentagonal", 1e3), "ms"),
        "scenarios.lhv_bound.us_per_call": (per_call("scenarios.lhv_bound", 1e6), "us"),
        "quantum.qmax_scan_ineq2.s": (per_call("quantum.qmax_scan_ineq2", 1.0), "s"),
        "quantum.qmax_seesaw.ms_per_restart": (ratio(get("quantum.qmax_seesaw")["total_s"] * 1e3, restarts), "ms"),
        "quantum.block_reduce.us_per_call": (per_call("quantum.block_reduce", 1e6), "us"),
        "quantum.behavior_of.calls": (get("quantum.behavior_of")["calls"], "count"),
        "simkit.sample_counts.shots_per_s": (ratio(shots, get("simkit.sample_counts")["total_s"]), "1/s"),
        "simkit.run_experiment.calls": (get("simkit.run_experiment")["calls"], "count"),
        "simkit.run_experiment.ms_per_call": (per_call("simkit.run_experiment", 1e3), "ms"),
        "simkit.estimate.us_per_call": (per_call("simkit.estimate", 1e6), "us"),
        "cli.main.self_ms": (ratio(cli_self * 1e3, get("cli.main")["calls"]), "ms"),
        "trace_overhead_frac": (overhead, "frac"),
    }
    for layer in layers:
        spans = [s for name, s in summary.items() if name.startswith(layer + ".")]
        values[f"{layer}.calls"] = (sum(s["calls"] for s in spans), "count")
        values[f"{layer}.self_s"] = (sum(s["self_s"] for s in spans), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run(args) -> dict:
    wl = import_workloads()
    import spans

    work = wl.WORKLOADS[args.workload](args.seed, args.tiny)
    tally = wl.Tally(corrupt=args.corrupt)
    seconds = float(args.seconds)
    min_passes = 1 if args.tiny else MIN_PASSES
    once = getattr(work, "run_once", None)

    if not args.trace:
        probes = SetupProbes(args.workload, args.seed, args.tiny, 1 if args.tiny else SETUP_PROBES)
        reference = Reference()
        passes, ratios = run_passes(work, tally, seconds, min_passes, probes.catch_up, reference)
        setup = probes.times
        # after the passes, so its seed-dependent length cannot shift them
        if once:
            once(tally)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_ref": {"value": statistics.median(ratios), "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        details = {
            "setup_s": {"value": statistics.median(setup), "unit": "s", "samples": len(setup)},
            "pass_ref": {"value": statistics.median(ratios), "unit": "ref", "samples": len(ratios)},
            "pass_s": {"value": statistics.median(passes), "unit": "s", "samples": len(passes)},
            "reference_ms": {"value": statistics.median(reference.samples) * 1e3, "unit": "ms", "samples": len(reference.samples)},
            "peak_rss_mb": metrics["peak_rss_mb"],
            **work.details(),
        }
    else:
        untraced, _ = run_passes(work, tally, seconds / 2.0, min_passes)
        tracer = spans.Tracer(wl.TRACE_COUNTERS)
        with tracer.installed():
            tracer.current_op = 0
            with tracer.span("bench.pass"):
                traced = work.run_pass(tally)
            if once:
                tracer.current_op = 1
                with tracer.span("bench.once"):
                    once(tally)
        tracer.write(OUT / f"spans-{args.workload}.npz")
        overhead = (traced - statistics.median(untraced)) / statistics.median(untraced)
        metrics = layer_metrics(tracer.summary(), tracer.counts, overhead, spans.LAYERS)
        details = {"untraced_passes": len(untraced), "spans": len(tracer.start), **work.details()}

    details["machine"] = machine_details()
    details["notes"] = tally.notes
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, "details": details}))
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("report", "theta-graphs", "qmax-simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs (smoke test)")
    parser.add_argument("--corrupt", action="store_true", help="perturb the first output (smoke test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed, args.tiny))
            return 0
        result = run(args)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
