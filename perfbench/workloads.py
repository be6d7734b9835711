"""The three benchmark workloads, their inputs and their output checks.

Each workload is a closed loop with one client.  `run_pass()` does one pass
of the workload's work, times it, then checks every output outside the
timed region and records each operation in a `Tally`.  A failed check
counts as a failed operation; it does not stop the run.

Importing this module imports numpy and pentabell, so its import time is
part of the benchmark's set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from pentabell import cli, graphs, quantum, scenarios, simkit, theta
from pentabell.errors import ConvergenceError

MAX_NOTES = 20


@dataclass
class Tally:
    """Operations attempted and failed.  An operation is one distinct output
    of the run, named by a key: a report item, a graph, a see-saw call or a
    simulation.  Passes repeat the same operations on the same inputs for
    timing; each repetition is checked again, and an operation counts as
    failed if any of its checks failed.  So `attempted` and `failed` depend
    only on the inputs, not on how many passes fitted into the run.

    `wrong` counts the failed operations whose output is wrong (impossible,
    unreproducible or inconsistent), as opposed to operations that raised a
    documented error such as ConvergenceError or returned a valid bound short
    of the known optimum.

    With `corrupt` set, the first checked output is deliberately perturbed
    so a test can see that the checks catch it.
    """

    corrupt: bool = False
    ops: dict = field(default_factory=dict)  # key -> (ok, wrong)
    notes: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not ok for ok, _ in self.ops.values())

    @property
    def wrong(self) -> int:
        return sum(wrong for _, wrong in self.ops.values())

    def corrupt_next(self) -> bool:
        hit, self.corrupt = self.corrupt, False
        return hit

    def record(self, key: str, ok: bool, wrong: bool = False, note: str = "") -> None:
        was_ok, was_wrong = self.ops.get(key, (True, False))
        if note and was_ok and len(self.notes) < MAX_NOTES:
            self.notes.append(note)
        self.ops[key] = (was_ok and ok, was_wrong or wrong)


def _median(values):
    return float(np.median(values)) if values else 0.0


def tail_percentile(samples):
    """Highest percentile of the ladder with at least ten samples beyond it,
    as (percentile, value), or (None, None) with fewer than eleven samples."""
    arr = np.asarray(samples, dtype=float)
    best = (None, None)
    for p in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        if arr.size < 11:
            break
        value = float(np.percentile(arr, p))
        if int(np.sum(arr > value)) >= 10:
            best = (p, value)
    return best


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


class Report:
    """`pentabell report --json`, one battery per pass.  The operations are
    the battery's items, each failing if its item says FAIL, and the battery
    as a whole, failing unless it exits 0 with `all_pass` true."""

    name = "report"

    def __init__(self, seed: int, tiny: bool = False):
        # the battery fixes its own seeds; the workload seed does not apply
        self.times = []

    def run_pass(self, tally: Tally) -> float:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(["report", "--json"])
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)

        try:
            doc = json.loads(out.getvalue())
        except json.JSONDecodeError:
            tally.record("battery", False, wrong=True, note=f"report printed no JSON (exit {code})")
            return elapsed
        if tally.corrupt_next():
            doc["all_pass"] = False
        items = doc.get("items") or []
        for item in items:
            ok = item.get("ok") is True
            tally.record(f"item {item.get('name')}", ok, wrong=not ok, note="" if ok else f"FAIL item {item.get('name')}")
        ok = code == 0 and doc.get("all_pass") is True and bool(items)
        tally.record("battery", ok, wrong=not ok, note="" if ok else f"report exit {code}, all_pass {doc.get('all_pass')}")
        return elapsed

    def details(self):
        return {"report_s": _stat(_median(self.times), "s", len(self.times))}


# ---------------------------------------------------------------------------
# theta-graphs
# ---------------------------------------------------------------------------

THETA_TOL = 1e-7
CIRCULANTS = ((13, (1, 5)), (17, (1, 2, 4, 8)), (21, (1, 3, 8)), (29, (1, 12)), (31, (1, 5, 11)))
RANDOM_ORDERS = (12, 16, 20, 24)


@dataclass(frozen=True)
class Instance:
    label: str
    graph: object
    kind: str  # "cycle", "circulant" or "random"
    partner: str = ""  # label of the circulant this graph complements


def random_graph(rng, n: int):
    """G(n, 1/2): each vertex pair is an edge with probability one half."""
    rows, cols = np.triu_indices(n, 1)
    keep = rng.random(rows.size) < 0.5
    return graphs.graph(n, zip(rows[keep].tolist(), cols[keep].tolist()))


def independence_number(g) -> int:
    """Maximum independent set size by plain branch and bound, written here
    so the alpha <= theta check does not rely on pentabell's own solver."""
    adj = [0] * g.n
    for i, j in g.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    best = 0

    def grow(cand: int, size: int) -> None:
        nonlocal best
        if size + bin(cand).count("1") <= best:
            return
        if not cand:
            best = size
            return
        v = cand.bit_length() - 1
        grow(cand & ~adj[v] & ~(1 << v), size + 1)
        grow(cand & ~(1 << v), size)

    grow((1 << g.n) - 1, 0)
    return best


def odd_cycle_theta(n: int) -> float:
    c = math.cos(math.pi / n)
    return n * c / (1.0 + c)


def certificate_problems(g, x, value: float, gap: float):
    """Replay a primal certificate: trace 1, zero on edges, PSD, and an
    entry sum equal to the reported value within the reported gap."""
    x = np.asarray(x, dtype=float)
    problems = []
    if x.shape != (g.n, g.n) or not np.all(np.isfinite(x)):
        return ["certificate is not a finite n x n matrix"]
    if np.max(np.abs(x - x.T)) > 1e-10:
        problems.append("asymmetric")
    if abs(np.trace(x) - 1.0) > 1e-8:
        problems.append(f"trace {np.trace(x):.3e}")
    if g.edges:
        rows, cols = zip(*g.edges)
        worst = float(np.max(np.abs(x[list(rows), list(cols)])))
        if worst > 1e-7:
            problems.append(f"edge entry {worst:.2e}")
    lam = float(np.linalg.eigvalsh((x + x.T) / 2.0)[0])
    if lam < -1e-8:
        problems.append(f"lambda_min {lam:.2e}")
    if abs(float(x.sum()) - value) > max(gap, 1e-12):
        problems.append(f"sum {float(x.sum()):.10f} != value {value:.10f}")
    return problems


class ThetaGraphs:
    """Lovasz theta at the CLI default tolerance over a fixed family plus
    G(n, 1/2) graphs drawn from the workload seed.

    The fixed family (odd cycles, circulants and their complements) is one
    pass and is repeated; the random graphs are solved once per run, all of
    them, failures included.
    """

    name = "theta-graphs"

    def __init__(self, seed: int, tiny: bool = False):
        cycles = (7, 9) if tiny else range(7, 32, 2)
        circulants = CIRCULANTS[:1] if tiny else CIRCULANTS
        orders = RANDOM_ORDERS[:1] if tiny else RANDOM_ORDERS
        self.fixed = [Instance(f"C{n}", graphs.cycle(n), "cycle") for n in cycles]
        for n, offsets in circulants:
            g = graphs.circulant(n, offsets)
            label = f"C{n}({','.join(map(str, offsets))})"
            self.fixed.append(Instance(label, g, "circulant"))
            self.fixed.append(Instance("co-" + label, graphs.complement(g), "circulant", partner=label))
        rng = np.random.default_rng(seed % (1 << 64))
        self.random = [Instance(f"G({n},1/2)#{k}", random_graph(rng, n), "random") for k, n in enumerate(orders)]
        self.pass_times = []
        self.random_s = 0.0
        self.samples = []
        self.failed_labels = set()
        self.best_gaps = {}

    def _solve(self, inst: Instance, tally: Tally, partner_value=None):
        t0 = time.perf_counter()
        try:
            result, error = theta.lovasz_theta(inst.graph, tol=THETA_TOL), None
        except ConvergenceError as exc:
            result, error = None, exc
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)

        if error is not None:
            best = error.result
            self.failed_labels.add(inst.label)
            if best is None:
                tally.record(inst.label, False, note=f"{inst.label}: ConvergenceError without a best iterate")
                return None, elapsed
            self.best_gaps[inst.label] = best.gap
            problems = certificate_problems(inst.graph, best.primal, best.value, best.gap)
            tally.record(
                inst.label,
                False,
                wrong=bool(problems),
                note=f"{inst.label}: ConvergenceError after {elapsed:.1f} s, best gap {best.gap:.3e}"
                + (f", best certificate invalid: {problems}" if problems else ""),
            )
            return None, elapsed

        value = result.value + (1e-3 if tally.corrupt_next() else 0.0)
        problems = certificate_problems(inst.graph, result.primal, value, result.gap)
        if inst.kind == "cycle":
            ref = odd_cycle_theta(inst.graph.n)
            if abs(value - ref) > THETA_TOL:
                problems.append(f"theta {value:.10f} != closed form {ref:.10f}")
        elif inst.kind == "random":
            alpha = independence_number(inst.graph)
            if alpha > value + THETA_TOL:
                problems.append(f"alpha {alpha} > theta {value:.10f}")
        elif partner_value is not None:
            # theta(G) * theta(complement of G) = n for vertex-transitive G
            product = value * partner_value
            if abs(product - inst.graph.n) > 1e-5:
                problems.append(f"theta product with {inst.partner} is {product:.8f}")
        if problems:
            self.failed_labels.add(inst.label)
        tally.record(inst.label, not problems, wrong=bool(problems), note=f"{inst.label}: {problems}" if problems else "")
        return value, elapsed

    def run_pass(self, tally: Tally) -> float:
        values = {}
        total = 0.0
        for inst in self.fixed:
            values[inst.label], elapsed = self._solve(inst, tally, values.get(inst.partner))
            total += elapsed
        self.pass_times.append(total)
        return total

    def run_once(self, tally: Tally) -> float:
        t0 = time.perf_counter()
        for inst in self.random:
            self._solve(inst, tally)
        self.random_s = time.perf_counter() - t0
        return self.random_s

    def details(self):
        p, tail = tail_percentile(self.samples)
        distinct = len(self.fixed) + len(self.random)
        return {
            "theta_total_s": _stat(_median(self.pass_times), "s", len(self.pass_times), scope="fixed family"),
            "theta_random_s": _stat(self.random_s, "s", 1, scope=f"{len(self.random)} random graphs"),
            "theta_ms_p50": _stat(_median(self.samples) * 1e3, "ms", len(self.samples)),
            "theta_ms_tail": _stat(None if tail is None else tail * 1e3, "ms", len(self.samples), percentile=p),
            "theta_failed_frac": _stat(len(self.failed_labels) / distinct, "frac", distinct),
            "theta_failures": {label: self.best_gaps.get(label) for label in sorted(self.failed_labels)},
            "random_graphs": [{"label": i.label, "n": i.graph.n, "edges": len(i.graph.edges)} for i in self.random],
        }


# ---------------------------------------------------------------------------
# qmax-simulate
# ---------------------------------------------------------------------------

QMAX_NAMES = ("pentagon-1", "pentagon-2", "pentagon-3", "chsh-prob", "i3322")
PENTAGONS = QMAX_NAMES[:3]
QMAX_DIMS = ((2, 2), (3, 3), (4, 4))
VISIBILITY = 0.9
# see-saw optima, each within 1e-6; i3322 has only a floor
REFERENCES = {
    "pentagon-1": 2.1783945862,
    "pentagon-2": (3.0 + math.sqrt(2.0)) / 2.0,
    "pentagon-3": (3.0 + math.sqrt(2.0)) / 2.0,
    "chsh-prob": 2.0 + math.sqrt(2.0),
}
I3322_FLOOR = 4.25


def ideal_probability(model, term) -> float:
    """<psi| E (x) F |psi> for one event, with identity for a wildcard."""
    d_a, d_b = model.dims

    def effect(projs, part, dim):
        if part is None:
            return np.eye(dim)
        setting, outcome = part
        p = np.asarray(projs[setting], dtype=float)
        return p if outcome == 0 else np.eye(dim) - p

    op = np.kron(effect(model.alice, term.alice, d_a), effect(model.bob, term.bob, d_b))
    psi = np.asarray(model.state, dtype=float)
    return float(psi @ op @ psi)


class QmaxSimulate:
    """See-saw sweep over the named inequalities and dimensions, then the
    `qmax --model-out` -> `simulate --model` path for each pentagon's best
    model, simulated in bulk at visibility 0.9."""

    name = "qmax-simulate"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed % (1 << 32)
        self.restarts = 4 if tiny else 32
        self.dims = QMAX_DIMS[:1] if tiny else QMAX_DIMS
        self.shots = 10_000 if tiny else 1_000_000
        self.inequalities = {name: scenarios.named_inequality(name) for name in QMAX_NAMES}
        self._theta = None
        self.sweep_times = []
        self.sim_rates = []

    def _theta_bounds(self):
        if self._theta is None:
            self._theta = {
                name: theta.lovasz_theta(scenarios.exclusivity_graph(iq)[0]).value
                for name, iq in self.inequalities.items()
            }
        return self._theta

    def run_pass(self, tally: Tally) -> float:
        found = []
        t0 = time.perf_counter()
        for name, iq in self.inequalities.items():
            for dims in self.dims:
                value, model = quantum.qmax_seesaw(iq, dims=dims, restarts=self.restarts, seed=self.seed)
                found.append((name, dims, value, model))
        sweep = time.perf_counter() - t0

        best = {}
        bounds = self._theta_bounds()
        for name, dims, value, model in found:
            if tally.corrupt_next():
                value += 1e-3
            # An impossible or unreproducible value is a wrong output; a value
            # short of the known optimum is a valid lower bound from an
            # optimizer that missed the optimum, so only the operation fails.
            wrong = []
            achieved = sum(ideal_probability(model, t) for t in self.inequalities[name].terms)
            if abs(achieved - value) > 1e-6:
                wrong.append(f"model gives {achieved:.10f}, reported {value:.10f}")
            if value > bounds[name] + 1e-6:
                wrong.append(f"value {value:.10f} > theta {bounds[name]:.10f}")
            target = REFERENCES.get(name, I3322_FLOOR)
            if name in REFERENCES and value > target + 1e-6:
                wrong.append(f"value {value:.10f} > optimum {target:.10f}")
            short = value < target - 1e-6
            note = ""
            if wrong or short:
                note = f"{name} {dims}: " + ("; ".join(wrong) if wrong else f"value {value:.10f} short of {target:.10f}")
            tally.record(f"{name} {dims}", not (wrong or short), wrong=bool(wrong), note=note)
            if name in PENTAGONS and (name not in best or value > best[name][0] + 1e-9):
                best[name] = (value, model)

        shots = 0
        sim = 0.0
        for name in PENTAGONS:
            value, model = best[name]
            iq = self.inequalities[name]
            cfg = simkit.SimConfig(shots=self.shots, seed=self.seed, visibility=VISIBILITY)
            t1 = time.perf_counter()
            loaded = quantum.model_from_json(json.loads(json.dumps(quantum.model_to_json(model))))
            report = simkit.run_experiment(iq, loaded, cfg)
            sim += time.perf_counter() - t1
            shots += self.shots * len(loaded.alice) * len(loaded.bob)

            ideal = [ideal_probability(loaded, t) for t in iq.terms]
            noise = [0.25 if t.alice is not None and t.bob is not None else 0.5 for t in iq.terms]
            mixed = sum(VISIBILITY * p + (1.0 - VISIBILITY) * q for p, q in zip(ideal, noise))
            problems = []
            if abs(sum(ideal) - value) > 1e-6:
                problems.append(f"reloaded model gives {sum(ideal):.10f}, see-saw gave {value:.10f}")
            if abs(report.omega - mixed) > 5.0 * report.sigma:
                problems.append(f"omega {report.omega:.6f} not within 5 sigma ({report.sigma:.2e}) of {mixed:.6f}")
            tally.record(f"simulate {name}", not problems, wrong=bool(problems), note=f"simulate {name}: {problems}" if problems else "")

        self.sweep_times.append(sweep)
        self.sim_rates.append(shots / sim)
        return sweep + sim

    def details(self):
        return {
            "qmax_s": _stat(_median(self.sweep_times), "s", len(self.sweep_times)),
            "sim_shots_per_s": _stat(_median(self.sim_rates), "1/s", len(self.sim_rates)),
        }


def _stat(value, unit, samples, **extra):
    return {"value": value, "unit": unit, "samples": samples, **extra}


WORKLOADS = {w.name: w for w in (Report, ThetaGraphs, QmaxSimulate)}


# ---------------------------------------------------------------------------
# per-layer counters taken at the traced boundaries
# ---------------------------------------------------------------------------


def _theta_counter(args, result, error):
    if result is not None:
        return {"theta.iterations": result.iterations}
    if isinstance(error, ConvergenceError):
        return {"theta.iterations": getattr(theta, "MAX_ITERATIONS", 0), "theta.convergence_errors": 1}
    return {}


TRACE_COUNTERS = {
    "theta.lovasz_theta": _theta_counter,
    "quantum.qmax_seesaw": lambda args, result, error: {"quantum.qmax_seesaw.restarts": args.get("restarts", 0)},
    "simkit.sample_counts": lambda args, result, error: (
        {} if result is None else {"simkit.sample_counts.shots": result.shots * len(result.counts)}
    ),
}
