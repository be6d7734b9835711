"""Interior-point iterations of Lovasz theta over sets of graphs: the table
the step rule of numerics.sdp_path is chosen on.

Usage: python tools/theta_iterations.py

For each set and each tolerance (1e-7, the CLI default, and 1e-10, the
tightest the CLI accepts) it prints the number of graphs, the total
iterations of theta.lovasz_theta over the set (a graph that raises
ConvergenceError adds the iterations of its best result), how many graphs
ended by each stop reason of numerics.certified_solve (closed, stalled,
cap, failed step) and every graph that raises, with its best certified gap,
its stop reason and the iterations it ran after its best gap was reached
(found by rerunning it with theta.MAX_ITERATIONS lowered), then how many
graphs of the set needed the independence number and how many PSD shifts
of an iterate were computed over the set (theta computes each only when it
can decide a stop test or the returned certificate), counted by wrapping
theta.independence_number and theta._psd_shift, how many certificates,
returned or carried by a ConvergenceError, fail theta.replay at that
tolerance, and how many of those results state a value other than the
lower bound theta.replay recomputes or a gap other than max(upper - value,
0) for the upper bound it recomputes.

Sets:
  fixed     odd cycles C7..C31 and five circulants with their complements,
            the fixed family of the theta-graphs benchmark workload
  random84  G(n, 1/2) for n = 12, 16, 20, 24 at seeds 1, 501-510 and
            601-610, drawn as the benchmark workload draws its random graphs
  held-out  20 circulants outside the fixed family with their complements,
            and G(n, p) for p = 0.3, 0.5, 0.7 at seeds 701-715, each at
            one order in 10..19 and one in 20..30

Uses the standard library and numpy; pentabell is imported from the
repository's src directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pentabell import graphs, theta  # noqa: E402
from pentabell.errors import ConvergenceError  # noqa: E402

FIXED_CIRCULANTS = ((13, (1, 5)), (17, (1, 2, 4, 8)), (21, (1, 3, 8)), (29, (1, 12)), (31, (1, 5, 11)))
RANDOM_SEEDS = (1, *range(501, 511), *range(601, 611))
RANDOM_ORDERS = (12, 16, 20, 24)
HELD_OUT_SEEDS = range(701, 716)
HELD_OUT_DENSITIES = (0.3, 0.5, 0.7)


def random_graph(rng, n: int, p: float = 0.5):
    """G(n, p) drawn as the theta-graphs benchmark workload draws G(n, 1/2):
    one uniform number per vertex pair, in row-major upper-triangle order."""
    rows, cols = np.triu_indices(n, 1)
    keep = rng.random(rows.size) < p
    return graphs.graph(n, zip(rows[keep].tolist(), cols[keep].tolist()))


def fixed_family():
    family = [(f"C{n}", graphs.cycle(n)) for n in range(7, 32, 2)]
    for n, offsets in FIXED_CIRCULANTS:
        g = graphs.circulant(n, offsets)
        label = f"C{n}({','.join(map(str, offsets))})"
        family += [(label, g), ("co-" + label, graphs.complement(g))]
    return family


def random84():
    out = []
    for seed in RANDOM_SEEDS:
        rng = np.random.default_rng(seed)
        out += [(f"{seed} G({n})", random_graph(rng, n)) for n in RANDOM_ORDERS]
    return out


def held_out_circulants():
    """Twenty (n, offsets) with n in 9..30 and two or three offsets in
    1..n/2, none in the fixed family, drawn from one seeded generator."""
    rng = np.random.default_rng(700)
    chosen = []
    while len(chosen) < 20:
        n = int(rng.integers(9, 31))
        size = int(rng.integers(2, 4))
        offsets = tuple(sorted(int(k) for k in rng.choice(np.arange(1, n // 2 + 1), size, replace=False)))
        if (n, offsets) not in FIXED_CIRCULANTS and (n, offsets) not in chosen:
            chosen.append((n, offsets))
    return chosen


def held_out():
    out = []
    for n, offsets in held_out_circulants():
        g = graphs.circulant(n, offsets)
        label = f"C{n}({','.join(map(str, offsets))})"
        out += [(label, g), ("co-" + label, graphs.complement(g))]
    for seed in HELD_OUT_SEEDS:
        rng = np.random.default_rng(seed)
        for p in HELD_OUT_DENSITIES:
            for lo, hi in ((10, 20), (20, 31)):
                n = int(rng.integers(lo, hi))
                out.append((f"{seed} G({n},{p})", random_graph(rng, n, p)))
    return out


def best_gap_reached(g, tol: float, best) -> int:
    """The first iteration after which the best certified gap is best.gap:
    a run capped at k iterations ends with the best gap of its first k,
    which only shrinks with k."""
    cap = theta.MAX_ITERATIONS
    lo, hi = 0, best.iterations
    try:
        while hi - lo > 1:
            theta.MAX_ITERATIONS = (lo + hi) // 2
            try:
                gap = theta.lovasz_theta(g, tol=tol).gap
            except ConvergenceError as exc:
                gap = exc.result.gap
            lo, hi = (lo, theta.MAX_ITERATIONS) if gap == best.gap else (theta.MAX_ITERATIONS, hi)
    finally:
        theta.MAX_ITERATIONS = cap
    return hi


def table(name: str, family, tol: float) -> None:
    """Print one row of the table."""
    total, raised, unreplayed, misstated = 0, [], 0, 0
    stops = dict.fromkeys(("closed", "stalled", "cap", "failed step"), 0)
    calls = {"independence_number": 0, "_psd_shift": 0}
    wrapped = {attr: getattr(theta, attr) for attr in calls}

    def counted(attr):
        def call(arg):
            calls[attr] += 1
            return wrapped[attr](arg)

        return call

    for attr in calls:
        setattr(theta, attr, counted(attr))
    for label, g in family:
        try:
            res, stop = theta.lovasz_theta(g, tol=tol), "closed"
        except ConvergenceError as exc:
            res, stop = exc.result, exc.reason
            raised.append((label, g, res, stop))
        stops[stop] += 1
        total += res.iterations
        lower, upper, ok = theta.replay(g, res, tol)
        unreplayed += not ok
        misstated += lower != res.value or res.gap != max(upper - res.value, 0.0)
    for attr, function in wrapped.items():
        setattr(theta, attr, function)
    print(f"{name:9s} tol {tol:.0e}: {len(family)} graphs, {total} iterations, {len(raised)} raise")
    print("    stops: " + ", ".join(f"{count} {stop}" for stop, count in stops.items()))
    for label, g, res, stop in raised:
        after = res.iterations - best_gap_reached(g, tol, res)
        print(f"    {label}: best gap {res.gap:.2e} after {res.iterations} iterations ({stop}),", end=" ")
        print(f"{after} after the best gap")
    print(f"    alpha needed on {calls['independence_number']}/{len(family)} graphs")
    print(f"    PSD shifts computed: {calls['_psd_shift']}")
    print(f"    replay fails on {unreplayed}/{len(family)} certificates")
    print(f"    value or gap differs from replay on {misstated}/{len(family)} results")


def main() -> None:
    sets = {"fixed": fixed_family(), "random84": random84(), "held-out": held_out()}
    for tol in (1e-7, 1e-10):
        for name, family in sets.items():
            table(name, family, tol)


if __name__ == "__main__":
    main()
