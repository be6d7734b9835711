"""Digests of the see-saw's, the scan's, the simulator's, the block
reduction's, the scenario layer's, the exclusivity-principle check's and
the graph layer's outputs, to show that a change to any of them leaves
every output bit-identical.

Usage: python tools/output_digest.py

Prints a sha256 of each output's bytes, per case (the model files line
prints counts):
  seesaw    quantum.qmax_seesaw at 32 restarts for the five named
            inequalities at dims (2,2), (3,3) and (4,4), seeds 0, 1 and 7:
            the value, the state and the projector set (Alice's, then Bob's)
  model files  each see-saw model above saved and reloaded through
            quantum.model_to_json, JSON text and quantum.model_from_json:
            how many replay (scenarios.evaluate of quantum.behavior_of) to
            a value other than the model's own, and how many reload with
            the model's state and projector bytes
  scan      quantum.qmax_scan_ineq2, pentagon-1's reference optimum: the
            repr of its value and angles, and the model's state and
            projector set as above
  simulate  simkit.run_experiment on known_optimal_model for pentagon-1,
            pentagon-2 and pentagon-3 at 10^6 shots, visibility 0.9, seeds
            1 and 7, and on each chsh-prob and i3322 see-saw model above at
            10^5 shots, visibility 0.9, the see-saw's seed: the report's
            repr, which holds every float exactly
  report    simkit.run_experiments as `pentabell report` calls it:
            pentagon-2's known_optimal_model, 5000 shots, seeds 0-199; the
            reprs of all 200 reports
  blocks    quantum.block_reduce on each of 100 instances drawn one at a
            time from default_rng(2024), as the Tier-1 spectral test draws
            them (Alice dimension 2-6, random ranks, random symmetric 2x2
            Q's): every block, residual spectrum and singular value
  scenarios scenarios.random_ns_tables: the 1000 boxes at default_rng(99),
            with evaluate_tables and chsh_decomposition's predict_tables
            on them for every named inequality that decomposes;
            chsh_decomposition of the five named inequalities (its repr,
            or the exception class); the terms and names of
            enumerate_pentagonal at (2, 2), (3, 2), (2, 3), (3, 3) and
            (4, 4); and the five named exclusivity graphs with their typed
            edges
  eprinciple scenarios.eprinciple_check of each named inequality on its
            model (known_optimal_model for the pentagons, the (2,2) seed-0
            see-saw model above for chsh-prob and i3322), on the PR box
            and on 50 boxes of random_ns_tables at default_rng(26): the
            reports' reprs, or the exception class where the 2x2 boxes do
            not cover the terms
  graphs    for each graph of the fixed, random84 and held-out sets of
            tools/theta_iterations.py (23, 84 and 130 graphs) and of the six
            scenarios.named_graph graphs: graphs.independence_number (alpha
            and witness), the complement's sorted edges, and
            theta.lovasz_theta at tol 1e-7 (value, primal and dual bytes,
            iterations, gap) with theta.replay's tuple; one line per set

Together the simulations read the cells of all five named inequalities.

Run it on two checkouts and compare the outputs with diff.  Uses the
standard library and numpy; pentabell is imported from the repository's
src directory.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import theta_iterations  # noqa: E402  (tools/, this script's directory)
from pentabell import graphs, quantum, scenarios, simkit, theta  # noqa: E402
from pentabell.errors import PentabellError  # noqa: E402
from pentabell.scenarios import named_inequality  # noqa: E402

INEQUALITIES = ("pentagon-1", "pentagon-2", "pentagon-3", "chsh-prob", "i3322")
DIMS = ((2, 2), (3, 3), (4, 4))
SEEDS = (0, 1, 7)
PENTAGONS = ("pentagon-1", "pentagon-2", "pentagon-3")
SIM_SEEDS = (1, 7)
SEESAW_SIMULATED = ("chsh-prob", "i3322")
ENUMERATION_RANGES = ((2, 2), (3, 2), (2, 3), (3, 3), (4, 4))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def graph_digest(family) -> str:
    """One sha256 over every output of the graph layer on (label, graph)
    pairs, in order."""
    h = hashlib.sha256()
    for _, g in family:
        result = theta.lovasz_theta(g)
        parts = (
            graphs.independence_number(g),
            sorted(graphs.complement(g).edges),
            result.value,
            result.iterations,
            result.gap,
            theta.replay(g, result, 1e-7),
        )
        h.update(repr(parts).encode() + result.primal.tobytes() + result.dual.tobytes())
    return h.hexdigest()


def seed_2024_instances():
    """The 100 instances P1, P2, Q0, Q1, Q2 of
    tests/test_quantum.py::seed_2024_instances, drawn the same way."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
        d_a = int(rng.integers(2, 7))
        ranks = rng.integers(1, d_a + 1, size=2)
        bases = np.linalg.qr(rng.standard_normal((2, d_a, d_a)))[0]
        qs = rng.standard_normal((3, 2, 2))
        yield (*(b[:, :r] @ b[:, :r].T for b, r in zip(bases, ranks)), *((qs + qs.mT) / 2))


def model_bytes(model: quantum.QuantumModel) -> bytes:
    return model.state.tobytes() + b"".join(p.tobytes() for p in model.alice + model.bob)


def main() -> None:
    seesaw_models = []
    replayed_differently = reloaded_equal = 0
    for name in INEQUALITIES:
        iq = named_inequality(name)
        for dims in DIMS:
            for seed in SEEDS:
                value, model = quantum.qmax_seesaw(iq, dims=dims, restarts=32, seed=seed)
                projectors = b"".join(p.tobytes() for p in model.alice + model.bob)
                digests = (sha(np.float64(value).tobytes()), sha(model.state.tobytes()), sha(projectors))
                print(f"seesaw {name} {dims[0]}x{dims[1]} seed {seed}: value {digests[0]}")
                print(f"    state {digests[1]}")
                print(f"    projectors {digests[2]}")
                if name in SEESAW_SIMULATED:
                    seesaw_models.append((name, dims, seed, model))
                loaded = quantum.model_from_json(json.loads(json.dumps(quantum.model_to_json(model))))
                replay = scenarios.evaluate(iq, quantum.behavior_of(model))
                replayed_differently += scenarios.evaluate(iq, quantum.behavior_of(loaded)) != replay
                reloaded_equal += model_bytes(loaded) == model_bytes(model)
    count = len(INEQUALITIES) * len(DIMS) * len(SEEDS)
    print(f"model files ({count}): {replayed_differently} replay differently, {reloaded_equal} reload with equal bytes")
    scan = quantum.qmax_scan_ineq2()
    projectors = b"".join(p.tobytes() for p in scan.model.alice + scan.model.bob)
    print(
        f"scan pentagon-1: value {scan.value!r} angles {scan.angles!r} "
        f"state {sha(scan.model.state.tobytes())} projectors {sha(projectors)}"
    )
    for name in PENTAGONS:
        iq, model = named_inequality(name), quantum.known_optimal_model(name)
        for seed in SIM_SEEDS:
            report = simkit.run_experiment(iq, model, simkit.SimConfig(10**6, seed, 0.9))
            print(f"simulate {name} seed {seed}: {sha(repr(report).encode())}")
    for name, dims, seed, model in seesaw_models:
        report = simkit.run_experiment(named_inequality(name), model, simkit.SimConfig(10**5, seed, 0.9))
        print(f"simulate {name} see-saw {dims[0]}x{dims[1]} seed {seed}: {sha(repr(report).encode())}")
    iq, model = named_inequality("pentagon-2"), quantum.known_optimal_model("pentagon-2")
    reports = simkit.run_experiments(iq, model, simkit.SimConfig(5000), range(200))
    print(f"report pentagon-2 seeds 0-199: {sha(repr(reports).encode())}")
    reductions = [quantum.block_reduce(*args) for args in seed_2024_instances()]
    arrays = [a for r in reductions for a in (*r.blocks, r.residual_spectrum, r.gram_singular_values)]
    data = b"".join(repr(a.shape).encode() + a.tobytes() for a in arrays)
    print(f"blocks seed-2024 instances ({len(reductions)}): {sha(data)}")
    boxes = scenarios.random_ns_tables(np.random.default_rng(99), 1000)
    print(f"scenarios random_ns_tables rng 99: {sha(boxes.tobytes())}")
    for name in INEQUALITIES:
        iq = named_inequality(name)
        try:
            dec = scenarios.chsh_decomposition(iq)
        except PentabellError as exc:
            print(f"scenarios decomposition {name}: {type(exc).__name__}")
            continue
        values = scenarios.evaluate_tables(iq, boxes).tobytes() + dec.predict_tables(boxes).tobytes()
        print(f"scenarios decomposition {name}: {sha(repr(dec).encode())}")
        print(f"    evaluated and predicted boxes {sha(values)}")
    for alice, bob in ENUMERATION_RANGES:
        classes = [(iq.name, [str(t) for t in iq.terms]) for iq in scenarios.enumerate_pentagonal(alice, bob)]
        print(f"scenarios enumerate {alice}x{bob}: {sha(repr(classes).encode())}")
    graphs = [scenarios.exclusivity_graph(named_inequality(name)) for name in INEQUALITIES]
    print(f"scenarios exclusivity graphs: {sha(repr([(g.n, edges) for g, edges in graphs]).encode())}")
    models = {name: quantum.known_optimal_model(name) for name in PENTAGONS}
    models.update((name, model) for name, dims, seed, model in seesaw_models if (dims, seed) == ((2, 2), 0))
    random_boxes = [scenarios.Behavior(t) for t in scenarios.random_ns_tables(np.random.default_rng(26), 50)]
    for name in INEQUALITIES:
        iq = named_inequality(name)
        for label, behaviors in (
            ("model", [quantum.behavior_of(models[name])]),
            ("PR box", [scenarios.pr_box()]),
            ("random boxes", random_boxes),
        ):
            try:
                reports = [scenarios.eprinciple_check(iq, b) for b in behaviors]
            except PentabellError as exc:
                print(f"eprinciple {name} {label}: {type(exc).__name__}")
                continue
            print(f"eprinciple {name} {label}: {sha(repr(reports).encode())}")
    sets = {
        "fixed": theta_iterations.fixed_family(),
        "random84": theta_iterations.random84(),
        "held-out": theta_iterations.held_out(),
        "named": [(name, scenarios.named_graph(name)) for name in scenarios.SCENARIO_NAMES],
    }
    for name, family in sets.items():
        print(f"graphs {name} ({len(family)}): {graph_digest(family)}")


if __name__ == "__main__":
    main()
