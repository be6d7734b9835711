"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here, not deferred.
"""

import math

import numpy as np
import pytest

from pentabell import graphs, quantum, scenarios, simkit, theta
from pentabell.cli import main as cli_main

SQRT5 = math.sqrt(5.0)
SQRT2 = math.sqrt(2.0)
PENT_Q = (3.0 + SQRT2) / 2.0
PENTAGONS = ("pentagon-1", "pentagon-2", "pentagon-3")


def gate(number, ok, detail):
    print(f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_pentagon_alpha_and_theta():
    alpha = graphs.independence_number(graphs.cycle(5))[0]
    value = theta.lovasz_theta(graphs.cycle(5)).value
    gate(
        1,
        alpha == 2 and abs(value - SQRT5) <= 1e-6,
        f"alpha(C5)={alpha}, theta(C5)={value:.8f} vs sqrt5={SQRT5:.8f}",
    )


def test_criterion_02_circulant_alpha_and_theta():
    g = graphs.circulant(8, {1, 4})
    alpha = graphs.independence_number(g)[0]
    value = theta.lovasz_theta(g).value
    gate(
        2,
        alpha == 3 and abs(value - (2 + SQRT2)) <= 1e-6,
        f"alpha(Ci8(1,4))={alpha}, theta={value:.8f} vs 2+sqrt2={2 + SQRT2:.8f}",
    )


def test_criterion_03_lhv_bounds_match_independence_numbers():
    targets = {"pentagon-1": 2, "pentagon-2": 2, "pentagon-3": 2, "chsh-prob": 3, "i3322": 4}
    ok = True
    parts = []
    for name, target in targets.items():
        iq = scenarios.named_inequality(name)
        bound = scenarios.lhv_bound(iq)[0]
        alpha = graphs.independence_number(scenarios.exclusivity_graph(iq)[0])[0]
        ok &= bound == target == alpha
        parts.append(f"{name}={bound}(alpha {alpha})")
    gate(3, ok, ", ".join(parts))


def test_criterion_04_seesaw_quantum_maxima():
    plan = [
        ("pentagon-1", 2.178, 1e-3),
        ("pentagon-2", PENT_Q, 1e-6),
        ("pentagon-3", PENT_Q, 1e-6),
        ("chsh-prob", 2 + SQRT2, 1e-6),
    ]
    ok = True
    parts = []
    for name, target, tol in plan:
        iq = scenarios.named_inequality(name)
        value, _ = quantum.qmax_seesaw(iq, dims=(2, 2), restarts=32, seed=0)
        theta_value = theta.lovasz_theta(scenarios.exclusivity_graph(iq)[0]).value
        ok &= abs(value - target) <= tol and value <= theta_value + 1e-6
        parts.append(f"{name}={value:.7f}")
    gate(4, ok, ", ".join(parts))


def test_criterion_05_two_angle_scan():
    result = quantum.qmax_scan_ineq2()
    coeffs = quantum.schmidt(result.model)
    behavior = quantum.behavior_of(result.model)
    ideal = (0.464, 0.464, 0.323, 0.464, 0.464)
    probs = [behavior.prob(t) for t in scenarios.named_inequality("pentagon-1").terms]
    ok = (
        abs(result.value - 2.178) <= 5e-4
        and abs(coeffs[0] - 0.7735) <= 5e-4
        and abs(coeffs[1] - 0.6338) <= 5e-4
        and all(abs(p - t) <= 1e-3 for p, t in zip(probs, ideal))
    )
    gate(
        5,
        ok,
        f"value={result.value:.6f}, schmidt=({coeffs[0]:.4f},{coeffs[1]:.4f}), "
        f"ideal column dev={max(abs(p - t) for p, t in zip(probs, ideal)):.1e}",
    )


def test_criterion_06_block_reduction_and_dimension_stability():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        d_a = int(rng.integers(2, 7))
        qmats = [np.linalg.qr(rng.standard_normal((d_a, d_a)))[0] for _ in range(2)]
        r1, r2 = rng.integers(1, d_a + 1, size=2)
        p1 = qmats[0][:, :r1] @ qmats[0][:, :r1].T
        p2 = qmats[1][:, :r2] @ qmats[1][:, :r2].T
        qs = [rng.standard_normal((2, 2)) for _ in range(3)]
        qs = [(q + q.T) / 2 for q in qs]
        red = quantum.block_reduce(p1, p2, qs[0], qs[1], qs[2])
        block_eigs = np.concatenate(
            [np.linalg.eigvalsh(b) for b in red.blocks] + [red.residual_spectrum]
        )
        full = np.kron(p1, qs[1]) + np.kron(p2, qs[2]) + np.kron(np.eye(d_a), qs[0])
        worst = max(
            worst,
            float(np.max(np.abs(np.sort(block_eigs) - np.sort(np.linalg.eigvalsh(full))))),
        )
    ok = worst <= 1e-8
    parts = [f"spectra dev={worst:.1e}"]
    for name in PENTAGONS:
        iq = scenarios.named_inequality(name)
        v22, _ = quantum.qmax_seesaw(iq, dims=(2, 2), restarts=8, seed=0)
        v44, _ = quantum.qmax_seesaw(iq, dims=(4, 4), restarts=8, seed=0)
        ok &= abs(v22 - v44) <= 1e-4
        parts.append(f"{name}: {v22:.6f}->{v44:.6f}")
    gate(6, ok, ", ".join(parts))


def test_criterion_07_enumeration_pipeline():
    patterns = scenarios.edge_patterns_c5()
    feasible = scenarios.feasible_patterns()
    classes = scenarios.enumerate_pentagonal()
    named = {scenarios.canonical_form(scenarios.named_inequality(n).terms) for n in PENTAGONS}
    found = {scenarios.canonical_form(iq.terms) for iq in classes}
    ok = (
        len(patterns) == 4
        and len(feasible) == 1
        and feasible[0].canonical == "BBABA"
        and len(classes) == 3
        and found == named
    )
    gate(
        7,
        ok,
        f"patterns={len(patterns)}, feasible={[p.canonical for p in feasible]}, classes={len(classes)}",
    )


def test_criterion_08_correlator_identity_and_pr_box():
    iq = scenarios.named_inequality("pentagon-2")
    dec = scenarios.chsh_decomposition(iq)
    expected = {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): -0.25}
    ok = (
        dec.correlator_only
        and dec.residual <= 1e-10
        and abs(dec.offset - 1.5) <= 1e-10
        and all(abs(dec.coefficients[k] - v) <= 1e-10 for k, v in expected.items())
    )
    boxes = scenarios.random_ns_tables(np.random.default_rng(808), 1000)
    predicted = dec.predict_tables(boxes)
    worst = max(abs(p - scenarios.evaluate(iq, scenarios.Behavior(box))) for p, box in zip(predicted, boxes))
    ok &= worst <= 1e-10
    box = scenarios.pr_box()
    chsh = box.correlator(0, 0) + box.correlator(0, 1) + box.correlator(1, 0) - box.correlator(1, 1)
    cap = scenarios.eprinciple_check(iq, box).chsh_cap
    ok &= abs(scenarios.evaluate(iq, box) - 2.5) <= 1e-12
    ok &= abs(chsh - 4.0) <= 1e-12
    ok &= cap is not None and abs(cap - (4 * SQRT5 - 6)) <= 1e-6
    gate(
        8,
        ok,
        f"offset={dec.offset:.6f}, replay dev={worst:.1e}, pr={scenarios.evaluate(iq, box):.3f}, "
        f"chsh={chsh:.3f}, cap={cap:.6f} vs {4 * SQRT5 - 6:.6f}",
    )


def test_criterion_09_kcbs_construction():
    vectors = quantum.kcbs_vectors()
    state, projectors = quantum.kcbs_model()
    orth = max(abs(float(vectors[:, k] @ vectors[:, (k + 1) % 5])) for k in range(5))
    total = float(sum(state @ p @ state for p in projectors))
    ok = orth <= 1e-10 and abs(total - SQRT5) <= 1e-9
    gate(9, ok, f"adjacent overlap={orth:.1e}, total={total:.10f} vs sqrt5={SQRT5:.10f}")


def test_criterion_10_simulator_statistics():
    iq = scenarios.named_inequality("pentagon-2")
    model = quantum.known_optimal_model("pentagon-2")
    ideal = quantum.behavior_of(model)
    ideal_probs = [ideal.prob(t) for t in iq.terms]
    ideal_total = float(sum(ideal_probs))
    ok = tuple(round(p, 3) for p in ideal_probs) == (0.427, 0.427, 0.427, 0.427, 0.5)
    ok &= round(ideal_total, 3) == 2.207

    reports = [
        simkit.run_experiment(iq, model, simkit.SimConfig(shots=5000, seed=s)) for s in range(200)
    ]
    omegas = np.array([r.omega for r in reports])
    sigma = reports[0].sigma
    mean = float(omegas.mean())
    ok &= abs(mean - ideal_total) <= 3 * sigma / math.sqrt(200)
    ok &= all(0.007 / 1.5 <= t.sigma <= 0.007 * 1.5 for t in reports[0].terms)
    gate(
        10,
        ok,
        f"ideal={ideal_total:.4f}, mean={mean:.4f}, sigma_total={sigma:.4f}, "
        f"per-term sigma={reports[0].terms[0].sigma:.4f}",
    )


def test_criterion_11_report_command_all_pass(capsys):
    code = cli_main(["report"])
    out = capsys.readouterr().out
    ok = code == 0 and "ALL PASS" in out and "FAIL" not in out.replace("ALL PASS", "")
    gate(11, ok, f"exit={code}, items={out.count('PASS ') + out.count('PASS')}")
