"""Command-line front end.

Subcommands expose every capability on the shared JSON file formats, plus a
`report` command that recomputes all built-in reference values and prints
one PASS/FAIL line per item.  Exit codes: 0 success, 1 invalid input,
2 capacity or convergence failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal
from pathlib import Path

import numpy as np

from . import graphs, quantum, scenarios, simkit, theta
from .errors import CapacityError, ConvergenceError, InvalidInputError


def _round6(obj):
    # estimates round to nearest; bounds arrive as Decimals, rounded outward
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def _emit(args, text: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(_round6(payload), sort_keys=True, separators=(",", ":"), default=float))
    else:
        print(text)


def _outward(x: float, up: bool, places: int = 6, digits: int | None = None) -> Decimal:
    """A printed bound: x rounded toward +inf for an upper bound or a gap
    (up), toward -inf for a lower bound, so it never claims more than x.
    Rounded to `places` decimals, or to `digits` significant digits (a gap:
    a positive gap stays positive).  Decimal(x) is x exactly, so the
    rounding is too."""
    if digits is not None:
        places = digits - 1 - Decimal(x).adjusted()
    return Decimal(x).quantize(Decimal(1).scaleb(-places), rounding=ROUND_CEILING if up else ROUND_FLOOR)


def _seesaw_bounds(iq, model, theta_of):
    """The bounds `qmax` states around the quantum maximum of the
    inequality from a see-saw model: (value, lower, upper).  value is what
    the model replays to, `scenarios.evaluate` of its behaviour (the
    see-saw's top eigenvalue can exceed it by rounding), and lower is
    value rounded down.  upper is the replayed upper bound of theta_of's
    result for the exclusivity graph, rounded up, or None when that
    certificate does not replay.  lower and upper compare as printed,
    since the floats can cross by a few ulps where they meet (theta =
    alpha)."""
    value = scenarios.evaluate(iq, quantum.behavior_of(model))
    g, _ = scenarios.exclusivity_graph(iq)
    _, upper, cert_ok = theta.replay(g, theta_of(g), 1e-7)
    return value, _outward(value, False), (_outward(upper, True) if cert_ok else None)


def _default_seed() -> int:
    raw = os.environ.get("PENTABELL_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(f"PENTABELL_SEED={raw!r} is not an integer") from None


def _resolve(ref: str, load, named):
    """A graph or scenario argument: a JSON file path, read by `load`, or a
    built-in scenario name, built by `named` (named inequalities resolve to
    their exclusivity graphs; `kcbs-graph` names a graph only)."""
    if Path(ref).exists():
        return load(ref)
    if ref in scenarios.SCENARIO_NAMES:
        return named(ref)
    raise InvalidInputError(f"no such file or named scenario: {ref!r}")


def cmd_alpha(args) -> int:
    g = _resolve(args.graph, graphs.load_graph, scenarios.named_graph)
    alpha, witness = graphs.independence_number(g)
    _emit(
        args,
        f"alpha = {alpha}\nwitness = {list(witness)}",
        {"alpha": alpha, "witness": list(witness), "n": g.n, "edges": len(g.edges)},
    )
    return 0


def cmd_theta(args) -> int:
    g = _resolve(args.graph, graphs.load_graph, scenarios.named_graph)
    try:
        result = theta.lovasz_theta(g, tol=args.tol)
    except ConvergenceError as exc:
        lower, upper, _ = theta.replay(g, exc.result, args.tol)
        raise ConvergenceError(
            f"theta {exc}; best certified gap {float(_outward(exc.result.gap, True, digits=4)):.3e} "
            f"({_outward(lower, False, 10)} <= theta <= {_outward(upper, True, 10)})",
            result=exc.result,
            reason=exc.reason,
        ) from exc
    lower, upper, cert_ok = theta.replay(g, result, args.tol)
    value, gap = _outward(lower, False), _outward(result.gap, True, digits=3)
    text = (
        f"theta = {value}\n"
        f"gap <= {float(gap):.2e}\n"
        f"iterations = {result.iterations}\n"
        f"certificate replay = {value} <= theta <= {_outward(upper, True)} ({'ok' if cert_ok else 'MISMATCH'})"
    )
    _emit(
        args,
        text,
        {"theta": value, "gap": gap, "iterations": result.iterations, "certificate_ok": cert_ok},
    )
    return 0


def cmd_lhv(args) -> int:
    iq = _resolve(args.scenario, scenarios.load_scenario, scenarios.named_inequality)
    bound, strategy = scenarios.lhv_bound(iq)
    text = (
        f"lhv bound = {bound}\n"
        f"witness alice outcomes = {list(strategy.alice)}\n"
        f"witness bob outcomes = {list(strategy.bob)}"
    )
    _emit(
        args,
        text,
        {
            "bound": bound,
            "alice": list(strategy.alice),
            "bob": list(strategy.bob),
            "name": iq.name,
        },
    )
    return 0


def cmd_qmax(args) -> int:
    iq = _resolve(args.scenario, scenarios.load_scenario, scenarios.named_inequality)
    try:
        d_a, d_b = (int(d) for d in args.dims.split(","))
    except ValueError:
        raise InvalidInputError(f"--dims must be two integers dA,dB, got {args.dims!r}") from None
    _, model = quantum.qmax_seesaw(iq, dims=(d_a, d_b), restarts=args.restarts, seed=args.seed)
    _, value, cap = _seesaw_bounds(iq, model, theta.lovasz_theta)
    if cap is None:
        raise ConvergenceError("theta's certificate for the exclusivity graph does not replay")
    if args.model_out:
        quantum.save_model(model, args.model_out)
    text = (
        f"quantum value = {value}\n"
        f"lovasz theta of exclusivity graph = {cap}\n"
        f"value <= theta: {'yes' if value <= cap else 'NO'}"
    )
    if args.model_out:
        text += f"\nmodel written to {args.model_out}"
    _emit(
        args,
        text,
        {
            "value": value,
            "theta": cap,
            "dims": [d_a, d_b],
            "restarts": args.restarts,
            "seed": args.seed,
            "name": iq.name,
        },
    )
    return 0


def cmd_enumerate(args) -> int:
    patterns = scenarios.edge_patterns_c5()
    feasible = scenarios.feasible_patterns()
    classes = scenarios.enumerate_pentagonal()
    lines = [f"edge pattern classes: {len(patterns)}"]
    for p in patterns:
        lines.append(f"  {p.canonical} (orbit size {len(p.members)})")
    lines.append(f"bipartite-feasible classes: {len(feasible)}")
    for p in feasible:
        lines.append(f"  {p.canonical}")
    lines.append(f"pentagonal inequality classes: {len(classes)}")
    for iq in classes:
        lines.append(f"  {iq.name}: " + " + ".join(f"P({t})" for t in iq.terms))
    payload = {
        "patterns": [p.canonical for p in patterns],
        "feasible": [p.canonical for p in feasible],
        "classes": [{"name": iq.name, "terms": [str(t) for t in iq.terms]} for iq in classes],
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_simulate(args) -> int:
    iq = _resolve(args.scenario, scenarios.load_scenario, scenarios.named_inequality)
    if args.model:
        model = quantum.load_model(args.model)
    else:
        # a built-in model is optimal only for the built-in inequality, not
        # for a file that borrows its name
        model = quantum.known_optimal_model(iq.name)
        if iq != scenarios.named_inequality(iq.name):
            raise InvalidInputError(
                f"scenario {iq.name!r} is not the built-in inequality of that name; give its model with --model"
            )
    cfg = simkit.SimConfig(shots=args.shots, seed=args.seed, visibility=args.visibility)
    report = simkit.run_experiment(iq, model, cfg)
    _emit(args, report.to_text(), report.to_json_dict())
    return 0


# ---------------------------------------------------------------------------
# report: recompute every built-in reference value
# ---------------------------------------------------------------------------

IDEAL_COLUMN_1 = (0.464, 0.464, 0.323, 0.464, 0.464)
IDEAL_COLUMN_2 = (0.427, 0.427, 0.427, 0.427, 0.5)


def _report_items():
    sqrt5 = math.sqrt(5.0)
    two_sqrt2 = 2.0 + math.sqrt(2.0)
    pent_q = (3.0 + math.sqrt(2.0)) / 2.0
    items = []

    def item(name, ok, detail):
        items.append({"name": name, "ok": bool(ok), "detail": detail})

    def paper_column(values, column):
        # agreement to the paper's three decimals
        return all(abs(x - c) <= 5e-4 for x, c in zip(values, column))

    # theta once per distinct graph: C5 is also every pentagon's graph
    thetas = {}

    def theta_of(g):
        if g not in thetas:
            thetas[g] = theta.lovasz_theta(g)
        return thetas[g]

    for name, g, alpha_target, theta_target in (
        ("pentagon", graphs.cycle(5), 2, sqrt5),
        ("circulant(8;1,4)", graphs.circulant(8, {1, 4}), 3, two_sqrt2),
    ):
        alpha, t = graphs.independence_number(g)[0], theta_of(g).value
        item(
            f"{name} alpha/theta",
            alpha == alpha_target and abs(t - theta_target) <= 1e-6,
            f"alpha={alpha} theta={t:.7f} target={theta_target:.7f}",
        )

    ok = True
    details = []
    for name in ("pentagon-1", "pentagon-2", "pentagon-3", "chsh-prob", "i3322"):
        iq = scenarios.named_inequality(name)
        bound = scenarios.lhv_bound(iq)[0]
        alpha = graphs.independence_number(scenarios.exclusivity_graph(iq)[0])[0]
        ok &= bound == alpha
        details.append(f"{name}:{bound}/{alpha}")
    item("classical bounds = independence numbers", ok, " ".join(details))

    # pentagon-1's optimum has no closed form: the see-saw is checked
    # against the scan, which is checked against the paper below
    scan = quantum.qmax_scan_ineq2()
    seesaw_targets = {
        "pentagon-1": scan.value,
        "pentagon-2": pent_q,
        "pentagon-3": pent_q,
        "chsh-prob": two_sqrt2,
    }
    ok = True
    details = []
    seesaw_values = {}
    for name, target in seesaw_targets.items():
        iq = scenarios.named_inequality(name)
        _, model = quantum.qmax_seesaw(iq, dims=(2, 2), restarts=32, seed=0)
        # the model's replay, capped by theta's replayed upper bound, as qmax states them
        value, lower, upper = _seesaw_bounds(iq, model, theta_of)
        seesaw_values[name] = value
        ok &= abs(value - target) <= 1e-6 and upper is not None and lower <= upper
        details.append(f"{name}:{value:.7f}")
    item("see-saw quantum maxima", ok, " ".join(details))

    coeffs = quantum.schmidt(scan.model)
    beh = quantum.behavior_of(scan.model)
    iq1 = scenarios.named_inequality("pentagon-1")
    ok = (
        abs(scan.value - 2.178) <= 5e-4
        and abs(coeffs[0] - 0.7735) <= 5e-4
        and abs(coeffs[1] - 0.6338) <= 5e-4
        and paper_column(beh.probs(iq1.terms), IDEAL_COLUMN_1)
    )
    item(
        "two-angle scan optimum",
        ok,
        f"value={scan.value:.6f} schmidt=({coeffs[0]:.4f},{coeffs[1]:.4f})",
    )

    # the see-saw at (4,4) finds no more than at (2,2): each (4,4) model's
    # replay, the value the see-saw item states, is the (2,2) value
    ok = True
    details = []
    for name in ("pentagon-1", "pentagon-2", "pentagon-3"):
        iq = scenarios.named_inequality(name)
        _, model = quantum.qmax_seesaw(iq, dims=(4, 4), restarts=8, seed=0)
        v44 = scenarios.evaluate(iq, quantum.behavior_of(model))
        ok &= abs(v44 - seesaw_values[name]) <= 1e-4
        details.append(f"{name}(4,4):{v44:.7f}")
    item("qubits suffice", ok, " ".join(details))

    patterns = scenarios.edge_patterns_c5()
    feasible = scenarios.feasible_patterns()
    classes = scenarios.enumerate_pentagonal()
    # the enumeration raises on any cycle outside the named classes, so
    # the three names are the claim that exactly three classes exist
    ok = (
        len(patterns) == 4
        and len(feasible) == 1
        and feasible[0].canonical == "BBABA"
        and [iq.name for iq in classes] == ["pentagon-1", "pentagon-2", "pentagon-3"]
    )
    item(
        "pentagonal enumeration",
        ok,
        f"patterns={len(patterns)} feasible={[p.canonical for p in feasible]} classes={len(classes)}",
    )

    iq2 = scenarios.named_inequality("pentagon-2")
    dec = scenarios.chsh_decomposition(iq2)
    expected = {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): -0.25}
    ok = (
        dec.correlator_only
        and abs(dec.offset - 1.5) <= 1e-10
        and all(abs(dec.coefficients[k] - expected[k]) <= 1e-10 for k in expected)
        and dec.residual <= 1e-10
    )
    boxes = scenarios.random_ns_tables(np.random.default_rng(99), 1000)
    ok &= bool(np.all(np.abs(dec.predict_tables(boxes) - scenarios.evaluate_tables(iq2, boxes)) <= 1e-10))
    box = scenarios.pr_box()
    chsh_value = (
        box.correlator(0, 0) + box.correlator(0, 1) + box.correlator(1, 0) - box.correlator(1, 1)
    )
    cap = scenarios.eprinciple_check(iq2, box).chsh_cap
    pr_value = scenarios.evaluate(iq2, box)
    ok &= abs(pr_value - 2.5) <= 1e-12
    ok &= abs(chsh_value - 4.0) <= 1e-12
    ok &= cap is not None and abs(cap - (4.0 * sqrt5 - 6.0)) <= 1e-6
    item(
        "correlator identity / PR box / exclusivity cap",
        ok,
        f"offset={dec.offset:.4f} pr={pr_value:.3f} chsh={chsh_value:.3f} cap={cap:.7f}",
    )

    vectors = quantum.kcbs_vectors()
    state, projectors = quantum.kcbs_model()
    orth = max(abs(float(vectors[:, k] @ vectors[:, (k + 1) % 5])) for k in range(5))
    total = float(sum(state @ p @ state for p in projectors))
    ok = orth <= 1e-10 and abs(total - sqrt5) <= 1e-9
    item("qutrit pentagon construction", ok, f"orthogonality={orth:.1e} total={total:.10f}")

    model2 = quantum.known_optimal_model("pentagon-2")
    shots = 5000
    reports = simkit.run_experiments(iq2, model2, simkit.SimConfig(shots=shots), range(200))
    # every report carries the model's ideal column and total
    first = reports[0]
    ok = paper_column([t.ideal for t in first.terms], IDEAL_COLUMN_2) and abs(first.ideal - pent_q) <= 1e-9
    mean = float(np.mean([rep.omega for rep in reports]))
    ok &= abs(mean - first.ideal) <= 3.0 * first.sigma / math.sqrt(200)
    # each term's estimated sigma within 50% of the binomial sigma of its ideal p
    sigmas = [math.sqrt(t.ideal * (1.0 - t.ideal) / shots) for t in first.terms]
    ok &= all(s / 1.5 <= t.sigma <= s * 1.5 for t, s in zip(first.terms, sigmas))
    item(
        "simulator statistics",
        ok,
        f"ideal_total={first.ideal:.4f} mean(200 seeds)={mean:.4f} per-term sigma~{first.terms[0].sigma:.4f}",
    )

    return items


def cmd_report(args) -> int:
    items = _report_items()
    all_pass = all(it["ok"] for it in items)
    lines = [f"{'PASS' if it['ok'] else 'FAIL'}  {it['name']}: {it['detail']}" for it in items]
    lines.append("ALL PASS" if all_pass else "FAILURES PRESENT")
    _emit(args, "\n".join(lines), {"items": items, "all_pass": all_pass})
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentabell",
        description="Graph-theoretic analysis of the pentagonal bipartite Bell inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")

    p = sub.add_parser("alpha", help="independence number of a graph", parents=[common])
    p.add_argument("graph", help="graph JSON file or built-in scenario name")
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("theta", help="Lovasz number of a graph", parents=[common])
    p.add_argument("graph", help="graph JSON file or built-in scenario name")
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("lhv", help="classical bound by strategy enumeration", parents=[common])
    p.add_argument("scenario", help="scenario JSON file or built-in name")
    p.set_defaults(func=cmd_lhv)

    p = sub.add_parser("qmax", help="quantum maximum by see-saw optimization", parents=[common])
    p.add_argument("scenario", help="scenario JSON file or built-in name")
    p.add_argument("--dims", default="2,2", help="local dimensions dA,dB (default 2,2)")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--model-out", help="write the best model as JSON")
    p.set_defaults(func=cmd_qmax)

    p = sub.add_parser("enumerate", help="edge patterns and all pentagonal inequalities", parents=[common])
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("simulate", help="finite-statistics experiment report", parents=[common])
    p.add_argument("scenario", help="scenario JSON file or built-in name")
    p.add_argument("--model", help="model JSON file (default: built-in optimal model)")
    p.add_argument("--shots", type=int, default=5000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--visibility", type=float, default=1.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="recompute every reference value; PASS/FAIL per item", parents=[common])
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CapacityError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
