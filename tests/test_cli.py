import contextlib
import importlib.util
import io
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pentabell import cli, quantum, scenarios, theta
from pentabell.cli import main
from pentabell.errors import ConvergenceError, save_json
from pentabell.graphs import cycle

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "alpha_pentagon2": ["alpha", "pentagon-2", "--json"],
    "theta_kcbs": ["theta", "kcbs-graph", "--json"],
    "lhv_chsh_prob": ["lhv", "chsh-prob", "--json"],
    "enumerate": ["enumerate", "--json"],
    "qmax_pentagon2": ["qmax", "pentagon-2", "--restarts", "6", "--seed", "1", "--json"],
    "simulate_pentagon2": ["simulate", "pentagon-2", "--seed", "7", "--shots", "2000", "--json"],
}


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_json_outputs(name):
    code, out, _ = run_cli(GOLDEN_CASES[name])
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()


def test_report_json_golden():
    code, out, _ = run_cli(["report", "--json"])
    assert code == 0
    assert out == (GOLDEN_DIR / "report.json").read_text()


def test_report_solves_theta_once_per_graph(monkeypatch):
    # C5 (also the graph of every pentagon), circulant(8;1,4) and chsh-prob's graph
    solved = []
    solve = theta.lovasz_theta

    def counting(g, *args, **kwargs):
        solved.append(g)
        return solve(g, *args, **kwargs)

    monkeypatch.setattr(theta, "lovasz_theta", counting)
    code, _, _ = run_cli(["report", "--json"])
    assert code == 0
    assert len(solved) == 3
    assert len(set(solved)) == 3


def test_report_makes_no_block_reduction(monkeypatch):
    # Tier-1 tests the reduction code; the report states the qubit claim
    def unexpected(*args):
        raise AssertionError("report built a two-projector operator")

    monkeypatch.setattr(quantum, "block_reduce", unexpected)
    monkeypatch.setattr(quantum, "two_projector_operator", unexpected)
    code, out, _ = run_cli(["report", "--json"])
    assert code == 0
    assert out == (GOLDEN_DIR / "report.json").read_text()


def test_report_reads_the_enumeration_once(monkeypatch):
    calls = []

    def count(name):
        original = getattr(scenarios, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(scenarios, name, counting)

    count("enumerate_pentagonal")
    count("canonical_form")
    code, _, _ = run_cli(["report", "--json"])
    assert code == 0
    assert calls == ["enumerate_pentagonal"]


def test_report_enumeration_item_fails_on_a_missing_class(monkeypatch):
    classes = scenarios.enumerate_pentagonal()
    monkeypatch.setattr(scenarios, "enumerate_pentagonal", lambda *args: classes[:2])
    code, out, _ = run_cli(["report", "--json"])
    assert code == 1
    items = json.loads(out)["items"]
    assert len(items) == 10
    assert [it["name"] for it in items if not it["ok"]] == ["pentagonal enumeration"]


# circulant(8; 1, 4): the 8-cycle plus its four antipodal chords
CI8_EDGES = [[0, 1], [0, 4], [0, 7], [1, 2], [1, 5], [2, 3], [2, 6], [3, 4], [3, 7], [4, 5], [5, 6], [6, 7]]


def test_alpha_on_graph_files(tmp_path):
    cases = [
        ({"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]}, 2),
        ({"n": 5, "edges": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]}, 1),
        ({"n": 8, "edges": CI8_EDGES}, 3),
        ({"n": 6, "edges": []}, 6),
    ]
    for k, (document, expected) in enumerate(cases):
        path = tmp_path / f"graph{k}.json"
        save_json(document, path)
        code, out, _ = run_cli(["alpha", str(path), "--json"])
        assert code == 0
        assert json.loads(out)["alpha"] == expected


def test_theta_on_graph_files(tmp_path):
    path = tmp_path / "ci8.json"
    save_json({"n": 8, "edges": CI8_EDGES}, path)
    code, out, _ = run_cli(["theta", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["theta"] == pytest.approx(3.414214, abs=1e-6)
    path6 = tmp_path / "empty6.json"
    save_json({"n": 6, "edges": []}, path6)
    code, out, _ = run_cli(["theta", str(path6), "--json"])
    assert json.loads(out)["theta"] == pytest.approx(6.0)


def _bad_certificates():
    # feasible for C5 except for the one defect each case names
    trace2 = np.eye(5) * 2.0 / 5.0
    not_psd = np.zeros((5, 5))
    not_psd[0, 0] = 1.0
    not_psd[0, 2] = not_psd[2, 0] = 1.0
    edge = np.eye(5) / 5.0
    edge[0, 1] = edge[1, 0] = 0.1
    return {"trace-2": trace2, "not-psd": not_psd, "edge-nonzero": edge}


@pytest.mark.parametrize("defect", sorted(_bad_certificates()))
def test_theta_certificate_is_replayed(monkeypatch, defect):
    primal = _bad_certificates()[defect]
    # the value is the certificate's own entry sum and the dual J is valid
    # with a gap up to its bound 5, so only an independent replay of trace,
    # edges and PSD can catch the defect
    value = float(primal.sum())
    fake = theta.ThetaResult(value, primal, np.ones((5, 5)), 1, 5.0 - value)
    monkeypatch.setattr(theta, "lovasz_theta", lambda g, tol: fake)
    code, out, _ = run_cli(["theta", "kcbs-graph", "--json"])
    assert code == 0
    assert json.loads(out)["certificate_ok"] is False


def _forged_duals():
    # each breaks the form J - Y (Y on the edges) of the solver's own dual
    # for C5, whose edges are {0,1}, {1,2}, {2,3}, {3,4} and {0,4}
    b = theta.lovasz_theta(cycle(5)).dual
    non_edge = b.copy()
    non_edge[0, 2] = non_edge[2, 0] = 0.9
    diagonal = b.copy()
    diagonal[3, 3] = 0.9
    asymmetric = b.copy()
    asymmetric[0, 1] += 1e-3
    return {"non-edge-not-one": non_edge, "diagonal-not-one": diagonal, "asymmetric": asymmetric}


@pytest.mark.parametrize("defect", sorted(_forged_duals()))
def test_theta_dual_form_is_replayed(monkeypatch, defect):
    # value and gap are chosen so that lambda_max of the forged dual lies
    # within the stated bounds; only a check of its form catches the defect
    honest = theta.lovasz_theta(cycle(5))
    dual = _forged_duals()[defect]
    top = float(np.linalg.eigvalsh(dual)[-1])
    fake = theta.ThetaResult(min(honest.value, top), honest.primal, dual, 1, abs(honest.value - top) + 0.01)
    monkeypatch.setattr(theta, "lovasz_theta", lambda g, tol: fake)
    code, out, _ = run_cli(["theta", "kcbs-graph", "--json"])
    assert code == 0
    assert json.loads(out)["certificate_ok"] is False


@pytest.mark.parametrize("shift", [1e-6, 0.01])
def test_theta_dual_bound_is_replayed(monkeypatch, shift):
    # raising every edge entry keeps the form J - Y but lifts lambda_max
    # above value + gap
    honest = theta.lovasz_theta(cycle(5))
    dual = honest.dual + shift * (honest.dual != 1.0)
    fake = theta.ThetaResult(honest.value, honest.primal, dual, 1, honest.gap)
    monkeypatch.setattr(theta, "lovasz_theta", lambda g, tol: fake)
    code, out, _ = run_cli(["theta", "kcbs-graph", "--json"])
    assert code == 0
    assert json.loads(out)["certificate_ok"] is False


def test_theta_honest_certificates_pass():
    code, out, _ = run_cli(["theta", "kcbs-graph"])
    assert code == 0
    # theta(C5) = sqrt(5) = 2.2360679775: each bound is rounded outward
    assert out.splitlines()[-1] == "certificate replay = 2.236067 <= theta <= 2.236068 (ok)"


def test_theta_convergence_error_exits_two_with_best_gap(monkeypatch):
    monkeypatch.setattr(theta, "MAX_ITERATIONS", 2)
    code, out, err = run_cli(["theta", "kcbs-graph", "--json"])
    assert code == 2
    assert out == ""
    # the bounds are checked after every iteration, so two iterations
    # already tighten alpha = 2 and n = 5; both are rounded outward
    assert err.startswith("error: theta solver stopped (cap) after 2 iterations, short of gap 1e-07;")
    assert "best certified gap 7.471e-04 (2.2360679774 <= theta <= 2.2368150612)" in err


def test_lhv_named_scenarios():
    for name, expected in [("pentagon-2", 2), ("chsh-prob", 3), ("i3322", 4)]:
        code, out, _ = run_cli(["lhv", name, "--json"])
        assert code == 0
        assert json.loads(out)["bound"] == expected


def test_qmax_values_and_model_out(tmp_path):
    model_path = tmp_path / "model.json"
    code, out, _ = run_cli(
        ["qmax", "pentagon-2", "--restarts", "4", "--seed", "0", "--model-out", str(model_path), "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    # the model's value (3 + sqrt 2)/2 = 2.2071067812, printed rounded down
    assert payload["value"] == 2.207106
    assert payload["value"] <= payload["theta"] + 1e-6
    from pentabell.quantum import load_model

    model = load_model(model_path)
    assert model.dims == (2, 2)


def test_simulate_visibility_zero():
    code, out, _ = run_cli(
        ["simulate", "pentagon-2", "--seed", "1", "--shots", "20000", "--visibility", "0", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["omega"] == pytest.approx(1.5, abs=0.05)
    assert payload["violated"] is False


@pytest.mark.parametrize("name", ["pentagon-1", "pentagon-2", "pentagon-3"])
def test_simulate_a_saved_built_in_model_as_the_model_itself(tmp_path, monkeypatch, name):
    # the saved file is the model bit for bit, so the simulation is too
    from pentabell import simkit

    path = tmp_path / "m.json"
    quantum.save_model(quantum.known_optimal_model(name), path)
    reports = []
    run_experiment = simkit.run_experiment

    def recording(*args):
        reports.append(run_experiment(*args))
        return reports[-1]

    monkeypatch.setattr(simkit, "run_experiment", recording)
    for flags in ([], ["--json"]):
        built_in = run_cli(["simulate", name, *flags])
        assert built_in[0] == 0
        assert run_cli(["simulate", name, "--model", str(path), *flags]) == built_in
    assert len(reports) == 4 and len({repr(r) for r in reports}) == 1


def scenario_file(tmp_path, iq, **changes):
    terms = [{"alice": e.alice and list(e.alice), "bob": e.bob and list(e.bob)} for e in iq.terms]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"name": iq.name, "terms": terms, **changes}))
    return str(path)


def test_simulate_takes_the_built_in_model_only_for_the_built_in_inequality(tmp_path):
    flags = ["--seed", "7", "--shots", "2000", "--json"]
    pentagon2 = scenarios.named_inequality("pentagon-2")
    code, out, _ = run_cli(["simulate", scenario_file(tmp_path, pentagon2), *flags])
    assert code == 0
    assert out == (GOLDEN_DIR / "simulate_pentagon2.json").read_text()
    # the name alone does not make a file the built-in inequality
    borrowed = scenarios.Inequality(pentagon2.terms[:2], "pentagon-2")
    for path in (scenario_file(tmp_path, borrowed), scenario_file(tmp_path, pentagon2, alice_settings=3)):
        code, out, err = run_cli(["simulate", path, *flags])
        assert (code, out) == (1, "")
        assert err == (
            "error: scenario 'pentagon-2' is not the built-in inequality of that name; give its model with --model\n"
        )


def test_simulate_with_model_file(tmp_path):
    from pentabell.quantum import known_optimal_model, save_model

    path = tmp_path / "m.json"
    save_model(known_optimal_model("pentagon-2"), path)
    code, out, _ = run_cli(
        ["simulate", "pentagon-2", "--model", str(path), "--seed", "7", "--shots", "2000", "--json"]
    )
    assert code == 0
    assert out == (GOLDEN_DIR / "simulate_pentagon2.json").read_text()


@pytest.mark.parametrize(
    "defect,message",
    [
        ("nan-state", "state has non-finite entries"),
        ("nan-projector", "alice projector 0 has non-finite entries"),
        ("no-alice-settings", "setting pairs do not cover event 00|00"),
    ],
)
def test_simulate_rejects_bad_model_files(tmp_path, defect, message):
    from pentabell.quantum import known_optimal_model, model_to_json

    data = model_to_json(known_optimal_model("pentagon-2"))
    if defect == "nan-state":
        data["state"] = [float("nan")] * len(data["state"])
    elif defect == "nan-projector":
        data["alice"][0] = {"setting": 0, "matrix": [[float("nan")] * 2] * 2}
    else:
        data["alice"] = []
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))  # json writes the non-standard NaN literal
    code, out, err = run_cli(["simulate", "pentagon-2", "--model", str(path), "--shots", "100"])
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("alice_settings", [1, 0], ids=["alice-setting-0", "no-alice-settings"])
def test_simulate_checks_coverage_before_sampling(tmp_path, monkeypatch, alice_settings):
    from pentabell import simkit
    from pentabell.quantum import known_optimal_model, model_to_json

    data = model_to_json(known_optimal_model("pentagon-1"))
    data["alice"] = data["alice"][:alice_settings]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    streams = []
    monkeypatch.setattr(simkit, "_threshold_counts", lambda seeds, *args: streams.append(len(seeds)))
    results = [
        run_cli(["simulate", "pentagon-1", "--model", str(path), "--shots", shots]) for shots in ("10", "10000000")
    ]
    code, out, err = results[0]
    assert code == 1 and out == ""
    assert err.startswith("error: setting pairs do not cover event ") and err.count("\n") == 1
    assert results[1] == results[0]
    assert streams == []


def test_simulate_reproducible_byte_identically():
    argv = ["simulate", "pentagon-3", "--seed", "42", "--shots", "1000"]
    _, out1, _ = run_cli(argv)
    _, out2, _ = run_cli(argv)
    assert out1 == out2


def test_env_seed_is_default(monkeypatch):
    monkeypatch.setenv("PENTABELL_SEED", "7")
    _, out_env, _ = run_cli(["simulate", "pentagon-2", "--shots", "2000", "--json"])
    assert out_env == (GOLDEN_DIR / "simulate_pentagon2.json").read_text()


def test_invalid_inputs_exit_one(tmp_path, monkeypatch):
    code, _, err = run_cli(["alpha", "no-such-thing"])
    assert code == 1 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["alpha", str(bad)])
    assert code == 1
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"n": 3, "edges": [[0, 0]]}')
    code, _, err = run_cli(["alpha", str(malformed)])
    assert code == 1
    code, _, err = run_cli(["qmax", "pentagon-1", "--dims", "9"])
    assert code == 1
    for dims in ("0,2", "2,x"):
        code, _, err = run_cli(["qmax", "pentagon-2", "--dims", dims])
        assert code == 1 and err.startswith("error: ")
    code, _, err = run_cli(["qmax", "pentagon-2", "--seed", "-1"])
    assert code == 1 and err == "error: seed must be >= 0\n"
    monkeypatch.setenv("PENTABELL_SEED", "-3")
    code, _, err = run_cli(["qmax", "pentagon-2"])
    assert code == 1 and err == "error: seed must be >= 0\n"
    monkeypatch.setenv("PENTABELL_SEED", "seven")
    for argv in (["qmax", "pentagon-2"], ["simulate", "pentagon-2"]):
        assert run_cli(argv) == (1, "", "error: PENTABELL_SEED='seven' is not an integer\n")


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_simulate_seed_outside_64_bits_exits_one(monkeypatch, seed):
    message = f"error: seed must lie in [0, 2^64), not {seed}\n"
    code, out, err = run_cli(["simulate", "pentagon-2", "--shots", "100", "--seed", str(seed)])
    assert (code, out, err) == (1, "", message)
    monkeypatch.setenv("PENTABELL_SEED", str(seed))
    code, out, err = run_cli(["simulate", "pentagon-2", "--shots", "100"])
    assert (code, out, err) == (1, "", message)


PARTY = [{"setting": 0, "vector": [1, 0]}, {"setting": 1, "vector": [1, 1]}]


def scenario_doc(alice=(0, 0), **changes):
    terms = [{"alice": list(alice), "bob": [0, 0]}, {"alice": [1, 1], "bob": [1, 0]}]
    return json.dumps({"alice_settings": 2, "terms": terms, **changes})


def graph_doc(**changes):
    return json.dumps({"n": 3, "edges": [[0, 1]], **changes})


def model_doc(**changes):
    return json.dumps({"dims": [2, 2], "state": [1, 0, 0, 0], "alice": PARTY, "bob": PARTY, **changes})


MALFORMED_FILES = {
    "scenario-setting-string": ("lhv", scenario_doc(alice=("x", 0))),
    "scenario-settings-string": ("lhv", scenario_doc(alice_settings="3")),
    "scenario-settings-float": ("lhv", scenario_doc(alice_settings=3.7)),
    "scenario-settings-five-lhv": ("lhv", scenario_doc(alice_settings=5)),
    "scenario-settings-five-qmax": ("qmax", scenario_doc(alice_settings=5)),
    "scenario-settings-below-terms": ("lhv", scenario_doc(alice_settings=1)),
    "scenario-terms-string": ("lhv", scenario_doc(terms="abc")),
    "scenario-term-number": ("lhv", scenario_doc(terms=[1])),
    "scenario-party-bools": ("lhv", scenario_doc(alice=(True, False))),
    "scenario-party-float": ("lhv", scenario_doc(alice=(0.9, 0))),
    "scenario-party-triple": ("lhv", scenario_doc(alice=(0, 0, 5))),
    "scenario-name-null": ("lhv", scenario_doc(name=None)),
    "graph-n-float": ("alpha", graph_doc(n=2.5)),
    "graph-n-bool": ("alpha", graph_doc(n=True, edges=[])),
    "graph-edge-float": ("alpha", graph_doc(edges=[[0, 1.9]])),
    "graph-edge-triple": ("alpha", graph_doc(edges=[[0, 1, 2]])),
    "graph-edges-number": ("alpha", graph_doc(edges=5)),
    "model-dims-float": ("simulate", model_doc(dims=[2.9, 2])),
    "model-setting-float": ("simulate", model_doc(alice=[{"setting": 0.5, "vector": [1, 0]}, PARTY[1]])),
    "model-setting-repeated": ("simulate", model_doc(alice=[{"setting": 0, "vector": [0, 1]}, *PARTY])),
    "model-dims-negative": ("simulate", model_doc(dims=[-2, -2], state=[0.5] * 4, alice=[], bob=[])),
    "model-vector-overflow": ("simulate", model_doc(alice=[{"setting": 0, "vector": [1e308, 1e308]}, PARTY[1]])),
    "model-state-string": ("simulate", model_doc(state=["1", 0, 0, 0])),
    "model-state-bool": ("simulate", model_doc(state=[True, 0, 0, 0])),
    "model-state-huge-int": ("simulate", model_doc(state=[10**400, 0, 0, 0])),
    "model-vector-strings": ("simulate", model_doc(alice=[{"setting": 0, "vector": ["1", "0"]}, PARTY[1]])),
    "model-matrix-string-and-bool": (
        "simulate",
        model_doc(alice=[{"setting": 0, "matrix": [["1", 0], [0, False]]}, PARTY[1]]),
    ),
    "not-utf8": ("alpha", '{"n": 1, "edges": [], "name": "\xff"}'),  # byte 0xff in latin-1
}
VALID_FILES = {"scenario": ("lhv", scenario_doc()), "graph": ("alpha", graph_doc()), "model": ("simulate", model_doc())}


def run_on_file(tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_bytes(text.encode("latin-1"))
    argv = [command, str(path)] if command != "simulate" else [command, "pentagon-1", "--model", str(path)]
    return run_cli(argv)


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_files_exit_one_with_one_error_line(tmp_path, case):
    code, out, err = run_on_file(tmp_path, *MALFORMED_FILES[case])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("case", sorted(VALID_FILES))
def test_malformed_file_templates_are_valid(tmp_path, case):
    code, _, err = run_on_file(tmp_path, *VALID_FILES[case])
    assert code == 0 and err == ""


def test_capacity_errors_exit_two(tmp_path):
    path = tmp_path / "big.json"
    save_json({"n": 33, "edges": []}, path)
    code, _, err = run_cli(["alpha", str(path)])
    assert code == 2 and "error" in err


def test_enumerate_text_output():
    code, out, _ = run_cli(["enumerate"])
    assert code == 0
    assert "BBABA" in out
    assert "pentagonal inequality classes: 3" in out


def load_theta_iterations():
    tool = Path(__file__).resolve().parents[1] / "tools" / "theta_iterations.py"
    spec = importlib.util.spec_from_file_location("theta_iterations", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_printed_theta_bounds_are_rounded_outward(tmp_path, monkeypatch):
    # every bound `theta` prints, in text and JSON, read exactly: lower bounds
    # at most the replayed lower bound (and the solver's value), upper bounds
    # at least the replayed upper bound, gaps at least the certified gap
    tool = load_theta_iterations()
    cases = [(name, name, scenarios.named_graph(name)) for name in scenarios.SCENARIO_NAMES]
    for k, (label, g) in enumerate(tool.fixed_family() + tool.random84()[:20]):
        path = tmp_path / f"{k}.json"
        save_json({"n": g.n, "edges": sorted(g.edges)}, path)
        cases.append((label, str(path), g))
    solved = {}
    solve = theta.lovasz_theta
    monkeypatch.setattr(theta, "lovasz_theta", lambda g, tol: solved.setdefault(g, solve(g, tol)))
    violations = []
    for label, ref, g in cases:
        code, text, _ = run_cli(["theta", ref])
        code_json, out, _ = run_cli(["theta", ref, "--json"])
        assert code == code_json == 0
        result = solved[g]
        lower, upper, ok = theta.replay(g, result, 1e-7)
        assert ok, label
        printed = re.fullmatch(
            r"theta = (\S+)\ngap <= (\S+)\niterations = \d+\n"
            r"certificate replay = (\S+) <= theta <= (\S+) \(ok\)\n",
            text,
        )
        value, gap, replay_lower, replay_upper = map(Fraction, printed.groups())
        payload = json.loads(out, parse_float=Fraction)
        floor = min(Fraction(lower), Fraction(result.value))
        checks = {
            "theta": value <= floor,
            "gap": Fraction(result.gap) <= gap and (gap > 0 or result.gap == 0),
            "replay lower": replay_lower <= floor,
            "replay upper": replay_upper >= Fraction(upper),
            "json theta": payload["theta"] <= floor,
            "json gap": Fraction(result.gap) <= payload["gap"] and (payload["gap"] > 0 or result.gap == 0),
        }
        violations += [(label, key) for key, holds in checks.items() if not holds]
    assert len(cases) == 49
    assert violations == []


@pytest.mark.parametrize("name", ["pentagon-1", "pentagon-2"])
def test_printed_qmax_bounds_are_rounded_outward(name):
    # the value the model replays to bounds the quantum maximum from below,
    # theta from above
    iq = scenarios.named_inequality(name)
    _, model = quantum.qmax_seesaw(iq, dims=(2, 2), restarts=4, seed=0)
    value = scenarios.evaluate(iq, quantum.behavior_of(model))
    g, _ = scenarios.exclusivity_graph(iq)
    upper = theta.replay(g, theta.lovasz_theta(g), 1e-7)[1]
    code, out, _ = run_cli(["qmax", name, "--restarts", "4", "--seed", "0", "--json"])
    assert code == 0
    payload = json.loads(out, parse_float=Fraction)
    assert value - 1e-6 < payload["value"] <= Fraction(value)
    assert Fraction(upper) <= payload["theta"] < upper + 1e-6


def test_printed_qmax_value_never_exceeds_its_model_replay(tmp_path, monkeypatch):
    # the see-saw's top eigenvalue exceeds what its model replays to by a
    # few ulps on some of these runs; the printed value is the replay
    # rounded down, so it is rounded from exactly that float, and the
    # model file written with it replays to that float too
    rounded_down = []
    outward = cli._outward

    def recording(x, up, places=6):
        if not up:
            rounded_down.append(x)
        return outward(x, up, places)

    monkeypatch.setattr(cli, "_outward", recording)
    violations = []
    for name in ("pentagon-1", "pentagon-2", "pentagon-3", "chsh-prob", "i3322"):
        iq = scenarios.named_inequality(name)
        for dims in ((2, 2), (3, 3), (4, 4)):
            for seed in (0, 1, 7):
                _, model = quantum.qmax_seesaw(iq, dims=dims, restarts=32, seed=seed)
                replay = scenarios.evaluate(iq, quantum.behavior_of(model))
                rounded_down.clear()
                path = tmp_path / "model.json"
                argv = ["qmax", name, "--dims", "%d,%d" % dims, "--seed", str(seed), "--json", "--model-out", str(path)]
                code, out, _ = run_cli(argv)
                assert code == 0
                printed = json.loads(out, parse_float=Fraction)["value"]
                saved = scenarios.evaluate(iq, quantum.behavior_of(quantum.load_model(path)))
                if set(rounded_down) != {replay} or not Fraction(replay) - Fraction(1, 10**6) < printed <= replay:
                    violations.append((name, dims, seed, printed, replay))
                if saved != replay:
                    violations.append((name, dims, seed, "model file", saved, replay))
    assert violations == []


def test_qmax_compares_its_printed_bounds_without_slack(tmp_path, monkeypatch):
    # terms 00|00 and 11|00: the exclusivity graph is K2, theta = alpha = 1.
    # A model's replay can exceed theta's replayed upper bound 1.0 by a few
    # ulps; its printed lower bound does not exceed the printed upper bound
    path = str(tmp_path / "k2.json")
    terms = [{"alice": [0, 0], "bob": [0, 0]}, {"alice": [0, 1], "bob": [0, 1]}]
    save_json({"name": "k2", "alice_settings": 1, "bob_settings": 1, "terms": terms}, path)
    code, out, _ = run_cli(["qmax", path, "--dims", "3,3", "--restarts", "4", "--seed", "0"])
    assert code == 0
    assert out.splitlines()[1:] == ["lovasz theta of exclusivity graph = 1.000000", "value <= theta: yes"]
    monkeypatch.setattr(scenarios, "evaluate", lambda iq, behavior: 1.0 + 9 * 2.0**-52)
    code, out, _ = run_cli(["qmax", path, "--restarts", "4", "--seed", "0"])
    assert code == 0
    assert out.splitlines() == [
        "quantum value = 1.000000",
        "lovasz theta of exclusivity graph = 1.000000",
        "value <= theta: yes",
    ]


def test_qmax_says_no_when_the_value_exceeds_thetas_upper_bound(monkeypatch):
    # a model replaying above theta's certified upper bound sqrt 5 on C5
    monkeypatch.setattr(scenarios, "evaluate", lambda iq, behavior: 2.25)
    code, out, _ = run_cli(["qmax", "pentagon-2", "--restarts", "4", "--seed", "0"])
    assert code == 0
    assert out.splitlines() == [
        "quantum value = 2.250000",
        "lovasz theta of exclusivity graph = 2.236068",
        "value <= theta: NO",
    ]


def test_qmax_exits_two_when_thetas_certificate_does_not_replay(monkeypatch):
    # a C5 dual B = I is not 1 on the non-edges, so it certifies no bound
    honest = theta.lovasz_theta(cycle(5))
    fake = theta.ThetaResult(honest.value, honest.primal, np.eye(5), 1, 0.0)
    monkeypatch.setattr(theta, "lovasz_theta", lambda g: fake)
    code, out, err = run_cli(["qmax", "pentagon-2", "--restarts", "4", "--seed", "0"])
    assert (code, out) == (2, "")
    assert err == "error: theta's certificate for the exclusivity graph does not replay\n"


def test_report_caps_the_seesaw_by_thetas_upper_bound(monkeypatch):
    # a valid but loose C5 result: X_S of the independent set {0, 2}
    # (lower bound 2) with the honest dual (upper bound sqrt 5); the
    # see-saw values of the pentagons, about 2.2, lie between the two
    c5 = cycle(5)
    honest = theta.lovasz_theta(c5)
    x = np.zeros((5, 5))
    x[np.ix_([0, 2], [0, 2])] = 0.5
    upper = theta.replay(c5, honest, 1e-7)[1]
    loose = theta.ThetaResult(2.0, x, honest.dual, 1, upper - 2.0)
    assert theta.replay(c5, loose, 1e-7) == (2.0, upper, True)
    solve = theta.lovasz_theta
    monkeypatch.setattr(theta, "lovasz_theta", lambda g: loose if g == c5 else solve(g))
    code, out, _ = run_cli(["report", "--json"])
    items = {it["name"]: it["ok"] for it in json.loads(out)["items"]}
    assert code == 1
    assert items["pentagon alpha/theta"] is False
    assert items["see-saw quantum maxima"] is True


def test_report_fails_the_seesaw_when_thetas_certificate_does_not_replay(monkeypatch):
    # the honest C5 value with a dual B = I, which certifies no bound
    c5 = cycle(5)
    honest = theta.lovasz_theta(c5)
    fake = theta.ThetaResult(honest.value, honest.primal, np.eye(5), 1, 0.0)
    solve = theta.lovasz_theta
    monkeypatch.setattr(theta, "lovasz_theta", lambda g: fake if g == c5 else solve(g))
    code, out, _ = run_cli(["report", "--json"])
    assert code == 1
    assert [it["name"] for it in json.loads(out)["items"] if not it["ok"]] == ["see-saw quantum maxima"]


def test_report_states_the_seesaw_models_replay(monkeypatch):
    # a see-saw whose top eigenvalue sits 5e-6 above what its model replays
    # to: every report item that runs the see-saw, at (2,2) and at (4,4),
    # checks and prints the replay, the bound qmax states
    seesaw = quantum.qmax_seesaw

    def above_its_replay(*args, **kwargs):
        value, model = seesaw(*args, **kwargs)
        return value + 5e-6, model

    monkeypatch.setattr(quantum, "qmax_seesaw", above_its_replay)
    code, out, _ = run_cli(["report", "--json"])
    assert code == 0
    assert out == (GOLDEN_DIR / "report.json").read_text()


def test_stalled_theta_exits_two_naming_the_reason(tmp_path):
    # at tol 1e-10 this held-out graph's best gap stops shrinking (near
    # 1e-9, how near depends on BLAS threading) long before the cap
    g = dict(load_theta_iterations().held_out())["704 G(27,0.7)"]
    path = tmp_path / "g704.json"
    save_json({"n": g.n, "edges": sorted(g.edges)}, path)
    code, out, err = run_cli(["theta", str(path), "--tol", "1e-10"])
    assert code == 2 and out == ""
    printed = re.fullmatch(
        r"error: theta solver stopped \(stalled\) after (\d+) iterations, short of gap 1e-10; "
        r"best certified gap (\S+) \((\S+) <= theta <= (\S+)\)\n",
        err,
    )
    iterations, gap, lower, upper = int(printed[1]), *map(Fraction, printed.groups()[1:])
    with pytest.raises(ConvergenceError) as info:
        theta.lovasz_theta(g, 1e-10)
    best = info.value.result
    replayed_lower, replayed_upper, _ = theta.replay(g, best, 1e-10)
    assert iterations == best.iterations < theta.MAX_ITERATIONS
    assert gap >= Fraction(best.gap) > Fraction(1e-10)
    assert lower <= min(Fraction(best.value), Fraction(replayed_lower)) and upper >= Fraction(replayed_upper)
