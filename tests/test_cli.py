import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from pentabell import quantum, theta
from pentabell.cli import main
from pentabell.graphs import circulant, complete_graph, cycle, empty_graph, save_graph

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


def test_report_reduces_blocks_once_per_alice_dimension(monkeypatch):
    alice_dims = []
    reduce = quantum.block_reductions

    def counting(p1, *args):
        alice_dims.append(np.shape(p1)[-1])
        return reduce(p1, *args)

    def per_instance(*args):
        raise AssertionError("report reduced one instance at a time")

    monkeypatch.setattr(quantum, "block_reductions", counting)
    monkeypatch.setattr(quantum, "block_reduce", per_instance)
    code, _, _ = run_cli(["report", "--json"])
    assert code == 0
    # the report draws Alice dimensions 2-6
    assert sorted(alice_dims) == [2, 3, 4, 5, 6]


def test_alpha_on_graph_files(tmp_path):
    cases = [
        (cycle(5), 2),
        (complete_graph(5), 1),
        (circulant(8, {1, 4}), 3),
        (empty_graph(6), 6),
    ]
    for k, (g, expected) in enumerate(cases):
        path = tmp_path / f"graph{k}.json"
        save_graph(g, path)
        code, out, _ = run_cli(["alpha", str(path), "--json"])
        assert code == 0
        assert json.loads(out)["alpha"] == expected


def test_theta_on_graph_files(tmp_path):
    path = tmp_path / "ci8.json"
    save_graph(circulant(8, {1, 4}), path)
    code, out, _ = run_cli(["theta", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["theta"] == pytest.approx(3.414214, abs=1e-6)
    path6 = tmp_path / "empty6.json"
    save_graph(empty_graph(6), path6)
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
    assert out.splitlines()[-1] == "certificate replay = 2.236068 <= theta <= 2.236068 (ok)"


def test_theta_convergence_error_exits_two_with_best_gap(monkeypatch):
    monkeypatch.setattr(theta, "MAX_ITERATIONS", 2)
    code, out, err = run_cli(["theta", "kcbs-graph", "--json"])
    assert code == 2
    assert out == ""
    # the bounds are checked after every iteration, so two iterations
    # already tighten alpha = 2 and n = 5
    assert err.startswith("error: theta solver did not reach gap 1e-07 in 2 iterations;")
    assert "best certified gap 1.059e-02 (2.2268406832 <= theta <= 2.2374285490)" in err


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
    assert payload["value"] == pytest.approx(2.207107, abs=1e-6)
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
    save_graph(empty_graph(33), path)
    code, _, err = run_cli(["alpha", str(path)])
    assert code == 2 and "error" in err


def test_enumerate_text_output():
    code, out, _ = run_cli(["enumerate"])
    assert code == 0
    assert "BBABA" in out
    assert "pentagonal inequality classes: 3" in out
