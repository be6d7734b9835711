import itertools
import math

import numpy as np
import pytest

from pentabell.errors import CapacityError, InvalidInputError
from pentabell.graphs import cycle
from pentabell.quantum import (
    QuantumModel,
    _bell_matrix,
    _positive_eigenspace_projector,
    _seesaw,
    _stack,
    behavior_of,
    bell_operator,
    block_reduce,
    block_reductions,
    kcbs_model,
    kcbs_vectors,
    known_optimal_model,
    load_model,
    model_from_json,
    model_to_json,
    projector_onto,
    qmax_scan_ineq2,
    qmax_seesaw,
    qubit_projector,
    save_model,
    schmidt,
    two_projector_operator,
)
from pentabell.scenarios import (
    Event,
    Inequality,
    eprinciple_check,
    evaluate,
    exclusivity_graph,
    named_inequality,
    term_cells,
)
from pentabell.theta import lovasz_theta

PENT_Q = (3 + math.sqrt(2)) / 2
IDEAL_COLUMN_1 = (0.464, 0.464, 0.323, 0.464, 0.464)


def random_sym(n, rng):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


def random_projector(d, rng):
    rank = int(rng.integers(1, d + 1))
    q = np.linalg.qr(rng.standard_normal((d, d)))[0][:, :rank]
    return q @ q.T


def coefficients(iq, n_a, n_b):
    """W[x, y, a, b]: the terms' cells summed over every setting pair."""
    return term_cells(iq.terms, frozenset(itertools.product(range(n_a), range(n_b)))).sum(axis=0)


def effect(projs, setting, outcome, d):
    return projs[setting] if outcome == 0 else np.eye(d) - projs[setting]


def kron_bell_matrix(iq, alice, bob, dims):
    """Reference: one np.kron per (x, a) of E_a^x with the sum over (y, b)
    of W[x, y, a, b] F_b^y, summed in (x, a) order."""
    d_a, d_b = dims
    w = coefficients(iq, len(alice), len(bob))
    s = np.zeros((d_a * d_b, d_a * d_b))
    for x, a in itertools.product(range(len(alice)), range(2)):
        partner = sum(w[x, y, a, b] * effect(bob, y, b, d_b) for y in range(len(bob)) for b in range(2))
        s += np.kron(effect(alice, x, a, d_a), partner)
    return (s + s.T) / 2.0


def kron_bell_matrix_by_events(iq, alice, bob, dims):
    """Reference in the event representation: one np.kron per term, summed
    in term order, with the identity for a wildcard party."""
    d_a, d_b = dims
    s = np.zeros((d_a * d_b, d_a * d_b))
    for term in iq.terms:
        op_a = np.eye(d_a) if term.alice is None else effect(alice, *term.alice, d_a)
        op_b = np.eye(d_b) if term.bob is None else effect(bob, *term.bob, d_b)
        s += np.kron(op_a, op_b)
    return (s + s.T) / 2.0


def sequential_seesaw(iq, dims, rng):
    """Reference: one see-saw run on single matrices.  Each step appends the
    Bell operator's top eigenvalue to the trace and stops if it failed to
    grow by 1e-12; otherwise it updates Alice's settings, then Bob's.  Each
    setting's effective operator is summed cell by cell: the coefficient
    W[x, y, 0, b] - W[x, y, 1, b] times psi F_b^y psi^T for Alice, and the
    mirror for Bob.  Returns (value, state, alice, bob, trace) at the step
    that stopped."""
    d_a, d_b = dims
    n_a, n_b = iq.alice_settings, iq.bob_settings
    w = coefficients(iq, n_a, n_b)
    alice = [projector_onto(rng.standard_normal(d_a)) for _ in range(n_a)]
    bob = [projector_onto(rng.standard_normal(d_b)) for _ in range(n_b)]

    def positive_projector(f):
        w, v = np.linalg.eigh((f + f.T) / 2.0)
        keep = v[:, w > 1e-11 * max(1.0, float(np.abs(w).max()))]
        return keep @ keep.T

    trace = []
    for _ in range(10_000):
        w_val, v = np.linalg.eigh(kron_bell_matrix(iq, alice, bob, dims))
        trace.append(float(w_val[-1]))
        if len(trace) > 1 and trace[-1] - trace[-2] < 1e-12:
            break
        psi = v[:, -1].reshape(d_a, d_b)
        for x in range(n_a):
            f = np.zeros((d_a, d_a))
            for y, b in itertools.product(range(n_b), range(2)):
                f += (w[x, y, 0, b] - w[x, y, 1, b]) * (psi @ effect(bob, y, b, d_b) @ psi.T)
            alice[x] = positive_projector(f)
        for y in range(n_b):
            f = np.zeros((d_b, d_b))
            for x, a in itertools.product(range(n_a), range(2)):
                f += (w[x, y, a, 0] - w[x, y, a, 1]) * (psi.T @ effect(alice, x, a, d_a) @ psi)
            bob[y] = positive_projector(f)
    return trace[-1], v[:, -1], alice, bob, trace


class FixedStart:
    """Stand-in generator whose every draw repeats one vector."""

    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=float)

    def standard_normal(self, n):
        return np.resize(self.vector, n)


# ---------------------------------------------------------------- validation ---


def test_model_validation():
    with pytest.raises(InvalidInputError):
        QuantumModel((2, 2), np.array([1.0, 0, 0, 0.1]), (np.eye(2),), (np.eye(2),))
    not_projector = np.array([[0.5, 0.0], [0.0, 0.8]])
    with pytest.raises(InvalidInputError):
        QuantumModel((2, 2), np.array([1.0, 0, 0, 0]), (not_projector,), (np.eye(2),))
    with pytest.raises(InvalidInputError, match="state has non-finite entries"):
        QuantumModel((2, 2), np.full(4, np.nan), (np.eye(2),), (np.eye(2),))
    nan_projector = np.full((2, 2), np.nan)
    with pytest.raises(InvalidInputError, match="alice projector 0 has non-finite entries"):
        QuantumModel((2, 2), np.array([1.0, 0, 0, 0]), (nan_projector,), (np.eye(2),))
    with pytest.raises(InvalidInputError, match="bob projector 1 has non-finite entries"):
        QuantumModel((2, 2), np.array([1.0, 0, 0, 0]), (np.eye(2),), (np.eye(2), nan_projector))


# --------------------------------------------------------------- behavior_of ---


def test_behavior_of_product_state():
    m = QuantumModel(
        (2, 2),
        np.array([1.0, 0.0, 0.0, 0.0]),
        (projector_onto((1.0, 0.0)),),
        (projector_onto((1.0, 0.0)),),
    )
    assert behavior_of(m).prob(Event.parse("00|00")) == pytest.approx(1.0)


def loop_behavior_tables(model):
    """Reference: each P(ab|xy) as sum(psi * (E psi F)), one entry at a time."""
    d_a, d_b = model.dims
    psi = model.state.reshape(d_a, d_b)
    tables = {}
    for x, p in enumerate(model.alice):
        for y, q in enumerate(model.bob):
            block = np.zeros((2, 2))
            for a, ea in enumerate((p, np.eye(d_a) - p)):
                for b, eb in enumerate((q, np.eye(d_b) - q)):
                    block[a, b] = float(np.sum(psi * (ea @ psi @ eb)))
            tables[(x, y)] = block
    return tables


def test_behavior_of_matches_entrywise_reference():
    rng = np.random.default_rng(5)
    for _ in range(40):
        dims = tuple(int(d) for d in rng.integers(2, 5, size=2))
        state = rng.standard_normal(dims[0] * dims[1])
        model = QuantumModel(
            dims,
            state / np.linalg.norm(state),
            tuple(random_projector(dims[0], rng) for _ in range(int(rng.integers(1, 4)))),
            tuple(random_projector(dims[1], rng) for _ in range(int(rng.integers(1, 4)))),
        )
        beh = behavior_of(model)
        for (x, y), block in loop_behavior_tables(model).items():
            assert np.max(np.abs(beh.table(x, y) - block)) <= 1e-15


def test_behavior_of_pentagon1_matches_ideal_column():
    beh = behavior_of(known_optimal_model("pentagon-1"))
    probs = [beh.prob(t) for t in named_inequality("pentagon-1").terms]
    assert probs == pytest.approx(IDEAL_COLUMN_1, abs=5e-4)


def test_behavior_of_pentagon2_probabilities():
    beh = behavior_of(known_optimal_model("pentagon-2"))
    iq = named_inequality("pentagon-2")
    c2_over_2 = math.cos(math.pi / 8) ** 2 / 2
    for t in iq.terms[:4]:
        assert beh.prob(t) == pytest.approx(c2_over_2, abs=1e-12)
    assert beh.prob(iq.terms[4]) == pytest.approx(0.5, abs=1e-12)


# ------------------------------------------------------------- bell operator ---


def test_bell_operator_single_term():
    iq = Inequality((Event.parse("00|00"),))
    m = QuantumModel(
        (2, 2),
        np.array([1.0, 0.0, 0.0, 0.0]),
        (projector_onto((1.0, 0.0)),),
        (projector_onto((1.0, 0.0)),),
    )
    eigs = np.linalg.eigvalsh(bell_operator(iq, m))
    assert np.allclose(sorted(eigs), [0, 0, 0, 1], atol=1e-12)


def test_bell_operator_pentagon2_max_eig():
    s = bell_operator(named_inequality("pentagon-2"), known_optimal_model("pentagon-2"))
    assert np.linalg.eigvalsh(s)[-1] == pytest.approx(PENT_Q, abs=1e-9)


def test_bell_operator_chsh_prob_max_eig():
    # CHSH-optimal observables as outcome-0 projectors at half the Bloch angle
    alice = (qubit_projector(0.0), qubit_projector(math.pi / 4))
    bob = (qubit_projector(math.pi / 8), qubit_projector(-math.pi / 8))
    m = QuantumModel((2, 2), np.array([1.0, 0, 0, 0]), alice, bob)
    s = bell_operator(named_inequality("chsh-prob"), m)
    assert np.linalg.eigvalsh(s)[-1] == pytest.approx(2 + math.sqrt(2), abs=1e-9)


def test_bell_operator_missing_measurement():
    iq = named_inequality("pentagon-3")  # needs three Alice settings
    with pytest.raises(InvalidInputError, match=r"setting pairs do not cover event 11\|20"):
        bell_operator(iq, known_optimal_model("pentagon-2"))


def test_bell_operator_reads_the_models_settings():
    # a declared but unused third Alice setting needs no measurement
    iq = Inequality(named_inequality("pentagon-2").terms, alice_settings=3)
    s = bell_operator(iq, known_optimal_model("pentagon-2"))
    assert np.linalg.eigvalsh(s)[-1] == pytest.approx(PENT_Q, abs=1e-9)


def test_expectation_identity():
    # <psi|S|psi> equals the evaluated behavior for any model
    rng = np.random.default_rng(3)
    iq = named_inequality("pentagon-1")
    for _ in range(5):
        _, model, _ = _seesaw(iq, (2, 2), [rng])
        s = bell_operator(iq, model)
        lhs = float(model.state @ s @ model.state)
        rhs = evaluate(iq, behavior_of(model))
        assert abs(lhs - rhs) <= 1e-10


# ----------------------------------------------------------------- see-saw ---


@pytest.mark.parametrize(
    "name,target,tol",
    [
        pytest.param("pentagon-1", None, 1e-6, id="pentagon-1-scan-1e-06"),  # None: the scan's optimum
        ("pentagon-2", PENT_Q, 1e-6),
        ("pentagon-3", PENT_Q, 1e-6),
        ("chsh-prob", 2 + math.sqrt(2), 1e-6),
    ],
)
def test_seesaw_reaches_known_maxima(name, target, tol):
    iq = named_inequality(name)
    value, model = qmax_seesaw(iq, dims=(2, 2), restarts=32, seed=0)
    if target is None:
        target = qmax_scan_ineq2().value
    assert value == pytest.approx(target, abs=tol)
    theta_value = lovasz_theta(exclusivity_graph(iq)[0]).value
    assert value <= theta_value + 1e-6
    assert evaluate(iq, behavior_of(model)) == pytest.approx(value, abs=1e-9)


def test_seesaw_monotone_along_iterations():
    iq = named_inequality("pentagon-1")
    for seed in range(5):
        _, _, (trace,) = _seesaw(iq, (2, 2), [np.random.default_rng(seed)])
        assert all(b >= a - 1e-10 for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4)])
@pytest.mark.parametrize("name", ["pentagon-1", "pentagon-2", "pentagon-3", "chsh-prob", "i3322"])
def test_batched_seesaw_matches_sequential_reference(name, dims):
    iq = named_inequality(name)
    for seed in (0, 1, 7):
        value, model = qmax_seesaw(iq, dims=dims, restarts=32, seed=seed)
        runs = [sequential_seesaw(iq, dims, np.random.default_rng(seed + r)) for r in range(32)]
        # the first run within 1e-12 of the best, the rule qmax_seesaw keeps
        values = np.array([run[0] for run in runs])
        best = runs[int(np.argmax(values >= values.max() - 1e-12))]
        assert abs(value - best[0]) <= 1e-12
        assert np.max(np.abs(model.state - best[1])) <= 1e-12
        for got, want in zip(model.alice + model.bob, best[2] + best[3]):
            assert np.max(np.abs(got - want)) <= 1e-12


def test_positive_eigenspace_cut_is_per_matrix():
    # 1e-9 is above the second matrix's own cut (1e-11) but below the
    # first's (1e-8), so it is kept only under a per-matrix cut
    f = np.array([np.diag([1e3, -1e3]), np.diag([1e-9, -1.0])])
    stacked = _positive_eigenspace_projector(f)
    assert np.array_equal(stacked[1], np.diag([1.0, 0.0]))
    for i in range(2):
        assert np.array_equal(stacked[i], _positive_eigenspace_projector(f[i]))
    # the cut is 1e-11 * max(1, max|w|) whichever end of the spectrum holds
    # max|w|: an eigenvalue exactly at it is cut and the next double kept,
    # for mixed, all-positive and all-negative spectra, alone or stacked
    # with a matrix of a larger cut
    for spectrum in ([-1e3, 5.0], [-0.5, 0.25], [2e3, 7.0], [0.5, 0.25], [-1e3, -7.0], [-0.5, -0.25]):
        cut = 1e-11 * max(1.0, max(abs(w) for w in spectrum))
        f = np.diag([*spectrum, cut, np.nextafter(cut, np.inf)])
        expected = np.diag([float(w > 0.0) for w in spectrum] + [0.0, 1.0])
        assert np.array_equal(_positive_eigenspace_projector(f), expected)
        stacked = _positive_eigenspace_projector(np.array([f, np.diag([-1e6, 0.0, 0.0, 1.0])]))
        assert np.array_equal(stacked[0], expected)
    assert not _positive_eigenspace_projector(np.diag([-1e3, -1e-12])).any()


def same_measurements(m1, m2):
    return all(np.array_equal(a, b) for a, b in zip(m1.alice + m1.bob, m2.alice + m2.bob))


def test_seesaw_ties_keep_the_lowest_restart():
    iq = named_inequality("pentagon-1")
    # both starts are deterministic strategies that stay at the value 2
    low, high = FixedStart([1.0, 0.0]), FixedStart([0.0, 1.0])
    v_low, m_low, _ = _seesaw(iq, (2, 2), [low])
    v_high, m_high, _ = _seesaw(iq, (2, 2), [high])
    assert v_low == v_high == 2.0
    assert not same_measurements(m_low, m_high)
    assert same_measurements(_seesaw(iq, (2, 2), [low, high])[1], m_low)
    assert same_measurements(_seesaw(iq, (2, 2), [high, low])[1], m_high)


def test_seesaw_near_ties_keep_the_lowest_restart():
    # every restart of pentagon-1 at seed 0 ends within 5e-15 of the others,
    # so the winner is restart 0, not whichever one rounding favours
    iq = named_inequality("pentagon-1")
    value, model = qmax_seesaw(iq, dims=(2, 2), restarts=32, seed=0)
    first_value, first_model, _ = _seesaw(iq, (2, 2), [np.random.default_rng(0)])
    assert abs(value - first_value) <= 1e-12
    assert np.array_equal(model.state, first_model.state)
    assert same_measurements(model, first_model)


@pytest.mark.parametrize("name", ["pentagon-1", "pentagon-3", "i3322"])
def test_every_restart_trace_is_monotone(name):
    iq = named_inequality(name)
    _, _, traces = _seesaw(iq, (3, 3), [np.random.default_rng(r) for r in range(16)])
    assert len(traces) == 16
    for trace in traces:
        assert trace and all(b >= a - 1e-10 for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("name", ["pentagon-1", "i3322"])
def test_seesaw_stops_at_its_first_stalled_step(monkeypatch, name):
    import pentabell.quantum as quantum

    # stack rows per call: Bell operators built, and measurement updates,
    # which alternate Alice's and Bob's
    built, updates = [], []
    bell_matrix, update = quantum._effect_bell_matrix, quantum._positive_eigenspace_projector

    def counted_bell_matrix(rows, alice, bob):
        out = bell_matrix(rows, alice, bob)
        built.append(len(out))
        return out

    def counted_update(f):
        out = update(f)
        updates.append(len(out))
        return out

    monkeypatch.setattr(quantum, "_effect_bell_matrix", counted_bell_matrix)
    monkeypatch.setattr(quantum, "_positive_eigenspace_projector", counted_update)
    iq = named_inequality(name)
    value, model, traces = _seesaw(iq, (3, 3), [np.random.default_rng(r) for r in range(16)])
    steps = sum(len(trace) for trace in traces)
    assert sum(built) == steps
    assert sum(updates[0::2]) == sum(updates[1::2]) == steps - len(traces)
    for trace in traces:
        assert all(b - a >= 1e-12 for a, b in zip(trace[:-2], trace[1:-1]))
        assert trace[-1] - trace[-2] < 1e-12
    # the value is the winner's last step, and the model gives it
    finals = np.array([trace[-1] for trace in traces])
    assert value == finals[int(np.argmax(finals >= finals.max() - 1e-12))]
    s = bell_operator(iq, model)
    assert abs(np.linalg.eigvalsh(s)[-1] - value) <= 1e-12
    assert abs(model.state @ s @ model.state - value) <= 1e-12


def test_restart_blocks_do_not_change_the_result(monkeypatch):
    import pentabell.quantum as quantum

    iq = named_inequality("pentagon-1")
    value, model = qmax_seesaw(iq, dims=(3, 3), restarts=8, seed=2)
    monkeypatch.setattr(quantum, "_RESTART_BLOCK", 3)
    blocked_value, blocked_model = qmax_seesaw(iq, dims=(3, 3), restarts=8, seed=2)
    assert blocked_value == value
    assert np.array_equal(blocked_model.state, model.state)
    assert same_measurements(blocked_model, model)


def test_single_restart_is_one_seesaw_run():
    iq = named_inequality("pentagon-2")
    for seed in (0, 3):
        value, model = qmax_seesaw(iq, dims=(3, 3), restarts=1, seed=seed)
        once_value, once_model, _ = _seesaw(iq, (3, 3), [np.random.default_rng(seed)])
        assert value == once_value
        assert np.array_equal(model.state, once_model.state)
        assert same_measurements(model, once_model)


@pytest.mark.parametrize("dims", [(3, 3), (4, 4)])
def test_seesaw_dimension_stability(dims):
    # larger local dimensions do not improve the pentagonal optima
    for name in ("pentagon-1", "pentagon-2", "pentagon-3"):
        iq = named_inequality(name)
        v22, _ = qmax_seesaw(iq, dims=(2, 2), restarts=8, seed=1)
        vdd, _ = qmax_seesaw(iq, dims=dims, restarts=8, seed=1)
        assert abs(v22 - vdd) <= 1e-4


def test_seesaw_pentagon2_state_maximally_entangled():
    _, model = qmax_seesaw(named_inequality("pentagon-2"), restarts=8, seed=0)
    coeffs = schmidt(model.state, (2, 2))
    assert coeffs == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-4)


def test_seesaw_behavior_passes_eprinciple():
    for name in ("pentagon-1", "pentagon-2"):
        iq = named_inequality(name)
        _, model = qmax_seesaw(iq, restarts=4, seed=0)
        report = eprinciple_check(iq, behavior_of(model))
        assert report.max_clique_sum <= 1.0 + 1e-9
        assert not report.violated


@pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
@pytest.mark.parametrize("name", ["pentagon-1", "pentagon-2", "pentagon-3", "chsh-prob", "i3322"])
def test_bell_matrix_broadcasts_over_projector_stacks(name, dims):
    iq = named_inequality(name)
    rng = np.random.default_rng(11)
    k = 6
    alice = [np.array([random_projector(dims[0], rng) for _ in range(k)]) for _ in range(iq.alice_settings)]
    bob = [np.array([random_projector(dims[1], rng) for _ in range(k)]) for _ in range(iq.bob_settings)]
    # Bob's setting 0 is one shared matrix, broadcast against the stacks
    bob[0] = bob[0][0]
    w = coefficients(iq, iq.alice_settings, iq.bob_settings)
    batched = _bell_matrix(w, _stack(alice), _stack(bob))
    assert batched.shape == (k, dims[0] * dims[1], dims[0] * dims[1])
    for i in range(k):
        alice_i, bob_i = [p[i] for p in alice], [bob[0]] + [p[i] for p in bob[1:]]
        assert np.max(np.abs(batched[i] - kron_bell_matrix(iq, alice_i, bob_i, dims))) <= 1e-15
        # the event representation gives the same operator up to rounding
        assert np.max(np.abs(batched[i] - kron_bell_matrix_by_events(iq, alice_i, bob_i, dims))) <= 1e-14
    # one pair of matrices reproduces the np.kron sum bit for bit
    alice0, bob0 = [p[0] for p in alice], [bob[0]] + [p[0] for p in bob[1:]]
    assert np.array_equal(_bell_matrix(w, _stack(alice0), _stack(bob0)), kron_bell_matrix(iq, alice0, bob0, dims))


def test_seesaw_capacity_and_validation():
    iq = named_inequality("pentagon-1")
    with pytest.raises(CapacityError):
        qmax_seesaw(iq, dims=(5, 2))
    for dims in ((0, 2), (-1, 2), (2, 0)):
        with pytest.raises(InvalidInputError, match="local dimensions must be >= 1"):
            qmax_seesaw(iq, dims=dims)
    with pytest.raises(InvalidInputError):
        qmax_seesaw(iq, restarts=0)


# -------------------------------------------------------------------- scan ---


def test_scan_matches_published_optimum():
    result = qmax_scan_ineq2()
    assert result.value == pytest.approx(2.178, abs=5e-4)
    coeffs = schmidt(result.model.state, (2, 2))
    assert coeffs[0] == pytest.approx(0.7735, abs=5e-4)
    assert coeffs[1] == pytest.approx(0.6338, abs=5e-4)
    beh = behavior_of(result.model)
    probs = [beh.prob(t) for t in named_inequality("pentagon-1").terms]
    assert probs == pytest.approx(IDEAL_COLUMN_1, abs=1e-3)


def test_scan_returns_the_pinned_optimum():
    # The optimum is found on the line (pi - t, t) with t in [0, pi/2], so
    # of its symmetric images the scan returns the one with theta_a > pi/2.
    result = qmax_scan_ineq2()
    assert result.value == pytest.approx(2.1783945862, abs=1e-10)
    assert result.angles == pytest.approx((2.4458718, 0.6957209), abs=1e-6)


def pentagon1_top_eig(angle_a, angle_b):
    sigma_z0 = np.diag([1.0, 0.0])
    alice = [sigma_z0, qubit_projector(angle_a)]
    bob = [sigma_z0, qubit_projector(angle_b)]
    w = coefficients(named_inequality("pentagon-1"), 2, 2)
    return np.linalg.eigvalsh(_bell_matrix(w, _stack(alice), _stack(bob)))[-1]


def test_scan_eigenvalue_symmetries():
    # the symmetries that reduce the two-angle scan to the line (pi - t, t)
    rng = np.random.default_rng(17)
    for a, b in rng.uniform(0.0, math.pi, size=(50, 2)):
        top = pentagon1_top_eig(a, b)
        for image in ((math.pi - a, b), (a, math.pi - b), (b, a)):
            assert abs(pentagon1_top_eig(*image) - top) <= 1e-14


def test_no_two_angle_grid_point_beats_the_scan():
    # reference: every point of a 181 x 181 grid over [0, pi]^2, with no
    # symmetry assumed
    sigma_z0 = np.diag([1.0, 0.0])
    grid = np.array([qubit_projector(t) for t in np.linspace(0.0, math.pi, 181)])
    w = coefficients(named_inequality("pentagon-1"), 2, 2)
    operators = _bell_matrix(w, _stack([sigma_z0, grid[:, None]]), _stack([sigma_z0, grid]))
    assert operators.shape == (181, 181, 4, 4)
    assert np.linalg.eigvalsh(operators)[..., -1].max() <= qmax_scan_ineq2().value + 1e-12


def test_known_pentagon1_model_is_the_scan_model():
    scan = qmax_scan_ineq2()
    known, scanned = behavior_of(known_optimal_model("pentagon-1")), behavior_of(scan.model)
    for x in range(2):
        for y in range(2):
            assert np.max(np.abs(known.table(x, y) - scanned.table(x, y))) <= 1e-12
    assert abs(evaluate(named_inequality("pentagon-1"), known) - scan.value) <= 1e-12


def test_scan_agrees_with_seesaw():
    scan_value = qmax_scan_ineq2().value
    seesaw_value, _ = qmax_seesaw(named_inequality("pentagon-1"), restarts=16, seed=0)
    assert scan_value == pytest.approx(seesaw_value, abs=1e-7)


# ----------------------------------------------------------------- schmidt ---


def test_schmidt_examples():
    phi_plus = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    assert schmidt(phi_plus, (2, 2)) == pytest.approx([1 / math.sqrt(2)] * 2)
    assert schmidt(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2)) == pytest.approx([1.0, 0.0])
    state = np.array([0.6338, 0.0, 0.0, 0.7735])
    state /= np.linalg.norm(state)
    assert schmidt(state, (2, 2)) == pytest.approx([0.7735, 0.6338], abs=1e-4)
    coeffs = schmidt(phi_plus, (2, 2))
    assert np.sum(coeffs**2) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "state,message",
    [
        ([1.0, 0.0, 0.0], "state must be 2\\*2 finite amplitudes"),
        ([np.nan] * 4, "state must be 2\\*2 finite amplitudes"),
        ([1.0, 0.0, 0.0, 1.0], "state is not normalized"),
    ],
)
def test_schmidt_rejects_malformed_states(state, message):
    with pytest.raises(InvalidInputError, match=message):
        schmidt(state, (2, 2))


@pytest.mark.parametrize("dims", [(-2, -2), (0, 4), (4, 0)])
def test_schmidt_and_models_reject_non_positive_dims(dims):
    with pytest.raises(InvalidInputError, match=r"dims \("):
        schmidt([0.5] * 4, dims)
    with pytest.raises(InvalidInputError, match=r"dims \("):
        QuantumModel(dims, [0.5] * 4, (), ())


@pytest.mark.parametrize("vector", [[0.0, 0.0], [1e308, 1e308], [1e-200, 0.0], [np.nan, 1.0]])
def test_projector_onto_rejects_zero_and_non_finite_squared_norms(vector):
    with pytest.raises(InvalidInputError, match="cannot project onto a vector of squared norm"):
        projector_onto(vector)


# ----------------------------------------------------------- block reduction ---


def test_block_reduction_spectral_identity():
    rng = np.random.default_rng(8)
    for _ in range(100):
        d_a = int(rng.integers(2, 7))
        mats = [np.linalg.qr(rng.standard_normal((d_a, d_a)))[0] for _ in range(2)]
        r1, r2 = rng.integers(1, d_a + 1, size=2)
        p1 = mats[0][:, :r1] @ mats[0][:, :r1].T
        p2 = mats[1][:, :r2] @ mats[1][:, :r2].T
        q0, q1, q2 = (random_sym(2, rng) for _ in range(3))
        red = block_reduce(p1, p2, q0, q1, q2)
        assert all(b.shape[0] <= 4 for b in red.blocks)
        block_eigs = np.concatenate(
            [np.linalg.eigvalsh(b) for b in red.blocks] + [red.residual_spectrum]
        )
        full = np.kron(p1, q1) + np.kron(p2, q2) + np.kron(np.eye(d_a), q0)
        full_eigs = np.linalg.eigvalsh(full)
        assert np.max(np.abs(np.sort(block_eigs) - np.sort(full_eigs))) <= 1e-8


def test_block_reduction_rank_one_max_matches_full():
    rng = np.random.default_rng(21)
    p1 = projector_onto(rng.standard_normal(4))
    p2 = projector_onto(rng.standard_normal(4))
    q0, q1, q2 = (random_sym(2, rng) for _ in range(3))
    red = block_reduce(p1, p2, q0, q1, q2)
    full = np.kron(p1, q1) + np.kron(p2, q2) + np.kron(np.eye(4), q0)
    block_max = max(
        [float(np.linalg.eigvalsh(b)[-1]) for b in red.blocks]
        + ([float(np.max(red.residual_spectrum))] if red.residual_spectrum.size else [])
    )
    assert block_max == pytest.approx(float(np.linalg.eigvalsh(full)[-1]), abs=1e-8)


def test_block_reduction_coincident_projectors():
    rng = np.random.default_rng(22)
    p = projector_onto([1.0, 2.0, 0.5])
    red = block_reduce(p, p, *(random_sym(2, rng) for _ in range(3)))
    assert np.allclose(red.gram_singular_values, [1.0], atol=1e-12)
    assert all(b.shape[0] == 2 for b in red.blocks)  # one-dimensional Alice part


def test_block_reduction_orthogonal_projectors_decouple():
    rng = np.random.default_rng(23)
    p1 = projector_onto([1.0, 0.0, 0.0])
    p2 = projector_onto([0.0, 1.0, 0.0])
    q0, q1, q2 = (random_sym(2, rng) for _ in range(3))
    red = block_reduce(p1, p2, q0, q1, q2)
    assert np.allclose(red.gram_singular_values, [0.0], atol=1e-12)
    sector_eigs = np.sort(
        np.concatenate([np.linalg.eigvalsh(q1 + q0), np.linalg.eigvalsh(q2 + q0)])
    )
    block_eigs = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in red.blocks]))
    assert np.allclose(block_eigs, sector_eigs, atol=1e-10)


def kron_block_reduction(p1, p2, q0, q1, q2):
    """Reference: one Alice basis per singular direction, built one at a time,
    and each block the symmetrized sum of three np.kron products."""
    p1, p2 = (p1 + p1.T) / 2.0, (p2 + p2.T) / 2.0
    q0, q1, q2 = ((q + q.T) / 2.0 for q in (q0, q1, q2))
    d_a = p1.shape[0]
    e, f = (v[:, w > 0.5] for w, v in (np.linalg.eigh(p1), np.linalg.eigh(p2)))
    r1, r2 = e.shape[1], f.shape[1]
    if r1 == 0 and r2 == 0:
        return [], np.linalg.eigvalsh(np.kron(np.eye(d_a), q0)), np.zeros(0)
    if r1 and r2:
        u, s_vals, vh = np.linalg.svd(e.T @ f, full_matrices=True)
    else:
        u, s_vals, vh = np.eye(r1), np.zeros(0), np.eye(r2)
    e_rot, f_rot = e @ u, f @ vh.T
    blocks, used = [], 0
    for mu in range(max(r1, r2)):
        basis = [e_rot[:, mu]] if mu < r1 else []
        if mu < r2:
            vec = f_rot[:, mu]
            for b in basis:
                vec = vec - (b @ vec) * b
            if np.linalg.norm(vec) > 1e-9:
                basis.append(vec / np.linalg.norm(vec))
        b_mat = np.column_stack(basis)
        used += b_mat.shape[1]
        block = (
            np.kron(b_mat.T @ p1 @ b_mat, q1)
            + np.kron(b_mat.T @ p2 @ b_mat, q2)
            + np.kron(np.eye(b_mat.shape[1]), q0)
        )
        blocks.append((block + block.T) / 2.0)
    residual = np.sort(np.tile(np.linalg.eigvalsh(q0), d_a - used))
    return blocks, residual, s_vals


def reduction_instance(seed):
    """Seeded projector pair of one of four kinds, cycling with the seed:
    random ranks (zero included), coincident, orthogonal ranges, and
    r1 + r2 > d_A, which forces a shared direction; Bob's dimension is 1-3."""
    rng = np.random.default_rng(seed)
    d_a = int(rng.integers(2, 7))
    basis = np.linalg.qr(rng.standard_normal((d_a, d_a)))[0]
    kind = seed % 4
    if kind == 0:
        r1, r2 = (int(r) for r in rng.integers(0, d_a + 1, size=2))
        other = np.linalg.qr(rng.standard_normal((d_a, d_a)))[0]
        p1, p2 = basis[:, :r1] @ basis[:, :r1].T, other[:, :r2] @ other[:, :r2].T
    elif kind == 1:
        r1 = int(rng.integers(1, d_a + 1))
        p1 = p2 = basis[:, :r1] @ basis[:, :r1].T
    elif kind == 2:
        r1 = int(rng.integers(1, d_a))
        r2 = int(rng.integers(1, d_a - r1 + 1))
        p1 = basis[:, :r1] @ basis[:, :r1].T
        p2 = basis[:, r1 : r1 + r2] @ basis[:, r1 : r1 + r2].T
    else:
        r1 = int(rng.integers(1, d_a + 1))
        r2 = int(rng.integers(d_a - r1 + 1, d_a + 1))
        other = np.linalg.qr(rng.standard_normal((d_a, d_a)))[0]
        p1, p2 = basis[:, :r1] @ basis[:, :r1].T, other[:, :r2] @ other[:, :r2].T
    d_b = int(rng.integers(1, 4))
    return p1, p2, *(random_sym(d_b, rng) for _ in range(3))


def test_block_reduction_matches_kron_reference():
    kinds_seen = set()
    for seed in range(320):
        args = reduction_instance(seed)
        red = block_reduce(*args)
        blocks, residual, s_vals = kron_block_reduction(*args)
        assert len(red.blocks) == len(blocks)
        for b, ref in zip(red.blocks, blocks):
            assert b.shape == ref.shape
            assert np.max(np.abs(b - ref)) <= 1e-15
        assert np.max(np.abs(red.residual_spectrum - residual), initial=0.0) <= 1e-15
        assert np.max(np.abs(red.gram_singular_values - s_vals), initial=0.0) <= 1e-15
        kinds_seen.add((seed % 4, any(b.shape[0] > args[2].shape[0] for b in blocks)))
    # every kind ran, and paired (two-dimensional Alice) blocks occurred
    assert {k for k, _ in kinds_seen} == {0, 1, 2, 3}
    assert any(paired for _, paired in kinds_seen)


def test_two_projector_operator_is_the_kron_sum_and_broadcasts():
    rng = np.random.default_rng(31)
    p1, p2, q0, q1, q2 = reduction_instance(31)
    p1, p2 = (p1 + p1.T) / 2.0, (p2 + p2.T) / 2.0
    d_a = p1.shape[0]
    kron_sum = np.kron(p1, q1) + np.kron(p2, q2) + np.kron(np.eye(d_a), q0)
    assert np.array_equal(two_projector_operator(p1, p2, q0, q1, q2), kron_sum)
    q0s = np.stack([q0, random_sym(q0.shape[0], rng)])
    stacked = two_projector_operator(p1, p2, q0s, q1, q2)
    assert stacked.shape == (2,) + kron_sum.shape
    assert np.array_equal(stacked[0], kron_sum)
    assert np.array_equal(stacked[1], two_projector_operator(p1, p2, q0s[1], q1, q2))


def test_block_reduction_rejects_non_projector():
    with pytest.raises(InvalidInputError):
        block_reduce(np.diag([0.5, 0.5]), np.eye(2), np.eye(2), np.eye(2), np.eye(2))


@pytest.mark.parametrize("p", [np.zeros((2, 2)), np.diag([1.0, 0.0])], ids=["rank-0", "rank-1"])
def test_block_reduction_rejects_qs_of_different_sizes(p):
    for qs in [(np.eye(2), np.eye(3), np.eye(2)), (np.eye(2), np.eye(2), np.eye(3)), (np.eye(3), np.eye(2), np.eye(2))]:
        with pytest.raises(InvalidInputError, match="Q0, Q1 and Q2 act on different spaces"):
            block_reduce(p, p, *qs)


def reduction_stacks():
    """The 320 `reduction_instance` cases as stacks, one per (d_A, d_B)."""
    groups = {}
    for seed in range(320):
        args = reduction_instance(seed)
        groups.setdefault((len(args[0]), len(args[2])), []).append(args)
    return groups


def test_block_reductions_equal_block_reduce_on_each_instance():
    rank_pairs = []
    for group in reduction_stacks().values():
        reductions = block_reductions(*(np.stack(mats) for mats in zip(*group)))
        assert len(reductions) == len(group)
        for args, red in zip(group, reductions):
            alone = block_reduce(*args)
            assert len(red.blocks) == len(alone.blocks)
            assert all(np.array_equal(b, ref) for b, ref in zip(red.blocks, alone.blocks))
            assert np.array_equal(red.residual_spectrum, alone.residual_spectrum)
            assert np.array_equal(red.gram_singular_values, alone.gram_singular_values)
        rank_pairs.append({(round(np.trace(p1)), round(np.trace(p2))) for p1, p2, *_ in group})
    # stacks mix rank pairs, and zero ranks ride in stacks with nonzero ones
    assert all(len(pairs) >= 4 for pairs in rank_pairs)
    assert any(0 in pair for pairs in rank_pairs for pair in pairs)


def test_block_reductions_reject_a_stack_with_one_non_projector():
    group = list(reduction_stacks()[(2, 2)])
    group[3] = (np.diag([0.5, 0.5]),) + group[3][1:]
    with pytest.raises(InvalidInputError, match="P1 is not a projector"):
        block_reduce(*group[3])
    with pytest.raises(InvalidInputError, match="P1 is not a projector"):
        block_reductions(*(np.stack(mats) for mats in zip(*group)))


# -------------------------------------------------------------------- KCBS ---


def test_kcbs_adjacent_orthogonality():
    vectors = kcbs_vectors()
    for k in range(5):
        assert abs(float(vectors[:, k] @ vectors[:, (k + 1) % 5])) <= 1e-10
        assert np.linalg.norm(vectors[:, k]) == pytest.approx(1.0, abs=1e-12)


def test_kcbs_total_value():
    state, projectors = kcbs_model()
    total = sum(float(state @ p @ state) for p in projectors)
    assert total == pytest.approx(math.sqrt(5), abs=1e-9)


def test_kcbs_single_probabilities():
    state, projectors = kcbs_model()
    for p in projectors:
        assert float(state @ p @ state) == pytest.approx(math.sqrt(5) / 5, abs=1e-9)


def test_kcbs_reaches_pentagon_theta():
    state, projectors = kcbs_model()
    total = sum(float(state @ p @ state) for p in projectors)
    assert total == pytest.approx(lovasz_theta(cycle(5)).value, abs=1e-6)


# ------------------------------------------------------------- file format ---


def test_model_json_roundtrip(tmp_path):
    model = known_optimal_model("pentagon-3")
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.dims == model.dims
    assert np.allclose(loaded.state, model.state)
    for a, b in zip(loaded.alice, model.alice):
        assert np.allclose(a, b, atol=1e-12)


def test_model_json_rank_one_vectors():
    data = model_to_json(known_optimal_model("pentagon-2"))
    assert all("vector" in entry for entry in data["alice"])
    rebuilt = model_from_json(data)
    assert np.allclose(rebuilt.alice[0], known_optimal_model("pentagon-2").alice[0])


def test_model_json_matrix_projectors():
    model = QuantumModel(
        (2, 2),
        np.array([1.0, 0.0, 0.0, 0.0]),
        (np.eye(2),),  # rank-2 projector must serialize as a matrix
        (projector_onto((1.0, 0.0)),),
    )
    data = model_to_json(model)
    assert "matrix" in data["alice"][0]
    assert np.allclose(model_from_json(data).alice[0], np.eye(2))


def test_model_json_validation():
    with pytest.raises(InvalidInputError):
        model_from_json({"dims": [2, 2]})
