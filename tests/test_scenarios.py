import itertools
import math

import numpy as np
import pytest

from pentabell.errors import CapacityError, InvalidInputError
from pentabell.graphs import cycle, find_induced, independence_number, is_isomorphic
from pentabell.scenarios import (
    Behavior,
    DeterministicStrategy,
    Event,
    Inequality,
    canonical_form,
    canonicalize,
    chsh_decomposition,
    edge_patterns_c5,
    enumerate_pentagonal,
    eprinciple_check,
    evaluate,
    exclusive,
    exclusivity_graph,
    feasible_patterns,
    lhv_bound,
    load_scenario,
    named_inequality,
    pr_box,
    random_ns_behavior,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    strategy_behavior,
)

PENTAGONS = ("pentagon-1", "pentagon-2", "pentagon-3")


# ---------------------------------------------------------------- events ---


def test_event_parse_roundtrip():
    for text in ("00|00", "11|01", "_1|_0", "1_|2_"):
        assert str(Event.parse(text)) == text


def test_event_validation():
    with pytest.raises(InvalidInputError):
        Event(None, None)
    with pytest.raises(InvalidInputError):
        Event((0, 2), None)
    with pytest.raises(InvalidInputError):
        Event((4, 0), None)


def test_exclusive_kinds():
    assert exclusive(Event.parse("00|00"), Event.parse("11|01")) == "A"
    assert exclusive(Event.parse("00|00"), Event.parse("11|00")) == "AB"
    assert exclusive(Event.parse("00|00"), Event.parse("11|10")) == "B"
    assert exclusive(Event.parse("_1|_0"), Event.parse("10|11")) is None


def test_exclusive_symmetric_and_wildcard_rules():
    events = [Event.parse(t) for t in ("00|00", "11|01", "_1|_0", "1_|1_", "01|21")]
    for e, f in itertools.combinations(events, 2):
        assert exclusive(e, f) == exclusive(f, e)
    # a wildcard party never creates exclusivity, and the specified party
    # only does so at the same setting
    assert exclusive(Event.parse("_1|_0"), Event.parse("01|11")) is None
    assert exclusive(Event.parse("_1|_0"), Event.parse("00|10")) == "B"


# ------------------------------------------------------ exclusivity graphs ---


@pytest.mark.parametrize("name", PENTAGONS)
def test_pentagonal_graphs_are_c5(name):
    g, edges = exclusivity_graph(named_inequality(name))
    ok, _ = is_isomorphic(g, cycle(5))
    assert ok
    assert len(edges) == 5


def test_chsh_prob_graph_is_circulant():
    from pentabell.graphs import circulant

    g, _ = exclusivity_graph(named_inequality("chsh-prob"))
    ok, perm = is_isomorphic(g, circulant(8, {1, 4}))
    assert ok and perm is not None


def test_typed_edges_of_pentagon_1():
    _, edges = exclusivity_graph(named_inequality("pentagon-1"))
    kinds = {(e.i, e.j): e.kind for e in edges}
    assert kinds[(0, 4)] == "AB"  # 00|00 vs 11|00 excludes through both parties
    assert kinds[(0, 1)] == "A"
    assert kinds[(1, 2)] == "B"


def test_pentagon_inside_i3322():
    iq = named_inequality("i3322")
    g, _ = exclusivity_graph(iq)
    mapping = find_induced(cycle(5), g)
    assert mapping is not None
    for i in range(5):
        for j in range(i + 1, 5):
            assert cycle(5).has_edge(i, j) == g.has_edge(mapping[i], mapping[j])
    # one concrete witness: these five terms induce a pentagon
    witness = [Event.parse(t) for t in ("11|00", "00|10", "10|11", "11|01", "00|02")]
    sub = Inequality(tuple(witness))
    ok, _ = is_isomorphic(exclusivity_graph(sub)[0], cycle(5))
    assert ok


# --------------------------------------------------------------- behaviors ---


def test_behavior_rejects_signaling_and_bad_tables():
    tables = {(x, y): np.full((2, 2), 0.25) for x in range(2) for y in range(2)}
    tables[(0, 0)] = np.array([[0.5, 0.0], [0.25, 0.25]])  # bob marginal depends on x
    with pytest.raises(InvalidInputError):
        Behavior(tables)
    with pytest.raises(InvalidInputError):
        Behavior({(0, 0): np.array([[0.5, 0.5], [0.5, 0.5]])})


@pytest.mark.parametrize(
    "pair,block,message",
    [
        # Bob's setting changes Alice's marginal at x = 1 only
        ((1, 1), [[0.5, 0.25], [0.0, 0.25]], "no-signaling violated for Alice setting 1"),
        # Alice's setting changes Bob's marginal at y = 1 only
        ((1, 1), [[0.5, 0.0], [0.25, 0.25]], "no-signaling violated for Bob setting 1"),
    ],
)
def test_behavior_rejects_signaling_either_way(pair, block, message):
    tables = {(x, y): np.full((2, 2), 0.25) for x in range(2) for y in range(2)}
    tables[pair] = np.array(block)
    with pytest.raises(InvalidInputError, match=message):
        Behavior(tables)


@pytest.mark.parametrize("pair", [(-1, 0), (0, -2), (4, 0), (1, 7)])
def test_behavior_rejects_setting_pairs_outside_range(pair):
    tables = {(0, 0): np.full((2, 2), 0.25), pair: np.full((2, 2), 0.25)}
    with pytest.raises(InvalidInputError, match="outside"):
        Behavior(tables)


def test_wildcards_read_at_lowest_covered_partner_setting():
    # tables at (1,0), (1,1) and (2,1) only: Bob's setting 0 is covered
    # only by Alice's setting 1, and Alice's setting 2 only by Bob's setting 1
    partial = Behavior(
        {
            (1, 0): np.array([[0.3, 0.2], [0.1, 0.4]]),
            (1, 1): np.array([[0.2, 0.3], [0.2, 0.3]]),
            (2, 1): np.array([[0.1, 0.2], [0.3, 0.4]]),
        }
    )
    assert partial.alice_settings == (1, 2) and partial.bob_settings == (0, 1)
    assert partial.prob(Event.parse("_1|_0")) == 0.6000000000000001  # 0.2 + 0.4 at (1,0)
    assert partial.prob(Event.parse("0_|2_")) == 0.30000000000000004  # 0.1 + 0.2 at (2,1)
    assert partial.prob(Event.parse("_0|_1")) == 0.4  # at (1,1), not (2,1)
    assert partial.prob(Event.parse("11|21")) == 0.4
    # single-party expectations follow the same rule
    assert partial.alice_expectation(2) == 0.30000000000000004 - 0.7
    assert partial.bob_expectation(0) == 0.4 - 0.6000000000000001
    for text in ("00|00", "_0|_2", "0_|0_", "00|20"):
        with pytest.raises(InvalidInputError):
            partial.prob(Event.parse(text))
    with pytest.raises(InvalidInputError):
        partial.table(-1, 0)


def test_strategy_behaviors_are_deterministic_and_no_signaling():
    for sa in itertools.product((0, 1), repeat=2):
        for sb in itertools.product((0, 1), repeat=2):
            b = strategy_behavior(DeterministicStrategy(sa, sb))
            for x in range(2):
                for y in range(2):
                    block = b.table(x, y)
                    assert set(np.unique(block)) <= {0.0, 1.0}
                    assert block.sum() == 1.0


@pytest.mark.parametrize("party", ["alice", "bob"])
def test_strategy_behavior_rejects_settings_beyond_the_strategy(party):
    strategy = DeterministicStrategy((0, 1), (0, 1))
    for count in (0, 3):
        with pytest.raises(InvalidInputError, match=f"{party}_settings"):
            strategy_behavior(strategy, **{f"{party}_settings": count})
    fewer = strategy_behavior(strategy, **{f"{party}_settings": 1})
    assert len(getattr(fewer, f"{party}_settings")) == 1


def test_strategy_behavior_rejects_non_binary_outcomes():
    with pytest.raises(InvalidInputError, match="bob outcomes"):
        strategy_behavior(DeterministicStrategy((0, 1), (0, 2)))


# ------------------------------------------------------------- lhv bounds ---


@pytest.mark.parametrize(
    "name,expected",
    [("pentagon-1", 2), ("pentagon-2", 2), ("pentagon-3", 2), ("chsh-prob", 3), ("i3322", 4)],
)
def test_lhv_bounds(name, expected):
    iq = named_inequality(name)
    bound, strategy = lhv_bound(iq)
    assert bound == expected
    assert evaluate(iq, strategy_behavior(strategy)) == bound


def test_lhv_capacity():
    iq = named_inequality("pentagon-1")
    with pytest.raises(CapacityError):
        lhv_bound(iq, alice_settings=5)


def test_lhv_rejects_settings_its_terms_need():
    iq = named_inequality("pentagon-1")  # uses Alice setting 1
    with pytest.raises(InvalidInputError):
        lhv_bound(iq, alice_settings=1)
    with pytest.raises(InvalidInputError):
        lhv_bound(iq, bob_settings=0)


def brute_force_lhv(iq, n_a, n_b):
    """First maximum, in itertools.product order, of evaluate over every
    deterministic strategy's behavior."""
    best, witness = -1.0, None
    for sa in itertools.product((0, 1), repeat=n_a):
        for sb in itertools.product((0, 1), repeat=n_b):
            strategy = DeterministicStrategy(sa, sb)
            score = evaluate(iq, strategy_behavior(strategy))
            if score > best:
                best, witness = score, strategy
    return best, witness


def test_lhv_bound_equals_brute_force_evaluation():
    named = [named_inequality(n) for n in ("pentagon-1", "pentagon-2", "pentagon-3", "chsh-prob", "i3322")]
    cases = [(iq, iq.alice_settings, iq.bob_settings) for iq in named + enumerate_pentagonal(4, 4)]
    cases.append((named[0], 3, 2))  # more settings than the terms use
    for iq, n_a, n_b in cases:
        bound, witness = lhv_bound(iq, n_a, n_b)
        expected, expected_witness = brute_force_lhv(iq, n_a, n_b)
        assert (bound, witness) == (expected, expected_witness), iq.terms
        assert isinstance(bound, int)


# --------------------------------------------------------------- evaluate ---


def test_evaluate_uniform_behavior():
    uniform = Behavior({(x, y): np.full((2, 2), 0.25) for x in range(2) for y in range(2)})
    assert evaluate(named_inequality("pentagon-1"), uniform) == pytest.approx(1.25)
    assert evaluate(named_inequality("pentagon-2"), uniform) == pytest.approx(1.5)


def test_evaluate_missing_setting_pair():
    partial = Behavior({(0, 0): np.full((2, 2), 0.25)})
    with pytest.raises(InvalidInputError):
        evaluate(named_inequality("pentagon-1"), partial)


def test_evaluate_optimal_model_value():
    from pentabell.quantum import behavior_of, known_optimal_model

    value = evaluate(named_inequality("pentagon-2"), behavior_of(known_optimal_model("pentagon-2")))
    assert value == pytest.approx((3 + math.sqrt(2)) / 2, abs=1e-4)


# ----------------------------------------------------------- decomposition ---


def test_pentagon2_decomposition():
    dec = chsh_decomposition(named_inequality("pentagon-2"))
    assert dec.correlator_only and dec.residual <= 1e-10
    assert dec.offset == pytest.approx(1.5, abs=1e-10)
    expected = {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): -0.25}
    for key, value in expected.items():
        assert dec.coefficients[key] == pytest.approx(value, abs=1e-10)


def test_chsh_prob_decomposition():
    dec = chsh_decomposition(named_inequality("chsh-prob"))
    assert dec.correlator_only and dec.residual <= 1e-10
    assert dec.offset == pytest.approx(2.0, abs=1e-10)
    assert dec.coefficients[(0, 0)] == pytest.approx(0.5, abs=1e-10)
    assert dec.coefficients[(1, 1)] == pytest.approx(-0.5, abs=1e-10)


def test_single_term_needs_marginals():
    dec = chsh_decomposition(Inequality((Event.parse("00|00"),), alice_settings=2, bob_settings=2))
    assert not dec.correlator_only
    assert dec.offset == pytest.approx(0.25, abs=1e-10)
    assert dec.alice_coefficients[0] == pytest.approx(0.25, abs=1e-10)
    assert dec.bob_coefficients[0] == pytest.approx(0.25, abs=1e-10)
    assert dec.residual <= 1e-10


def test_decomposition_replays_on_random_ns_behaviors():
    rng = np.random.default_rng(5)
    decs = {name: chsh_decomposition(named_inequality(name)) for name in ("pentagon-2", "chsh-prob")}
    for _ in range(1000):
        b = random_ns_behavior(rng)
        for name, dec in decs.items():
            assert abs(dec.predict(b) - evaluate(named_inequality(name), b)) <= 1e-10


def test_random_ns_behavior_matches_component_loop():
    components = [
        strategy_behavior(DeterministicStrategy(sa, sb))
        for sa in itertools.product((0, 1), repeat=2)
        for sb in itertools.product((0, 1), repeat=2)
    ] + [pr_box()]
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(50):
        b = random_ns_behavior(rng)
        weights = ref_rng.random(17)
        weights /= weights.sum()
        for x in range(2):
            for y in range(2):
                ref = sum(w * c.table(x, y) for w, c in zip(weights, components))
                assert np.max(np.abs(b.table(x, y) - ref)) <= 1e-15
    # exactly 17 draws per call: the generators stay in step
    assert rng.random() == ref_rng.random()


def test_decomposition_rejects_three_settings():
    with pytest.raises(InvalidInputError):
        chsh_decomposition(named_inequality("pentagon-3"))


# ------------------------------------------------------------------ pr box ---


def test_pr_box_structure():
    box = pr_box()
    for x in range(2):
        for y in range(2):
            block = box.table(x, y)
            assert set(np.round(np.unique(block), 12)) <= {0.0, 0.5}
            expected = 1.0 if (x, y) != (1, 1) else -1.0
            assert box.correlator(x, y) == pytest.approx(expected)
    assert box.alice_expectation(0) == pytest.approx(0.0)
    assert box.bob_expectation(1) == pytest.approx(0.0)


def test_pr_box_values():
    box = pr_box()
    chsh = box.correlator(0, 0) + box.correlator(0, 1) + box.correlator(1, 0) - box.correlator(1, 1)
    assert chsh == pytest.approx(4.0)
    assert evaluate(named_inequality("pentagon-2"), box) == pytest.approx(2.5)


# -------------------------------------------------------------- e-principle ---


def test_eprinciple_quantum_behavior_passes():
    from pentabell.quantum import behavior_of, known_optimal_model

    report = eprinciple_check(
        named_inequality("pentagon-2"), behavior_of(known_optimal_model("pentagon-2"))
    )
    assert report.max_clique_sum <= 1.0 + 1e-9
    assert not report.violated


def test_eprinciple_flags_pr_box():
    report = eprinciple_check(named_inequality("pentagon-2"), pr_box())
    assert report.violated
    assert report.value == pytest.approx(2.5)
    assert report.pentagon_cap == pytest.approx(math.sqrt(5), abs=1e-6)


def test_eprinciple_chsh_cap():
    report = eprinciple_check(named_inequality("pentagon-2"), pr_box())
    assert report.chsh_cap == pytest.approx(4 * math.sqrt(5) - 6, abs=1e-6)


# ---------------------------------------------------------------- patterns ---


def test_edge_patterns_reduce_to_four_classes():
    classes = edge_patterns_c5()
    assert len(classes) == 4
    assert {c.canonical for c in classes} == {"BBABA", "BBBAA", "BBBBA", "BBBBB"}
    assert sum(len(c.members) for c in classes) == 32


def test_pattern_orbits():
    classes = {c.canonical: c for c in edge_patterns_c5()}
    # the all-B labeling pairs with all-A under the swap
    assert classes["BBBBB"].members == frozenset({"AAAAA", "BBBBB"})
    # AABAB is a relabeling of the alternating class
    assert "AABAB" in classes["BBABA"].members
    assert "BABAB" in classes["BBABA"].members


def test_feasible_patterns():
    survivors = feasible_patterns()
    assert [c.canonical for c in survivors] == ["BBABA"]
    rejected = {c.canonical for c in edge_patterns_c5()} - {"BBABA"}
    assert rejected == {"BBBAA", "BBBBA", "BBBBB"}


# -------------------------------------------------------------- enumeration ---


def test_enumerate_exactly_three_classes():
    classes = enumerate_pentagonal()
    assert len(classes) == 3
    found = {canonical_form(iq.terms) for iq in classes}
    named = {canonical_form(named_inequality(n).terms) for n in PENTAGONS}
    assert found == named


def test_enumerated_classes_have_alpha_two():
    for iq in enumerate_pentagonal():
        g, _ = exclusivity_graph(iq)
        ok, _ = is_isomorphic(g, cycle(5))
        assert ok
        assert lhv_bound(iq)[0] == 2
        assert independence_number(g)[0] == 2


def test_wildcard_class_contains_pentagon_2():
    classes = enumerate_pentagonal()
    with_wildcard = [iq for iq in classes if any(t.alice is None or t.bob is None for t in iq.terms)]
    assert len(with_wildcard) == 1
    assert canonical_form(with_wildcard[0].terms) == canonical_form(named_inequality("pentagon-2").terms)


def test_variant_fifth_event_is_not_a_fourth_class():
    base = ("00|00", "11|01", "10|11", "00|10")
    variant = Inequality(tuple(Event.parse(t) for t in base + ("11|10",)))
    named = {name: canonical_form(named_inequality(name).terms) for name in PENTAGONS}
    assert canonical_form(variant.terms) in named.values()
    # the see-saw value separates the classes: the variant reaches the same
    # optimum as the first inequality, not the marginal one
    from pentabell.quantum import qmax_seesaw

    value, _ = qmax_seesaw(variant, restarts=8, seed=0)
    assert value == pytest.approx(2.1784, abs=1e-3)


def test_canonicalization_idempotent():
    for name in PENTAGONS:
        once = canonicalize(named_inequality(name))
        twice = canonicalize(once)
        assert once.terms == twice.terms


# ------------------------------------------------------------ file formats ---


def test_scenario_json_roundtrip(tmp_path):
    iq = named_inequality("i3322")
    path = tmp_path / "scenario.json"
    save_scenario(iq, path)
    loaded = load_scenario(path)
    assert loaded.terms == iq.terms
    assert loaded.alice_settings == iq.alice_settings


def test_scenario_json_validation():
    with pytest.raises(InvalidInputError):
        scenario_from_json({"nope": 1})
    with pytest.raises(InvalidInputError):
        scenario_from_json(
            {"terms": [{"alice": [0, 0], "bob": [0, 0]}, {"alice": [0, 0], "bob": [0, 0]}]}
        )
    data = scenario_to_json(named_inequality("pentagon-2"))
    assert data["terms"][4] == {"alice": None, "bob": [0, 1]}
