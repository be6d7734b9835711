import itertools
import math

import numpy as np
import pytest

from pentabell.errors import InvalidInputError
from pentabell.graphs import cycle, independence_number
from pentabell import scenarios
from pentabell.scenarios import (
    Behavior,
    DeterministicStrategy,
    Event,
    Inequality,
    canonical_form,
    chsh_decomposition,
    edge_patterns_c5,
    enumerate_pentagonal,
    eprinciple_check,
    evaluate,
    evaluate_tables,
    exclusive,
    exclusivity_graph,
    feasible_patterns,
    lhv_bound,
    load_scenario,
    named_inequality,
    pr_box,
    random_ns_behavior,
    random_ns_tables,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    strategy_behavior,
)

PENTAGONS = ("pentagon-1", "pentagon-2", "pentagon-3")


def induced_copy(h, g):
    """Reference: the first injective map m of h's vertices into g's, by
    brute force over itertools.permutations, under which u, v are adjacent
    in h exactly when m[u], m[v] are adjacent in g; None if there is none."""
    for m in itertools.permutations(range(g.n), h.n):
        if all(h.has_edge(u, v) == g.has_edge(m[u], m[v]) for u, v in itertools.combinations(range(h.n), 2)):
            return m
    return None


def isomorphic(g, h):
    return g.n == h.n and induced_copy(h, g) is not None


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
    assert isomorphic(g, cycle(5))
    assert len(edges) == 5


def test_chsh_prob_graph_is_circulant():
    from pentabell.graphs import circulant

    g, _ = exclusivity_graph(named_inequality("chsh-prob"))
    assert isomorphic(g, circulant(8, {1, 4}))


def test_typed_edges_of_pentagon_1():
    _, edges = exclusivity_graph(named_inequality("pentagon-1"))
    kinds = {(e.i, e.j): e.kind for e in edges}
    assert kinds[(0, 4)] == "AB"  # 00|00 vs 11|00 excludes through both parties
    assert kinds[(0, 1)] == "A"
    assert kinds[(1, 2)] == "B"


def test_pentagon_inside_i3322():
    iq = named_inequality("i3322")
    g, _ = exclusivity_graph(iq)
    mapping = induced_copy(cycle(5), g)
    assert mapping is not None
    for i in range(5):
        for j in range(i + 1, 5):
            assert cycle(5).has_edge(i, j) == g.has_edge(mapping[i], mapping[j])
    # one concrete witness: these five terms induce a pentagon
    witness = [Event.parse(t) for t in ("11|00", "00|10", "10|11", "11|01", "00|02")]
    sub = Inequality(tuple(witness))
    assert isomorphic(exclusivity_graph(sub)[0], cycle(5))


# --------------------------------------------------------------- behaviors ---


def test_behavior_rejects_signaling_and_bad_tables():
    tables = np.full((2, 2, 2, 2), 0.25)
    tables[0, 0] = [[0.5, 0.0], [0.25, 0.25]]  # bob marginal depends on x
    with pytest.raises(InvalidInputError):
        Behavior(tables)
    with pytest.raises(InvalidInputError):
        Behavior(np.full((1, 1, 2, 2), 0.5))


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
    tables = np.full((2, 2, 2, 2), 0.25)
    tables[pair] = block
    with pytest.raises(InvalidInputError, match=message):
        Behavior(tables)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_behavior_rejects_non_finite_tables(value):
    with pytest.raises(InvalidInputError, match=r"non-finite probability at setting pair \(0,0\)"):
        Behavior(np.full((1, 1, 2, 2), value))
    tables = np.full((2, 2, 2, 2), 0.25)
    tables[1, 0] = [[0.5, np.nan], [0.25, 0.25]]
    with pytest.raises(InvalidInputError, match=r"non-finite probability at setting pair \(1,0\)"):
        Behavior(tables)


def _bad_2x2_tables():
    """Full 2x2 tables, each with one defect Behavior rejects."""
    uniform = np.full((2, 2), 0.25)
    cases = {
        "nan": ((0, 1), [[0.25, np.nan], [0.25, 0.25]]),
        "inf": ((1, 1), [[np.inf, 0.0], [0.0, 0.0]]),
        "negative": ((1, 0), [[0.5, -0.25], [0.5, 0.25]]),
        "sum": ((0, 0), [[0.25, 0.25], [0.25, 0.5]]),
        "signals-alice": ((1, 1), [[0.5, 0.25], [0.0, 0.25]]),
        "signals-bob": ((1, 1), [[0.5, 0.0], [0.25, 0.25]]),
    }
    out = {}
    for name, (pair, block) in cases.items():
        tables = np.tile(uniform, (2, 2, 1, 1))
        tables[pair] = block
        out[name] = tables
    return out


@pytest.mark.parametrize("defect", sorted(_bad_2x2_tables()))
@pytest.mark.parametrize("box", [0, 3, 6])
def test_stacked_validation_rejects_what_behavior_rejects(defect, box):
    tables = _bad_2x2_tables()[defect]
    with pytest.raises(InvalidInputError) as single:
        Behavior(tables)
    stack = np.array(random_ns_tables(np.random.default_rng(box), 7))
    stack[box] = tables
    with pytest.raises(InvalidInputError) as stacked:
        scenarios._checked_tables(stack)
    assert str(stacked.value) == str(single.value)


def test_stacked_validation_accepts_and_densifies_like_behavior():
    stack = random_ns_tables(np.random.default_rng(3), 5)
    assert stack.shape == (5, 2, 2, 2, 2) and not stack.flags.writeable
    for tables in stack:
        b = Behavior(tables)
        assert np.array_equal(b._p, tables)


@pytest.mark.parametrize("pair", [(-1, 0), (0, -2), (4, 0), (1, 7)])
def test_behavior_rejects_setting_pairs_outside_range(pair):
    with pytest.raises(InvalidInputError, match="outside"):
        Behavior(np.full((2, 2, 2, 2), 0.25), pairs={(0, 0), pair})


def test_behavior_rejects_tables_of_the_wrong_shape():
    with pytest.raises(InvalidInputError, match=r"shape \(n_a, n_b, 2, 2\), not \(2, 2, 2\)"):
        Behavior(np.full((2, 2, 2), 0.25))
    with pytest.raises(InvalidInputError, match=r"shape \(n_a, n_b, 2, 2\), not \(1, 2, 2, 2, 2\)"):
        Behavior(random_ns_tables(np.random.default_rng(0), 1))
    with pytest.raises(InvalidInputError, match=r"setting pairs span \(1, 2\), not the table's \(2, 2\)"):
        Behavior(np.full((2, 2, 2, 2), 0.25), pairs={(0, 0), (0, 1)})


def test_wildcards_read_at_lowest_covered_partner_setting():
    # tables at (1,0), (1,1) and (2,1) only: Bob's setting 0 is covered
    # only by Alice's setting 1, and Alice's setting 2 only by Bob's setting 1
    tables = np.zeros((3, 2, 2, 2))
    tables[1, 0] = [[0.3, 0.2], [0.1, 0.4]]
    tables[1, 1] = [[0.2, 0.3], [0.2, 0.3]]
    tables[2, 1] = [[0.1, 0.2], [0.3, 0.4]]
    partial = Behavior(tables, pairs={(1, 0), (1, 1), (2, 1)})
    assert {x for x, _ in partial.pairs} == {1, 2} and {y for _, y in partial.pairs} == {0, 1}
    assert partial.prob(Event.parse("_1|_0")) == 0.6000000000000001  # 0.2 + 0.4 at (1,0)
    assert partial.prob(Event.parse("0_|2_")) == 0.30000000000000004  # 0.1 + 0.2 at (2,1)
    assert partial.prob(Event.parse("_0|_1")) == 0.4  # at (1,1), not (2,1)
    assert partial.prob(Event.parse("11|21")) == 0.4
    # single-party expectations follow the same rule
    alice_0, alice_1 = partial.probs((Event.parse("0_|2_"), Event.parse("1_|2_")))
    assert alice_0 - alice_1 == 0.30000000000000004 - 0.7
    bob_0, bob_1 = partial.probs((Event.parse("_0|_0"), Event.parse("_1|_0")))
    assert bob_0 - bob_1 == 0.4 - 0.6000000000000001
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


@pytest.mark.parametrize("field", ["alice_settings", "bob_settings"])
@pytest.mark.parametrize("declared", [0, -1, scenarios.MAX_SETTING + 2])
def test_inequality_rejects_declared_settings_outside_the_setting_range(field, declared):
    terms = named_inequality("pentagon-1").terms
    with pytest.raises(InvalidInputError, match=f"{field}={declared} outside"):
        Inequality(terms, **{field: declared})
    # the largest declared count is accepted and kept
    assert getattr(Inequality(terms, **{field: scenarios.MAX_SETTING + 1}), field) == scenarios.MAX_SETTING + 1


@pytest.mark.parametrize("field", ["alice_settings", "bob_settings"])
def test_inequality_rejects_declared_settings_below_its_terms(field):
    terms = named_inequality("pentagon-1").terms  # uses setting 1 of each party
    with pytest.raises(InvalidInputError, match=f"{field}=1 but a term references setting 1"):
        Inequality(terms, **{field: 1})


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
    cases = named + enumerate_pentagonal(4, 4)
    cases.append(Inequality(named[0].terms, alice_settings=3))  # more settings than the terms use
    for iq in cases:
        bound, witness = lhv_bound(iq)
        expected, expected_witness = brute_force_lhv(iq, iq.alice_settings, iq.bob_settings)
        assert (bound, witness) == (expected, expected_witness), iq.terms
        assert isinstance(bound, int)


# --------------------------------------------------------------- evaluate ---


def test_evaluate_uniform_behavior():
    uniform = Behavior(np.full((2, 2, 2, 2), 0.25))
    assert evaluate(named_inequality("pentagon-1"), uniform) == pytest.approx(1.25)
    assert evaluate(named_inequality("pentagon-2"), uniform) == pytest.approx(1.5)


def test_evaluate_missing_setting_pair():
    partial = Behavior(np.full((1, 1, 2, 2), 0.25))
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


def test_stacked_predict_and_evaluate_match_per_behavior_loop():
    rng, ref_rng = np.random.default_rng(99), np.random.default_rng(99)
    boxes = random_ns_tables(rng, 200)
    behaviors = [random_ns_behavior(ref_rng) for _ in range(200)]
    # the stacked draws are the sequential single draws: the generators stay in step
    assert rng.random() == ref_rng.random()
    for name in ("pentagon-2", "chsh-prob"):
        iq = named_inequality(name)
        dec = chsh_decomposition(iq)
        predicted, evaluated = dec.predict_tables(boxes), evaluate_tables(iq, boxes)
        for k, b in enumerate(behaviors):
            assert np.max(np.abs(b._p - boxes[k])) <= 1e-15
            # the loop reference: offset plus correlators, per term probabilities
            loop = dec.offset + sum(c * b.correlator(x, y) for (x, y), c in dec.coefficients.items())
            assert abs(predicted[k] - loop) <= 1e-12
            assert abs(evaluated[k] - sum(b.prob(t) for t in iq.terms)) <= 1e-12
            assert dec.predict(b) == pytest.approx(predicted[k], abs=1e-15)
            assert evaluate(iq, b) == pytest.approx(evaluated[k], abs=1e-15)


def test_predict_needs_the_four_setting_pairs():
    dec = chsh_decomposition(named_inequality("pentagon-2"))
    partial = Behavior(np.full((2, 1, 2, 2), 0.25))
    with pytest.raises(InvalidInputError, match=r"does not cover setting pair \(0,1\)"):
        dec.predict(partial)
    # marginal terms read at partner setting 0
    marginal = chsh_decomposition(Inequality((Event.parse("00|00"),), alice_settings=2, bob_settings=2))
    box = random_ns_behavior(np.random.default_rng(4))
    assert marginal.predict(box) == pytest.approx(box.table(0, 0)[0, 0], abs=1e-12)


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
    alice_0, alice_1 = box.probs((Event.parse("0_|0_"), Event.parse("1_|0_")))
    assert alice_0 - alice_1 == pytest.approx(0.0)
    bob_0, bob_1 = box.probs((Event.parse("_0|_1"), Event.parse("_1|_1")))
    assert bob_0 - bob_1 == pytest.approx(0.0)


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


def test_eprinciple_cap_is_the_closed_form_without_a_solve(monkeypatch):
    from pentabell import theta

    def no_solve(*args, **kwargs):
        raise AssertionError("eprinciple_check solved an SDP")

    monkeypatch.setattr(theta, "lovasz_theta", no_solve)
    report = eprinciple_check(named_inequality("pentagon-2"), pr_box())
    assert abs(report.chsh_cap - (4 * math.sqrt(5) - 6)) <= 1e-12


def test_eprinciple_caps_only_pentagons():
    # five terms and five edges, but a 4-cycle with a pendant vertex, not C5
    iq = Inequality(tuple(Event.parse(t) for t in ("00|00", "11|00", "00|01", "11|01", "00|10")))
    g, _ = exclusivity_graph(iq)
    assert len(g.edges) == 5 and sorted(g.degrees()) == [1, 2, 2, 2, 3]
    report = eprinciple_check(iq, pr_box())
    assert report.pentagon_cap is None and report.chsh_cap is None


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
        assert isomorphic(g, cycle(5))
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


def _reference_compact(terms):
    """Event-based reference: relabel each party's used settings to 0..k-1."""
    used_a = sorted({e.alice[0] for e in terms if e.alice is not None})
    used_b = sorted({e.bob[0] for e in terms if e.bob is not None})
    out = []
    for e in terms:
        alice = None if e.alice is None else (used_a.index(e.alice[0]), e.alice[1])
        bob = None if e.bob is None else (used_b.index(e.bob[0]), e.bob[1])
        out.append(Event(alice, bob))
    return frozenset(out)


def _reference_orbit(compacted):
    """Event-based reference: every image of a compacted event set under
    party swap x setting permutations x outcome flips."""
    results = set()
    for swap in (False, True):
        base = [Event(e.bob, e.alice) if swap else e for e in compacted]
        k_a = len({e.alice[0] for e in base if e.alice is not None})
        k_b = len({e.bob[0] for e in base if e.bob is not None})
        for perm_a, flips_a, perm_b, flips_b in itertools.product(
            itertools.permutations(range(k_a)),
            itertools.product((0, 1), repeat=k_a),
            itertools.permutations(range(k_b)),
            itertools.product((0, 1), repeat=k_b),
        ):
            image = frozenset(
                Event(
                    None if e.alice is None else (perm_a[e.alice[0]], e.alice[1] ^ flips_a[e.alice[0]]),
                    None if e.bob is None else (perm_b[e.bob[0]], e.bob[1] ^ flips_b[e.bob[0]]),
                )
                for e in base
            )
            results.add(image)
    return results


def _reference_key(event):
    part = lambda p: (1, -1, -1) if p is None else (0, p[0], p[1])
    return part(event.alice) + part(event.bob)


@pytest.mark.parametrize("settings", [3, 4])
def test_integer_canonical_form_matches_event_reference_on_every_five_cycle(settings):
    events = [
        Event(pa, pb)
        for pa in [None] + [(x, a) for x in range(settings) for a in (0, 1)]
        for pb in [None] + [(y, b) for y in range(settings) for b in (0, 1)]
        if pa is not None or pb is not None
    ]
    n = len(events)
    adjacent = [[exclusive(events[i], events[j]) is not None for j in range(n)] for i in range(n)]
    partners = [[j for j in range(n) if adjacent[i][j]] for i in range(n)]
    found = set()
    for v0 in range(n):
        for v1, v4 in itertools.combinations(partners[v0], 2):
            if v1 < v0 or adjacent[v1][v4]:
                continue
            for v2 in partners[v1]:
                if v2 <= v0 or adjacent[v0][v2] or adjacent[v2][v4]:
                    continue
                for v3 in partners[v2]:
                    if v3 > v0 and adjacent[v3][v4] and not (adjacent[v0][v3] or adjacent[v1][v3]):
                        found.add(_reference_compact([events[v] for v in (v0, v1, v2, v3, v4)]))
    assert len(found) == 512
    canon = {}
    for member in found:
        if member not in canon:
            orbit = _reference_orbit(member)
            least = min(tuple(sorted(_reference_key(e) for e in image)) for image in orbit)
            canon.update((image, least) for image in orbit)
    for member in found:
        assert canonical_form(tuple(member)) == canon[member]
    classes = enumerate_pentagonal(settings, settings)
    assert {canonical_form(iq.terms) for iq in classes} == set(canon.values())


def test_canonical_form_matches_event_reference_on_named_inequalities():
    for name in ("pentagon-1", "pentagon-2", "pentagon-3", "chsh-prob", "i3322"):
        orbit = _reference_orbit(_reference_compact(named_inequality(name).terms))
        least = min(tuple(sorted(_reference_key(e) for e in image)) for image in orbit)
        assert canonical_form(named_inequality(name).terms) == least


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
