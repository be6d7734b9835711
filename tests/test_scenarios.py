import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from pentabell.errors import InvalidInputError, save_json
from pentabell.graphs import cycle, graph, independence_number
from pentabell import scenarios
from pentabell.scenarios import (
    Behavior,
    DeterministicStrategy,
    Event,
    Inequality,
    canonical_form,
    chsh_cap,
    chsh_decomposition,
    edge_patterns_c5,
    enumerate_pentagonal,
    evaluate,
    evaluate_tables,
    exclusivity_graph,
    feasible_patterns,
    lhv_bound,
    load_scenario,
    named_inequality,
    pr_box,
    random_ns_tables,
    scenario_from_json,
    strategy_behavior,
)
from pentabell.simkit import CountTable, estimate
from pentabell.theta import odd_cycle_theta

PENTAGONS = ("pentagon-1", "pentagon-2", "pentagon-3")


def induced_copy(h, g):
    """Reference: the first injective map m of h's vertices into g's, by
    brute force over itertools.permutations, under which u, v are adjacent
    in h exactly when m[u], m[v] are adjacent in g; None if there is none."""
    a, b = h.adjacency.tolist(), g.adjacency.tolist()
    for m in itertools.permutations(range(g.n), h.n):
        if all(a[u][v] == b[m[u]][m[v]] for u, v in itertools.combinations(range(h.n), 2)):
            return m
    return None


def isomorphic(g, h):
    return g.n == h.n and induced_copy(h, g) is not None


# ---------------------------------------------------------------- events ---


def test_event_parse_roundtrip():
    for text in ("00|00", "11|01", "_1|_0", "1_|2_"):
        assert str(Event.parse(text)) == text


def test_event_codes_number_the_range_one_to_one():
    # the 80 events of the (4, 4) range take the codes 0..79, one each: a
    # sorted row of five codes is then one base-81 key, as the enumeration
    # reads it
    parts = [None] + [(x, a) for x in range(4) for a in (0, 1)]
    events = [Event(pa, pb) for pa in parts for pb in parts if pa is not None or pb is not None]
    assert len(set(events)) == 80
    assert sorted(scenarios._code(e) for e in events) == list(range(80))


def test_event_validation():
    with pytest.raises(InvalidInputError):
        Event(None, None)
    with pytest.raises(InvalidInputError):
        Event((0, 2), None)
    with pytest.raises(InvalidInputError):
        Event((4, 0), None)
    for text in ("_1|00", "01|_0"):
        with pytest.raises(InvalidInputError, match="wildcard must blank both outcome and setting"):
            Event.parse(text)


@pytest.mark.parametrize("part", [(1.7, 0), (True, 0), ("2", "1"), (0, 1.0), (0, False)])
def test_event_rejects_non_integer_parts(part):
    with pytest.raises(InvalidInputError, match="must be an integer"):
        Event(part, None)
    with pytest.raises(InvalidInputError, match="must be an integer"):
        Event((0, 0), part)


@pytest.mark.parametrize("text", ["0a|00", "00|0x", "+0|00"])
def test_event_parse_rejects_characters_outside_the_format(text):
    with pytest.raises(InvalidInputError, match="cannot parse event"):
        Event.parse(text)


def test_event_accepts_numpy_integers():
    event = Event((np.int64(1), np.int64(0)), (np.int32(2), np.int64(1)))
    assert event == Event((1, 0), (2, 1)) and str(event) == "01|12"
    assert all(type(v) is int for v in event.alice + event.bob)
    assert Event([1, 0], [2, 1]) == event


def test_event_rejects_a_part_of_three_entries():
    with pytest.raises(InvalidInputError, match="alice must be a pair of integers"):
        Event((0, 1, 2), None)


def test_event_rejects_a_part_of_one_entry():
    with pytest.raises(InvalidInputError, match="alice must be a pair of integers"):
        Event((0,), None)


@pytest.mark.parametrize("terms, index", [(("00|00",), 0), ((Event((0, 0), None), (0, 1)), 1)])
def test_inequality_rejects_a_term_that_is_not_an_event(terms, index):
    with pytest.raises(InvalidInputError, match=f"term {index} is not an Event"):
        Inequality(terms)


def test_inequality_needs_a_term():
    with pytest.raises(InvalidInputError, match="inequality needs at least one term"):
        Inequality(())


def test_named_inequality_is_built_once_per_name():
    for name in ("pentagon-1", "pentagon-2", "pentagon-3", "chsh-prob", "i3322"):
        iq = named_inequality(name)
        assert named_inequality(name) is iq
        assert iq == scenarios.Inequality(tuple(map(Event.parse, scenarios._NAMED_TERMS[name])), name=name)
    for _ in range(2):
        with pytest.raises(InvalidInputError, match="unknown scenario"):
            named_inequality("pentagon-4")


def edge_kind(e, f):
    """Kind of the typed edge of the two-event inequality e, f, or None."""
    _, edges = exclusivity_graph(Inequality((Event.parse(e), Event.parse(f))))
    return edges[0].kind if edges else None


def test_exclusive_kinds():
    assert edge_kind("00|00", "11|01") == "A"
    assert edge_kind("00|00", "11|00") == "AB"
    assert edge_kind("00|00", "11|10") == "B"
    assert edge_kind("_1|_0", "10|11") is None


def test_exclusive_symmetric_and_wildcard_rules():
    events = ("00|00", "11|01", "_1|_0", "1_|1_", "01|21")
    for e, f in itertools.combinations(events, 2):
        assert edge_kind(e, f) == edge_kind(f, e)
    # a wildcard party never creates exclusivity, and the specified party
    # only does so at the same setting
    assert edge_kind("_1|_0", "01|11") is None
    assert edge_kind("_1|_0", "00|10") == "B"


# ------------------------------------------------------ exclusivity graphs ---


def test_typed_edges_match_event_reference_on_every_pair():
    """Every event pair of the 4 x 4 range, against the rule written on
    Event parts: a party makes two events exclusive when it fixes the same
    setting in both with different outcomes."""
    parts = [None] + [(s, o) for s in range(4) for o in (0, 1)]
    events = [Event(pa, pb) for pa in parts for pb in parts if pa is not None or pb is not None]

    def excl(p, q):
        return p is not None and q is not None and p[0] == q[0] and p[1] != q[1]

    reference = []
    for i, j in itertools.combinations(range(len(events)), 2):
        e, f = events[i], events[j]
        kind = "A" * excl(e.alice, f.alice) + "B" * excl(e.bob, f.bob)
        if kind:
            reference.append((i, j, kind))
    assert len(reference) == 616  # 81 pairs per party and setting, 32 of them exclusive for both
    g, edges = exclusivity_graph(Inequality(tuple(events)))
    assert [tuple(e) for e in edges] == reference
    assert g.edges == {(i, j) for i, j, _ in reference}


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
            assert cycle(5).adjacency[i, j] == g.adjacency[mapping[i], mapping[j]]
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


@pytest.mark.parametrize("pair", [(4, 0), (0, 4), (5, 1), (2, 7)])
def test_behavior_rejects_setting_pairs_outside_range(pair):
    # a uniform table whose last setting pair is `pair` has settings beyond
    # 0..3; the error names the lowest pair outside that range
    shape = (pair[0] + 1, pair[1] + 1)
    x, y = (0, 4) if pair[1] > 3 else (4, 0)
    with pytest.raises(InvalidInputError, match=rf"setting pair \({x}, {y}\) outside \[0,3\]"):
        Behavior(np.full((*shape, 2, 2), 0.25))
    with pytest.raises(InvalidInputError, match=r"outside \[0,3\]"):
        scenarios._checked_tables(np.full((3, *shape, 2, 2), 0.25))


def test_behavior_needs_a_setting_pair():
    for shape in ((0, 0, 2, 2), (0, 2, 2, 2), (2, 0, 2, 2)):
        with pytest.raises(InvalidInputError, match="no setting pair"):
            Behavior(np.zeros(shape))
    # an empty leading axis is an empty stack, not an empty table
    assert random_ns_tables(np.random.default_rng(0), 0).shape == (0, 2, 2, 2, 2)


def test_behavior_rejects_tables_of_the_wrong_shape():
    with pytest.raises(InvalidInputError, match=r"shape \(n_a, n_b, 2, 2\), not \(2, 2, 2\)"):
        Behavior(np.full((2, 2, 2), 0.25))
    with pytest.raises(InvalidInputError, match=r"shape \(n_a, n_b, 2, 2\), not \(1, 2, 2, 2, 2\)"):
        Behavior(random_ns_tables(np.random.default_rng(0), 1))


@pytest.mark.parametrize(
    "tables",
    [
        [[np.full((2, 2), 0.25).tolist(), [[0.5, 0.5]]]],
        np.arange(4).reshape(1, 1, 2, 2) == 0,
        [[[["0.25", "0.25"], ["0.25", "0.25"]]]],
    ],
    ids=["ragged", "one-hot-bool", "strings"],
)
def test_behavior_reads_its_entries_as_real_numbers(tables):
    with pytest.raises(InvalidInputError, match="behavior table entry must be a real number"):
        Behavior(tables)


def test_behavior_covers_every_pair_of_its_table():
    b = Behavior(np.full((3, 2, 2, 2), 0.25))
    assert b.pairs == frozenset(itertools.product(range(3), range(2)))
    assert b.prob(Event.parse("_1|_1")) == 0.5  # read at partner setting 0
    with pytest.raises(InvalidInputError, match=r"does not cover setting pair \(0,2\)"):
        b.table(0, 2)


@pytest.mark.parametrize(
    "party, block",
    [
        ("Alice", [[0.5, 0.5], [0.0, 0.0]]),  # Alice's marginal moves, Bob's does not
        ("Bob", [[0.5, 0.0], [0.5, 0.0]]),  # Bob's marginal moves, Alice's does not
    ],
)
def test_signaling_names_the_party_setting_and_the_first_offending_table(party, block):
    def signaling_at(*settings):
        """A 3x3 uniform table but for the party's marginal at each of
        `settings`, which differs at partner setting 1 from partner setting 0."""
        tables = np.full((3, 3, 2, 2), 0.25)
        for setting in settings:
            tables[(setting, 1) if party == "Alice" else (1, setting)] = block
        return tables

    with pytest.raises(InvalidInputError, match=f"no-signaling violated for {party} setting 2$"):
        Behavior(signaling_at(2))
    # one table that signals at two settings names the lower
    with pytest.raises(InvalidInputError, match=f"no-signaling violated for {party} setting 1$"):
        Behavior(signaling_at(2, 1))
    # a stack names its first offending table's setting
    stack = np.stack([np.full((3, 3, 2, 2), 0.25), signaling_at(2), signaling_at(1)])
    with pytest.raises(InvalidInputError, match=f"no-signaling violated for {party} setting 2$"):
        scenarios._checked_tables(stack)
    with pytest.raises(InvalidInputError, match=f"no-signaling violated for {party} setting 1$"):
        scenarios._checked_tables(stack[::-1])


def test_wildcards_read_at_lowest_covered_partner_setting():
    # counts at (1,0), (1,1) and (2,1) only: Bob's setting 0 is covered
    # only by Alice's setting 1, and Alice's setting 2 only by Bob's setting 1
    blocks = {
        (1, 0): [[3, 2], [1, 4]],
        (1, 1): [[2, 3], [2, 3]],
        (2, 1): [[1, 2], [3, 4]],
    }
    partial = CountTable(10, {pair: np.array(block) for pair, block in blocks.items()})
    texts = ("_1|_0", "0_|2_", "_0|_1", "11|21", "1_|2_", "_0|_0")
    iq = Inequality(tuple(Event.parse(t) for t in texts))
    cells = scenarios.term_cells(iq.terms, frozenset(partial.counts))
    assert [tuple(np.argwhere(c)[0, :2]) for c in cells] == [(1, 0), (2, 1), (1, 1), (2, 1), (2, 1), (1, 0)]
    p_hat = dict(zip(texts, (t.p_hat for t in estimate(partial, iq).terms)))
    assert p_hat["_1|_0"] == 0.6  # 2 + 4 at (1,0)
    assert p_hat["0_|2_"] == 0.3  # 1 + 2 at (2,1)
    assert p_hat["_0|_1"] == 0.4  # at (1,1), not (2,1)
    assert p_hat["11|21"] == 0.4
    # single-party expectations follow the same rule
    assert p_hat["0_|2_"] - p_hat["1_|2_"] == 0.3 - 0.7
    assert p_hat["_0|_0"] - p_hat["_1|_0"] == 0.4 - 0.6
    for text in ("00|00", "_0|_2", "0_|0_", "00|20"):
        with pytest.raises(InvalidInputError, match="setting pairs do not cover event"):
            estimate(partial, Inequality((Event.parse(text),)))


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


@pytest.mark.parametrize("alice", [(True, 0), (0.0, 1), ("0", 1)], ids=["bool", "float", "str"])
def test_strategy_reads_its_outcomes_as_integers(alice):
    with pytest.raises(InvalidInputError, match="alice outcome must be an integer"):
        DeterministicStrategy(alice, (1, 0))


def test_strategy_stores_its_outcomes_as_int_tuples():
    strategy = DeterministicStrategy([np.int64(1), 0], (1, np.int32(0)))
    assert strategy == DeterministicStrategy((1, 0), (1, 0))
    assert all(type(o) is int for o in strategy.alice + strategy.bob)


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


@pytest.mark.parametrize("field", ["alice_settings", "bob_settings"])
@pytest.mark.parametrize("declared", [2.5, 3.0, "3", True], ids=["half", "float", "string", "bool"])
def test_inequality_reads_declared_settings_strictly(field, declared):
    terms = named_inequality("pentagon-1").terms
    with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
        Inequality(terms, **{field: declared})


def test_inequality_accepts_numpy_integer_declared_settings():
    terms = named_inequality("pentagon-1").terms
    iq = Inequality(terms, alice_settings=np.int64(3), bob_settings=np.int64(2))
    assert (iq.alice_settings, iq.bob_settings) == (3, 2) and type(iq.alice_settings) is int
    assert lhv_bound(iq) == lhv_bound(Inequality(terms, alice_settings=3, bob_settings=2))


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
    for table in random_ns_tables(rng, 1000):
        b = Behavior(table)
        for name, dec in decs.items():
            assert abs(dec.predict_tables(b._p) - evaluate(named_inequality(name), b)) <= 1e-10


def test_stacked_predict_and_evaluate_match_per_behavior_loop():
    rng, ref_rng = np.random.default_rng(99), np.random.default_rng(99)
    boxes = random_ns_tables(rng, 200)
    behaviors = [Behavior(random_ns_tables(ref_rng, 1)[0]) for _ in range(200)]
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
            assert dec.predict_tables(b._p) == pytest.approx(predicted[k], abs=1e-15)
            assert evaluate(iq, b) == pytest.approx(evaluated[k], abs=1e-15)


def test_predict_needs_the_four_setting_pairs():
    dec = chsh_decomposition(named_inequality("pentagon-2"))
    assert dec.weights.shape == (2, 2, 2, 2)
    for x in range(2):
        for y in range(2):
            assert np.any(dec.weights[x, y] != 0)
    # a behavior without pair (0,1) cannot supply the table the form reads
    partial = Behavior(np.full((2, 1, 2, 2), 0.25))
    with pytest.raises(InvalidInputError, match=r"does not cover setting pair \(0,1\)"):
        for x, y in dec.coefficients:
            partial.table(x, y)
    # settings beyond 0 and 1 are not read
    wide = np.full((3, 3, 2, 2), 0.25)
    shifted = wide.copy()
    shifted[2, :] = shifted[:, 2] = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert dec.predict_tables(shifted) == pytest.approx(dec.predict_tables(wide[:2, :2]), abs=1e-15)
    # marginal terms read at partner setting 0
    marginal = chsh_decomposition(Inequality((Event.parse("00|00"),), alice_settings=2, bob_settings=2))
    box = Behavior(random_ns_tables(np.random.default_rng(4), 1)[0])
    assert marginal.predict_tables(box._p) == pytest.approx(box.table(0, 0)[0, 0], abs=1e-12)


def test_stacked_table_functions_reject_bad_shapes():
    iq = named_inequality("pentagon-2")
    dec = chsh_decomposition(iq)
    missing = {(1, 1, 2, 2): "(0,1)", (5, 2, 1, 2, 2): "(0,1)", (1, 3, 2, 2): "(1,0)", (0, 2, 2, 2): "(0,0)"}
    for shape, pair in missing.items():
        with pytest.raises(InvalidInputError, match=re.escape(f"tables do not cover setting pair {pair}")):
            dec.predict_tables(np.full(shape, 0.25))
    for shape in ((2, 2, 2), (2, 2, 3, 2), (2,), ()):
        for stacked in (dec.predict_tables, lambda tables: evaluate_tables(iq, tables)):
            with pytest.raises(InvalidInputError, match=r"tables have shape \(\.\.\., n_a, n_b, 2, 2\)"):
                stacked(np.zeros(shape))


def test_stacked_table_functions_take_an_empty_stack():
    iq = named_inequality("pentagon-2")
    for stacked in (chsh_decomposition(iq).predict_tables, lambda tables: evaluate_tables(iq, tables)):
        assert stacked(np.zeros((0, 2, 2, 2, 2))).shape == (0,)
        assert stacked(np.zeros((3, 0, 2, 2, 2, 2))).shape == (3, 0)


def _loop_weights(dec):
    """Reference: the affine tensor built one coefficient at a time."""
    s = np.array([1.0, -1.0])
    w = np.zeros((2, 2, 2, 2))
    for (x, y), c in dec.coefficients.items():
        w[x, y] += c * np.outer(s, s)
    for x, c in dec.alice_coefficients.items():
        w[x, 0] += c * s[:, None]
    for y, c in dec.bob_coefficients.items():
        w[0, y] += c * s[None, :]
    return w


def test_decomposition_weights_are_a_read_only_field_equal_to_the_coefficient_loops():
    events = [Event.parse(f"{a}{b}|{x}{y}") for a, b, x, y in itertools.product((0, 1), repeat=4)]
    events += [Event.parse(f"_{b}|_{y}") for b, y in itertools.product((0, 1), repeat=2)]
    events += [Event.parse(f"{a}_|{x}_") for a, x in itertools.product((0, 1), repeat=2)]
    inequalities = [named_inequality(name) for name in ("pentagon-1", "pentagon-2", "chsh-prob")]
    rng = np.random.default_rng(40)
    for _ in range(300):
        picks = sorted(rng.choice(len(events), size=int(rng.integers(1, 9)), replace=False).tolist())
        inequalities.append(Inequality(tuple(events[k] for k in picks), alice_settings=2, bob_settings=2))
    for iq in inequalities:
        dec = chsh_decomposition(iq)
        assert dec.weights.tobytes() == _loop_weights(dec).tobytes()
        assert "weights" not in repr(dec) and dec == chsh_decomposition(iq)
        with pytest.raises(ValueError, match="read-only"):
            dec.weights[0, 0, 0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.weights = np.zeros((2, 2, 2, 2))


def test_random_ns_tables_match_component_loop():
    components = [
        strategy_behavior(DeterministicStrategy(sa, sb))
        for sa in itertools.product((0, 1), repeat=2)
        for sb in itertools.product((0, 1), repeat=2)
    ] + [pr_box()]
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    for table in random_ns_tables(rng, 50):
        b = Behavior(table)
        weights = ref_rng.random(17)
        weights /= weights.sum()
        for x in range(2):
            for y in range(2):
                ref = sum(w * c.table(x, y) for w, c in zip(weights, components))
                assert np.max(np.abs(b.table(x, y) - ref)) <= 1e-15
    # exactly 17 draws per box: the generators stay in step
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize(
    "count, message",
    [(-1, "count must be >= 0"), (2.0, "count must be an integer"), (True, "count must be an integer")],
    ids=["negative", "float", "bool"],
)
def test_random_ns_tables_reads_count_as_a_non_negative_integer(count, message):
    with pytest.raises(InvalidInputError, match=message):
        random_ns_tables(np.random.default_rng(0), count)


@pytest.mark.parametrize("rng", [1, None, np.random.RandomState(0)], ids=["int", "none", "legacy"])
def test_random_ns_tables_needs_a_generator(rng):
    with pytest.raises(InvalidInputError, match="rng must be a numpy Generator"):
        random_ns_tables(rng, 5)


def test_random_ns_tables_with_count_zero_draws_nothing():
    rng = np.random.default_rng(5)
    assert random_ns_tables(rng, 0).shape == (0, 2, 2, 2, 2)
    assert random_ns_tables(rng, np.int64(1)).tobytes() == random_ns_tables(np.random.default_rng(5), 1).tobytes()


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
    assert evaluate(named_inequality("pentagon-2"), box) > odd_cycle_theta(5)  # past the exclusivity cap


# ----------------------------------------------------- exclusivity principle ---


def _events_2x2():
    """The 24 events over 2 x 2 settings: 16 two-party, then 8 one-party."""
    parts = [(x, a) for x in (0, 1) for a in (0, 1)]
    return tuple(
        [Event(pa, pb) for pa in parts for pb in parts]
        + [Event(pa, None) for pa in parts]
        + [Event(None, pb) for pb in parts]
    )


def maximal_cliques(adjacent):
    """Every maximal clique of a graph (a boolean adjacency matrix), by
    Bron-Kerbosch with pivoting."""
    neighbours = [set(np.flatnonzero(row).tolist()) for row in adjacent]
    cliques = []

    def expand(clique, candidates, excluded):
        if not candidates and not excluded:
            cliques.append(clique)
            return
        pivot = max(candidates | excluded, key=lambda v: len(neighbours[v] & candidates))
        for v in sorted(candidates - neighbours[pivot]):
            expand(clique + [v], candidates & neighbours[v], excluded & neighbours[v])
            candidates, excluded = candidates - {v}, excluded | {v}

    expand([], set(range(len(adjacent))), set())
    return cliques


def test_no_signaling_boxes_obey_local_orthogonality():
    # Two-party no-signaling implies local orthogonality: pairwise
    # exclusive events sum to at most 1 (Fritz et al., Nat. Commun. 4, 2263,
    # 2013).  A clique sum is linear in the box, so the 24 vertices of the
    # 2x2 no-signaling polytope, the 16 deterministic boxes and the 8 PR
    # boxes a xor b = xy xor alpha x xor beta y xor gamma, bound it on every
    # Behavior over these events; on each vertex the largest sum is 1.
    events = _events_2x2()
    g, _ = exclusivity_graph(Inequality(events))
    cliques = maximal_cliques(g.adjacency)
    assert len(cliques) == 32
    x, y, a, b = np.indices((2, 2, 2, 2))
    pr_boxes = [
        0.5 * ((a ^ b) == ((x & y) ^ (alpha * x) ^ (beta * y) ^ gamma))
        for alpha, beta, gamma in itertools.product((0, 1), repeat=3)
    ]
    vertices = [*scenarios._deterministic(2, 2)[1], *pr_boxes]
    assert len({table.tobytes() for table in vertices}) == 24
    for table in vertices:
        probs = Behavior(table).probs(events)
        assert abs(max(probs[clique].sum() for clique in cliques) - 1.0) <= scenarios._ATOL


def test_chsh_cap():
    assert chsh_cap(named_inequality("pentagon-2")) == pytest.approx(4 * math.sqrt(5) - 6, abs=1e-6)


def test_chsh_cap_is_the_closed_form_without_a_solve(monkeypatch):
    from pentabell import theta

    def no_solve(*args, **kwargs):
        raise AssertionError("chsh_cap solved an SDP")

    monkeypatch.setattr(theta, "lovasz_theta", no_solve)
    assert abs(chsh_cap(named_inequality("pentagon-2")) - (4 * math.sqrt(5) - 6)) <= 1e-12


def test_chsh_caps_only_pentagons():
    # five terms and five edges, but a 4-cycle with a pendant vertex, not C5
    iq = Inequality(tuple(Event.parse(t) for t in ("00|00", "11|00", "00|01", "11|01", "00|10")))
    g, _ = exclusivity_graph(iq)
    assert len(g.edges) == 5 and sorted(g.adjacency.sum(axis=1).tolist()) == [1, 2, 2, 2, 3]
    assert chsh_cap(iq) is None
    # pentagon-1 has marginal terms, chsh-prob is no pentagon, and
    # pentagon-3 and i3322 reach beyond the 2x2 settings
    for name in ("pentagon-1", "pentagon-3", "chsh-prob", "i3322"):
        assert chsh_cap(named_inequality(name)) is None


def test_chsh_cap_on_every_induced_pentagon_of_the_2x2_events():
    # 128 induced 5-cycles; the cap exists exactly on the 64 correlator-only
    # ones, and each of those weighs its four correlators by one magnitude
    events = _events_2x2()
    g, _ = exclusivity_graph(Inequality(events))
    cycles = scenarios._induced_five_cycles(g.adjacency, range(len(events)))
    assert len(cycles) == 128
    capped = 0
    for row in cycles.tolist():
        iq = Inequality(tuple(events[k] for k in row))
        dec = chsh_decomposition(iq)
        cap = chsh_cap(iq)
        assert (cap is not None) == dec.correlator_only
        if dec.correlator_only:
            magnitudes = {abs(c) for c in dec.coefficients.values()}
            assert len(magnitudes) == 1 and 0.0 not in magnitudes
            assert cap == (odd_cycle_theta(5) - dec.offset) / magnitudes.pop()
            capped += 1
    assert capped == 64


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


@pytest.mark.parametrize(
    "settings, names",
    [
        ((2, 2), PENTAGONS[:2]),
        ((3, 2), PENTAGONS),
        ((2, 3), PENTAGONS),
        ((3, 3), PENTAGONS),
        ((4, 4), PENTAGONS),  # more settings than the default range finds no new class
    ],
    ids=["2x2", "3x2", "2x3", "3x3", "4x4"],
)
def test_enumerate_exactly_three_classes(settings, names):
    classes = enumerate_pentagonal(*settings)
    assert len(classes) == len(names)
    found = {canonical_form(iq.terms) for iq in classes}
    assert found == {canonical_form(named_inequality(n).terms) for n in names}


def test_enumerate_raises_on_a_cycle_outside_the_named_classes(monkeypatch):
    # with "pentagon-3" resolving to pentagon-2, pentagon-3's class is no
    # named class, and its cycles in the (3, 3) range are out of class
    named = scenarios.named_inequality
    monkeypatch.setattr(scenarios, "named_inequality", lambda k: named("pentagon-2" if k == "pentagon-3" else k))
    with pytest.raises(AssertionError, match="outside the three named pentagon classes"):
        enumerate_pentagonal(3, 3)


@pytest.mark.parametrize("settings", [(0, 3), (1, 1), (3, 1), (1, 4)])
def test_enumerate_finds_nothing_where_a_party_lacks_two_settings(settings):
    # at (0, 3) the start 00|00 does not exist
    assert enumerate_pentagonal(*settings) == []


@pytest.mark.parametrize("settings", [(-1, 3), (3, -1), (5, 3), (3, 5), (2.5, 3), (3, "3"), (True, 3)])
def test_enumerate_rejects_a_setting_count_outside_zero_to_four(settings):
    with pytest.raises(InvalidInputError, match="settings"):
        enumerate_pentagonal(*settings)


def test_enumerate_accepts_numpy_integer_setting_counts():
    assert enumerate_pentagonal(np.int64(3), np.int64(2)) == enumerate_pentagonal(3, 2)


def _petersen():
    """The Kneser graph K(5, 2): pairs of {0..4}, adjacent when disjoint."""
    pairs = list(itertools.combinations(range(5), 2))
    return graph(10, [(i, j) for (i, p), (j, q) in itertools.combinations(enumerate(pairs), 2) if not set(p) & set(q)])


@pytest.mark.parametrize(
    "g, count",
    [
        (cycle(5), 1),
        (_petersen(), 12),
        (exclusivity_graph(named_inequality("chsh-prob"))[0], 8),
        (exclusivity_graph(named_inequality("i3322"))[0], 3),
    ],
    ids=["C5", "petersen", "chsh-prob", "i3322"],
)
def test_induced_five_cycles_match_brute_force(g, count):
    adjacent = g.adjacency
    # reference: the 5-subsets that induce a 2-regular graph, which on five
    # vertices is C5
    reference = {
        frozenset(c) for c in itertools.combinations(range(g.n), 5) if all(adjacent[v, list(c)].sum() == 2 for v in c)
    }
    assert len(reference) == count
    for starts in (range(g.n), [0], [1, 3], range(0, g.n, 2), []):
        cycles = scenarios._induced_five_cycles(adjacent, starts).tolist()
        through = {c for c in reference if c & set(starts)}
        assert len(cycles) == len(through)  # each cycle once, however many starts it holds
        assert {frozenset(c) for c in cycles} == through
        for c in cycles:
            assert all(adjacent[c[k], c[(k + 1) % 5]] for k in range(5))
            assert c[0] == min(set(c) & set(starts)) and c[1] < c[4]


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


def _reference_codes(keys):
    """Event codes of a tuple of reference keys: a party's part is 2 *
    setting + outcome, or 8 for a wildcard, and an event is 9 * Alice's part
    + Bob's part.  The keys' order is kept, so a canonical form sorted by
    key matches one sorted by code only if codes order events as keys do."""
    part = lambda wildcard, setting, outcome: 8 if wildcard else 2 * setting + outcome
    return tuple(9 * part(*key[:3]) + part(*key[3:]) for key in keys)


@pytest.mark.parametrize(
    "settings, count",
    [((2, 2), 128), ((3, 2), 320), ((2, 3), 320), ((3, 3), 512), ((4, 4), 512)],
    ids=["2x2", "3x2", "2x3", "3", "4"],
)
def test_integer_canonical_form_matches_event_reference_on_every_five_cycle(settings, count):
    """Every induced 5-cycle of the range, found by a loop over all vertices,
    lies in a class that the enumeration's search through its start events
    reaches, also where one party has fewer settings than the other."""
    events = [
        Event(pa, pb)
        for pa in [None] + [(x, a) for x in range(settings[0]) for a in (0, 1)]
        for pb in [None] + [(y, b) for y in range(settings[1]) for b in (0, 1)]
        if pa is not None or pb is not None
    ]
    n = len(events)
    g, _ = exclusivity_graph(Inequality(tuple(events)))
    adjacent = g.adjacency.tolist()
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
    assert len(found) == count
    canon = {}
    for member in found:
        if member not in canon:
            orbit = _reference_orbit(member)
            least = min(tuple(sorted(_reference_key(e) for e in image)) for image in orbit)
            canon.update((image, _reference_codes(least)) for image in orbit)
    for member in found:
        assert canonical_form(tuple(member)) == canon[member]
    classes = enumerate_pentagonal(*settings)
    assert {canonical_form(iq.terms) for iq in classes} == set(canon.values())


def test_canonical_form_matches_event_reference_on_named_inequalities():
    for name in ("pentagon-1", "pentagon-2", "pentagon-3", "chsh-prob", "i3322"):
        orbit = _reference_orbit(_reference_compact(named_inequality(name).terms))
        least = min(tuple(sorted(_reference_key(e) for e in image)) for image in orbit)
        assert canonical_form(named_inequality(name).terms) == _reference_codes(least)


# ------------------------------------------------------------ file formats ---


def test_scenario_json_roundtrip(tmp_path):
    # i3322 with its two wildcard terms and declared settings
    pairs = [
        ([0, 1], [0, 1]), ([0, 1], [1, 1]), ([1, 0], [0, 0]), ([1, 1], [1, 0]), ([0, 0], [2, 0]),
        ([2, 0], [0, 0]), ([2, 0], [1, 0]), ([2, 1], [2, 0]), (None, [2, 1]), ([2, 1], None),
    ]
    terms = [{"alice": a, "bob": b} for a, b in pairs]
    path = tmp_path / "scenario.json"
    save_json({"name": "i3322", "alice_settings": 3, "bob_settings": 3, "terms": terms}, path)
    loaded, iq = load_scenario(path), named_inequality("i3322")
    assert (loaded.name, loaded.terms) == ("i3322", iq.terms)
    assert (loaded.alice_settings, loaded.bob_settings) == (iq.alice_settings, iq.bob_settings) == (3, 3)


def test_scenario_json_validation():
    with pytest.raises(InvalidInputError):
        scenario_from_json({"nope": 1})
    with pytest.raises(InvalidInputError):
        scenario_from_json(
            {"terms": [{"alice": [0, 0], "bob": [0, 0]}, {"alice": [0, 0], "bob": [0, 0]}]}
        )
