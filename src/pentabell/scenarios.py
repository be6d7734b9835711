"""Bipartite Bell events and the combinatorics built on them.

Covers the event model (including single-party "wildcard" events such as
_1|_0, where only Bob's setting and outcome are fixed), exclusivity-graph
extraction with typed edges, classical bounds by deterministic-strategy
enumeration, correlator decomposition, the PR box, exclusivity-principle
checks, and the enumeration of all pentagonal inequalities up to relabeling.

An inequality's terms have one numeric form: `term_cells` resolves each
event once into 0/1 cells c[t, x, y, a, b] over the covered setting pairs,
placing a wildcard event at its lowest covered partner setting.  A Behavior
is one dense (n_a, n_b, 2, 2) table, so probabilities, `evaluate` and
`eprinciple_check` are contractions of those cells; `simkit` reads count
tables the same way.  Summed over the terms, the cells are the coefficient
tensor W[x, y, a, b] (`coefficient_tensor`) that the LHV bound (against the
stacked tables of all deterministic strategies), the correlator
decomposition and every quantum Bell operator and see-saw update read.  The
same contractions run over a leading axis of tables, validated once by
`_checked_tables`.

The enumeration works on integer event codes, on which the equivalence
group acts through precomputed index maps.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import CapacityError, InvalidInputError, json_decoder, load_json, save_json, strict_int, strict_pair
from .graphs import Graph, cycle, graph
from .theta import odd_cycle_theta

MAX_SETTING = 3  # setting indices 0..3


@dataclass(frozen=True)
class Event:
    """One measurement event: optional (setting, outcome) per party.

    A party set to None is a wildcard: the event does not constrain that
    party at all (a marginal-probability event).
    """

    alice: Optional[tuple]
    bob: Optional[tuple]

    def __post_init__(self):
        if self.alice is None and self.bob is None:
            raise InvalidInputError("event must fix at least one party")
        for label, part in (("alice", self.alice), ("bob", self.bob)):
            if part is None:
                continue
            part = (int(part[0]), int(part[1]))
            object.__setattr__(self, label, part)
            setting, outcome = part
            if outcome not in (0, 1):
                raise InvalidInputError(f"{label} outcome {outcome} not in {{0,1}}")
            if not 0 <= setting <= MAX_SETTING:
                raise InvalidInputError(f"{label} setting {setting} outside [0,{MAX_SETTING}]")

    @classmethod
    def parse(cls, text: str) -> "Event":
        """Parse "ab|xy" with '_' for a wildcard party, e.g. "_1|_0"."""
        t = text.strip()
        if len(t) != 5 or t[2] != "|":
            raise InvalidInputError(f"cannot parse event {text!r}")
        a, b, x, y = t[0], t[1], t[3], t[4]
        if (a == "_") != (x == "_") or (b == "_") != (y == "_"):
            raise InvalidInputError(f"wildcard must blank both outcome and setting: {text!r}")
        alice = None if a == "_" else (int(x), int(a))
        bob = None if b == "_" else (int(y), int(b))
        return cls(alice, bob)

    def __str__(self):
        a, x = ("_", "_") if self.alice is None else (str(self.alice[1]), str(self.alice[0]))
        b, y = ("_", "_") if self.bob is None else (str(self.bob[1]), str(self.bob[0]))
        return f"{a}{b}|{x}{y}"


@dataclass(frozen=True)
class Inequality:
    """Unit-weight sum of event probabilities.

    A declared alice_settings or bob_settings lies in [1, MAX_SETTING + 1]
    and covers every setting a term names; an undeclared one is the number
    the terms need (at least 1).
    """

    terms: tuple
    name: str = ""
    alice_settings: Optional[int] = None
    bob_settings: Optional[int] = None

    def __post_init__(self):
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        if len(set(terms)) != len(terms):
            raise InvalidInputError("inequality has duplicate events")
        if not terms:
            raise InvalidInputError("inequality needs at least one term")
        need_a = 1 + max((e.alice[0] for e in terms if e.alice is not None), default=-1)
        need_b = 1 + max((e.bob[0] for e in terms if e.bob is not None), default=-1)
        for label, declared, needed in (
            ("alice_settings", self.alice_settings, need_a),
            ("bob_settings", self.bob_settings, need_b),
        ):
            if declared is None:
                object.__setattr__(self, label, max(needed, 1))
            elif not 1 <= declared <= MAX_SETTING + 1:
                raise InvalidInputError(f"{label}={declared} outside [1,{MAX_SETTING + 1}]")
            elif declared < needed:
                raise InvalidInputError(f"{label}={declared} but a term references setting {needed - 1}")


@dataclass(frozen=True)
class DeterministicStrategy:
    """One outcome per setting for each party."""

    alice: tuple
    bob: tuple


class TypedEdge(NamedTuple):
    i: int
    j: int
    kind: str  # 'A', 'B' or 'AB'


def _dense_shape(pairs) -> tuple:
    """(n_a, n_b) of a dense table over the setting pairs; a pair outside
    [0, MAX_SETTING] is rejected."""
    flat = [s for pair in pairs for s in pair]
    if flat and (min(flat) < 0 or max(flat) > MAX_SETTING):
        bad = min(pair for pair in pairs if min(pair) < 0 or max(pair) > MAX_SETTING)
        raise InvalidInputError(f"setting pair {bad} outside [0,{MAX_SETTING}]")
    return 1 + max(flat[0::2], default=-1), 1 + max(flat[1::2], default=-1)


@functools.lru_cache(maxsize=64)
def _all_pairs(n_a: int, n_b: int) -> frozenset:
    """Every setting pair of an n_a x n_b table."""
    return frozenset(itertools.product(range(n_a), range(n_b)))


def _lowest_partners(pairs):
    """The lowest covered Bob setting of each covered Alice setting and the
    lowest covered Alice setting of each covered Bob setting.

    A wildcard event is read at its party's lowest covered partner setting,
    and no-signaling is checked against the marginal found there.
    """
    first_y, first_x = {}, {}
    for x, y in sorted(pairs):
        first_y.setdefault(x, y)
        first_x.setdefault(y, x)
    return first_y, first_x


@functools.lru_cache(maxsize=1024)
def term_cells(terms: tuple, pairs: frozenset) -> np.ndarray:
    """Read-only 0/1 cells c[t, x, y, a, b] of each event over the covered
    setting pairs (the dense shape of `_dense_shape`).

    A two-party event is one cell; a wildcard event is the other party's two
    cells at its lowest covered partner setting.  Every probability, count
    and classical score of an event is the contraction of its cells with a
    table, so this is the one place a wildcard is placed.
    """
    first_y, first_x = _lowest_partners(pairs)
    cells = np.zeros((len(terms), *_dense_shape(pairs), 2, 2))
    for t, event in enumerate(terms):
        x, a = event.alice or (first_x.get(event.bob[0]), slice(None))
        y, b = event.bob or (first_y.get(x), slice(None))
        if (x, y) not in pairs:
            raise InvalidInputError(f"setting pairs do not cover event {event}")
        cells[t, x, y, a, b] = 1.0
    cells.flags.writeable = False
    return cells


def coefficient_tensor(iq: Inequality, alice_settings: int, bob_settings: int) -> np.ndarray:
    """Coefficient tensor W[x, y, a, b] of the inequality over the first
    alice_settings x bob_settings settings: its term cells summed, so its
    value on a dense table P is sum(W * P).  Raises InvalidInputError when a
    term references a setting outside that range."""
    return term_cells(iq.terms, _all_pairs(alice_settings, bob_settings)).sum(axis=0)


_ATOL = 1e-9  # normalization and no-signaling tolerance of a probability table


def _checked_tables(tables, pairs=None):
    """Validated copy of a dense (..., n_a, n_b, 2, 2) stack of probability
    tables over (x, y, a, b) at the covered setting pairs `pairs` (default:
    every pair of the shape), with the frozenset of covered pairs.

    Every leading axis is validated at once: setting pairs within
    [0, MAX_SETTING] spanning the table's shape, finite entries,
    non-negativity, normalization and no-signaling (each party's marginal at
    every covered pair against its marginal at the lowest covered partner
    setting), each within _ATOL, at the covered pairs.  Each condition is
    checked over the whole stack before the next, and the first offending
    table in C order raises InvalidInputError naming the setting pair or
    party setting, so a stack of one table fails exactly as that table does.
    Entries are clipped at 0; uncovered pairs hold zeros.
    """
    tables = np.asarray(tables, dtype=float)
    lead, shape = tables.shape[:-4], tables.shape[-4:-2]
    pairs = _all_pairs(*shape) if pairs is None else frozenset((int(x), int(y)) for x, y in pairs)
    if pairs and _dense_shape(pairs) != shape:
        raise InvalidInputError(f"setting pairs span {_dense_shape(pairs)}, not the table's {shape}")
    keys = sorted(pairs)
    k, full = len(keys), len(keys) == shape[0] * shape[1]
    xs, ys = np.array(keys, dtype=int).reshape(-1, 2).T
    flat = tables.reshape((int(np.prod(lead)),) + shape + (2, 2))
    blocks = flat.reshape(len(flat), k, 2, 2) if full else flat[:, xs, ys]
    nonfinite = ~np.isfinite(blocks).all(axis=(2, 3))
    negative = (blocks < -1e-12).any(axis=(2, 3))
    bad = nonfinite | negative | (np.abs(blocks.sum(axis=(2, 3)) - 1.0) > _ATOL)
    if bad.any():
        box, i = divmod(int(bad.argmax()), k)
        x, y = keys[i]
        if nonfinite[box, i]:
            raise InvalidInputError(f"non-finite probability at setting pair ({x},{y})")
        if negative[box, i]:
            raise InvalidInputError(f"negative probability at setting pair ({x},{y})")
        raise InvalidInputError(f"probabilities at ({x},{y}) sum to {blocks[box, i].sum()}, not 1")
    if full:
        p = np.maximum(flat, 0.0)
    else:
        p = np.zeros(flat.shape)
        p[:, xs, ys] = np.maximum(blocks, 0.0)
    first_y, first_x = _lowest_partners(pairs)
    alice, bob = p.sum(axis=4), p.sum(axis=3)
    for label, settings, here, there in (
        ("Alice", xs, alice[:, xs, ys], alice[:, xs, [first_y[x] for x in xs.tolist()]]),
        ("Bob", ys, bob[:, xs, ys], bob[:, [first_x[y] for y in ys.tolist()], ys]),
    ):
        violated = np.abs(here - there).max(axis=2) > _ATOL
        if violated.any():
            box = int(violated.any(axis=1).argmax())
            raise InvalidInputError(f"no-signaling violated for {label} setting {settings[violated[box]].min()}")
    p = p.reshape(tables.shape)
    p.flags.writeable = False
    return p, pairs


class Behavior:
    """Probability table P(ab|xy) with derived marginals and correlators.

    Built from one dense (n_a, n_b, 2, 2) array over (x, y, a, b) and the
    covered setting pairs (default: every pair of the shape); uncovered
    pairs hold zeros.  Construction validates the table with
    `_checked_tables` (setting pairs, finiteness, normalization,
    non-negativity and no-signaling, each within 1e-9); an offending table
    is rejected.
    """

    def __init__(self, tables, pairs=None):
        if np.shape(tables)[2:] != (2, 2):
            raise InvalidInputError(f"a behavior's table has shape (n_a, n_b, 2, 2), not {np.shape(tables)}")
        self._p, self._pairs = _checked_tables(tables, pairs)

    @property
    def pairs(self) -> frozenset:
        """The covered setting pairs (x, y)."""
        return self._pairs

    def table(self, x: int, y: int) -> np.ndarray:
        if (x, y) not in self._pairs:
            raise InvalidInputError(f"behavior does not cover setting pair ({x},{y})")
        return self._p[x, y]

    def probs(self, events) -> np.ndarray:
        """Probability of each event: its cells (see term_cells) contracted
        with the table, so wildcard parties are marginalized out."""
        cells = term_cells(tuple(events), self._pairs)
        return cells.reshape(len(cells), -1) @ self._p.reshape(-1)

    def prob(self, event: Event) -> float:
        """Probability of an event; wildcard parties are marginalized out."""
        return float(self.probs((event,))[0])

    def correlator(self, x: int, y: int) -> float:
        p = self.table(x, y)
        return float(p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1])


def _strategy_tables(alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """0/1 tables (..., n_a, n_b, 2, 2) of deterministic strategies given by
    their (..., n_a) and (..., n_b) integer outcome arrays: one outer
    product of one-hot outcomes."""
    a, b = np.eye(2)[alice], np.eye(2)[bob]
    return a[..., :, None, :, None] * b[..., None, :, None, :]


def strategy_behavior(strategy: DeterministicStrategy) -> Behavior:
    """Deterministic 0/1 behavior produced by a local strategy on all its
    settings."""
    for party, outcomes in (("alice", strategy.alice), ("bob", strategy.bob)):
        if any(o not in (0, 1) for o in outcomes):
            raise InvalidInputError(f"{party} outcomes {outcomes} are not all 0 or 1")
    return Behavior(_strategy_tables(np.array(strategy.alice, dtype=int), np.array(strategy.bob, dtype=int)))


def pr_box() -> Behavior:
    """The no-signaling box with E_00 = E_01 = E_10 = 1 and E_11 = -1."""
    return Behavior(_ns_vertices()[-1])


@functools.cache
def _deterministic(n_a: int, n_b: int):
    """Every local deterministic strategy for n_a x n_b settings, in
    itertools.product order (Alice's outcomes outer), with the read-only
    (2**(n_a+n_b), n_a, n_b, 2, 2) stack of their 0/1 tables."""
    strategies = tuple(
        DeterministicStrategy(sa, sb)
        for sa in itertools.product((0, 1), repeat=n_a)
        for sb in itertools.product((0, 1), repeat=n_b)
    )
    alice = np.array([s.alice for s in strategies], dtype=int).reshape(-1, n_a)
    bob = np.array([s.bob for s in strategies], dtype=int).reshape(-1, n_b)
    tables = _strategy_tables(alice, bob)
    tables.flags.writeable = False
    return strategies, tables


_PAIRS_2X2 = ((0, 0), (0, 1), (1, 0), (1, 1))


@functools.cache
def _ns_vertices() -> np.ndarray:
    """Read-only (17, 2, 2, 2, 2) stack over (box, x, y, a, b): the 16
    deterministic 2x2 behaviors, then the PR box, 1/2 where a xor b = x and
    y and 0 elsewhere."""
    x, y, a, b = np.indices((2, 2, 2, 2))
    stack = np.concatenate([_deterministic(2, 2)[1], [0.5 * ((a ^ b) == (x & y))]])
    stack.flags.writeable = False
    return stack


def random_ns_tables(rng: np.random.Generator, count: int) -> np.ndarray:
    """Validated (count, 2, 2, 2, 2) stack over (box, x, y, a, b) of random
    points of the 2x2 no-signaling polytope.

    Each box is a convex mixture of the 16 deterministic behaviors and the
    PR box, so it is no-signaling by construction; the weights are one
    (count, 17) draw, which takes the same numbers from rng as count calls
    of random_ns_behavior.
    """
    weights = rng.random((count, 17))
    weights /= weights.sum(axis=1, keepdims=True)
    tables = weights @ _ns_vertices().reshape(17, -1)
    return _checked_tables(tables.reshape(count, 2, 2, 2, 2))[0]


def random_ns_behavior(rng: np.random.Generator) -> Behavior:
    """Random point of the 2x2 no-signaling polytope (see random_ns_tables)."""
    return Behavior(random_ns_tables(rng, 1)[0])


def exclusive(e: Event, f: Event) -> Optional[str]:
    """Exclusivity kind of an event pair: 'A', 'B', 'AB', or None.

    Two events are exclusive when some party measures the same setting in
    both but with different outcomes.  Wildcard parties never contribute.
    """
    a_excl = (
        e.alice is not None
        and f.alice is not None
        and e.alice[0] == f.alice[0]
        and e.alice[1] != f.alice[1]
    )
    b_excl = (
        e.bob is not None
        and f.bob is not None
        and e.bob[0] == f.bob[0]
        and e.bob[1] != f.bob[1]
    )
    if a_excl and b_excl:
        return "AB"
    if a_excl:
        return "A"
    if b_excl:
        return "B"
    return None


def exclusivity_graph(iq: Inequality):
    """Graph over the inequality's terms plus the typed edge list."""
    n = len(iq.terms)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            kind = exclusive(iq.terms[i], iq.terms[j])
            if kind is not None:
                edges.append(TypedEdge(i, j, kind))
    return graph(n, [(e.i, e.j) for e in edges]), edges


def lhv_bound(iq: Inequality):
    """Exact deterministic-strategy maximum of the term count, with witness.

    One contraction of the inequality's coefficient tensor with the tables of
    all 2**(n_a+n_b) strategies over its declared alice_settings x
    bob_settings (at most 4 x 4); the witness is the first maximum in
    itertools.product order.
    """
    n_a, n_b = iq.alice_settings, iq.bob_settings
    coefficients = coefficient_tensor(iq, n_a, n_b)
    strategies, tables = _deterministic(n_a, n_b)
    scores = tables.reshape(len(strategies), -1) @ coefficients.reshape(-1)
    best = int(scores.argmax())
    return int(scores[best]), strategies[best]


def evaluate(iq: Inequality, behavior: Behavior) -> float:
    """Sum of the term probabilities under the behavior (see evaluate_tables)."""
    return float(evaluate_tables(iq, behavior._p, behavior._pairs))


def evaluate_tables(iq: Inequality, tables: np.ndarray, pairs: Optional[frozenset] = None) -> np.ndarray:
    """Inequality value of each table of a dense (..., n_a, n_b, 2, 2)
    stack: one contraction with the summed cells of its terms (term_cells
    over `pairs`, by default every setting pair of the shape)."""
    tables = np.asarray(tables, dtype=float)
    if pairs is None:
        pairs = _all_pairs(*tables.shape[-4:-2])
    weights = term_cells(iq.terms, pairs).sum(axis=0)
    return tables.reshape(tables.shape[:-4] + (-1,)) @ weights.reshape(-1)


@dataclass(frozen=True)
class CorrelatorDecomposition:
    """Affine form: value = offset + sum c_xy E_xy (+ marginal terms).

    correlator_only is True when the marginal coefficients vanish, i.e. the
    inequality is a rescaled, shifted combination of correlators alone.
    """

    offset: float
    coefficients: dict
    correlator_only: bool
    residual: float
    alice_coefficients: dict = field(default_factory=dict)
    bob_coefficients: dict = field(default_factory=dict)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Read-only (2, 2, 2, 2) tensor w[x, y, a, b] with value = offset +
        sum w * P over the four setting pairs: c_xy s_a s_b for the
        correlators (s = +1, -1), plus the marginal coefficients on each
        party's outcomes at partner setting 0, where every table covering
        the four pairs reads its marginals."""
        s = np.array([1.0, -1.0])
        w = np.zeros((2, 2, 2, 2))
        for (x, y), c in self.coefficients.items():
            w[x, y] += c * np.outer(s, s)
        for x, c in self.alice_coefficients.items():
            w[x, 0] += c * s[:, None]
        for y, c in self.bob_coefficients.items():
            w[0, y] += c * s[None, :]
        w.flags.writeable = False
        return w

    def predict(self, behavior: Behavior) -> float:
        """The affine form on a behavior that covers the four setting pairs."""
        for x, y in self.coefficients:
            behavior.table(x, y)  # raises for an uncovered pair
        return float(self.predict_tables(behavior._p))

    def predict_tables(self, tables: np.ndarray) -> np.ndarray:
        """The affine form on each table of a dense (..., n_a, n_b, 2, 2)
        stack whose settings 0 and 1 cover the four pairs."""
        block = np.asarray(tables, dtype=float)[..., :2, :2, :, :]
        return self.offset + block.reshape(block.shape[:-4] + (16,)) @ self.weights.reshape(16)


def chsh_decomposition(iq: Inequality) -> CorrelatorDecomposition:
    """Express a 2x2-setting inequality in correlators and, where needed,
    single-party expectations, by exact sums over its coefficient tensor.

    On a no-signaling table P(ab|xy) = (1 + s_a A_x + s_b B_y + s_a s_b
    E_xy)/4 with s = (+1, -1), so with W the coefficient tensor the offset
    is sum W/4, c_xy = sum_ab s_a s_b W[x, y, a, b]/4, a_x = sum s_a W[x]/4
    and b_y = sum s_b W[:, y]/4.  These are exact multiples of 1/4, and the
    inequality is correlator-only when every marginal sum is zero.  The
    residual replays the form on the 16 deterministic behaviors.
    """
    for t in iq.terms:
        if (t.alice is not None and t.alice[0] > 1) or (t.bob is not None and t.bob[0] > 1):
            raise InvalidInputError("correlator decomposition needs a 2x2-setting inequality")

    w = coefficient_tensor(iq, 2, 2)
    s = np.array([1.0, -1.0])
    offset = float(w.sum()) / 4.0
    c = np.einsum("xyab,a,b->xy", w, s, s) / 4.0
    alice, bob = np.einsum("xyab,a->x", w, s) / 4.0, np.einsum("xyab,b->y", w, s) / 4.0
    correlator_only = not (alice.any() or bob.any())

    _, tables = _deterministic(2, 2)
    sa, sb = np.einsum("sxyab,a->sxy", tables, s), np.einsum("sxyab,b->sxy", tables, s)
    form = offset + (sa * sb).reshape(16, 4) @ c.reshape(4) + sa[:, :, 0] @ alice + sb[:, 0, :] @ bob
    return CorrelatorDecomposition(
        offset=offset,
        coefficients=dict(zip(_PAIRS_2X2, c.reshape(4).tolist())),
        correlator_only=correlator_only,
        residual=float(np.max(np.abs(form - tables.reshape(16, -1) @ w.reshape(-1)))),
        alice_coefficients={} if correlator_only else dict(enumerate(alice.tolist())),
        bob_coefficients={} if correlator_only else dict(enumerate(bob.tolist())),
    )


@dataclass(frozen=True)
class EPrincipleReport:
    """Exclusivity-principle audit of a behavior against an inequality."""

    value: float
    max_clique_sum: float
    worst_clique: tuple
    pentagon_cap: Optional[float]
    chsh_cap: Optional[float]
    violated: bool


def eprinciple_check(iq: Inequality, behavior: Behavior) -> EPrincipleReport:
    """Check that pairwise-exclusive event probabilities sum to at most 1.

    All cliques of the exclusivity graph are enumerated exhaustively.  For
    pentagonal inequalities the principle additionally caps the full sum at
    the pentagon's Lovasz number, sqrt(5) from Lovasz's odd-cycle closed
    form (`theta.odd_cycle_theta`; no SDP is solved), and when the
    inequality is a pure correlator combination that cap is translated into
    a bound on the unit-coefficient correlator form.
    """
    g, _ = exclusivity_graph(iq)
    if g.n > 10:
        raise CapacityError("clique enumeration limited to 10 vertices")
    probs = behavior.probs(iq.terms).tolist()
    masks = g.adjacency_masks()
    best_sum, best_clique = 0.0, ()
    for subset in range(1, 1 << g.n):
        members = [v for v in range(g.n) if subset >> v & 1]
        if all(masks[i] >> j & 1 for i, j in itertools.combinations(members, 2)):
            s = sum(probs[v] for v in members)
            if s > best_sum:
                best_sum, best_clique = s, tuple(members)

    value = float(sum(probs))
    pentagon_cap = None
    chsh_cap = None
    if g.n == 5 and g.degrees() == [2] * 5:  # the only 2-regular simple graph on 5 vertices is C5
        pentagon_cap = odd_cycle_theta(5)
        try:
            dec = chsh_decomposition(iq)
        except InvalidInputError:
            dec = None
        if dec is not None and dec.correlator_only:
            mags = {round(abs(c), 12) for c in dec.coefficients.values()}
            if len(mags) == 1 and mags != {0.0}:
                scale = abs(next(iter(dec.coefficients.values())))
                chsh_cap = (pentagon_cap - dec.offset) / scale

    violated = best_sum > 1.0 + 1e-9 or (pentagon_cap is not None and value > pentagon_cap + 1e-9)
    return EPrincipleReport(value, best_sum, best_clique, pentagon_cap, chsh_cap, violated)


# ---------------------------------------------------------------------------
# Edge patterns of the pentagon and the enumeration of pentagonal inequalities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatternClass:
    """Orbit of an A/B edge labeling of C5 under rotation, reflection and
    the A<->B swap; canonical is the lexicographically largest member."""

    canonical: str
    members: frozenset


def _pattern_orbit(pattern: str) -> frozenset:
    variants = set()
    for s in (pattern, pattern[::-1]):
        for swap in (False, True):
            t = s.translate(str.maketrans("AB", "BA")) if swap else s
            for k in range(5):
                variants.add(t[k:] + t[:k])
    return frozenset(variants)


def edge_patterns_c5():
    """All A/B edge labelings of the pentagon reduced to symmetry classes."""
    classes = {}
    for bits in itertools.product("AB", repeat=5):
        s = "".join(bits)
        orbit = _pattern_orbit(s)
        classes[max(orbit)] = PatternClass(max(orbit), orbit)
    return sorted(classes.values(), key=lambda c: c.canonical)


def _has_triple_run(pattern: str) -> bool:
    doubled = pattern + pattern
    return any(doubled[i : i + 3] in ("AAA", "BBB") for i in range(5))


def feasible_patterns():
    """Pattern classes whose every member avoids a cyclic AAA/BBB run.

    Three same-type edges in a row would force two non-adjacent pentagon
    vertices to be exclusive, which is impossible, so such patterns cannot
    be realized by bipartite events.
    """
    return [c for c in edge_patterns_c5() if not any(_has_triple_run(m) for m in c.members)]


# Integer event codes: a party's part is 2 * setting + outcome, or 8 for a
# wildcard, and an event is 9 * alice part + bob part.  Codes order events
# as their canonical keys (wildcards last, then setting, then outcome).
_WILDCARD = 8


def _code(event: Event) -> int:
    part = lambda p: _WILDCARD if p is None else 2 * p[0] + p[1]
    return 9 * part(event.alice) + part(event.bob)


def _key(code: int) -> tuple:
    """Canonical key of an event code: (1, -1, -1) for a wildcard part, else
    (0, setting, outcome), for Alice then Bob."""
    part = lambda p: (1, -1, -1) if p == _WILDCARD else (0, p // 2, p % 2)
    return part(code // 9) + part(code % 9)


def _event_from_key(key):
    alice = None if key[0] == 1 else (key[1], key[2])
    bob = None if key[3] == 1 else (key[4], key[5])
    return Event(alice, bob)


def _compacted(codes: np.ndarray) -> np.ndarray:
    """Each row of an (N, n) code array with every party's used settings
    relabeled to 0..k-1 in order."""
    parts = []
    for part in np.divmod(codes, 9):
        setting = np.minimum(part // 2, MAX_SETTING)  # a wildcard's value is discarded below
        used = (part[..., None] // 2 == np.arange(MAX_SETTING + 1)).any(axis=-2)
        rank = np.take_along_axis(np.cumsum(used, axis=-1) - 1, setting, axis=-1)
        parts.append(np.where(part == _WILDCARD, _WILDCARD, 2 * rank + part % 2))
    return 9 * parts[0] + parts[1]


@functools.cache
def _part_maps(k: int) -> np.ndarray:
    """Read-only (k! 2^k, 9) image of each part code under every permutation
    of k settings combined with every per-setting outcome flip; codes of
    unused settings and the wildcard map to themselves."""
    maps = []
    for perm in itertools.permutations(range(k)):
        for flips in itertools.product((0, 1), repeat=k):
            m = list(range(9))
            for s, o in itertools.product(range(k), (0, 1)):
                m[2 * s + o] = 2 * perm[s] + (o ^ flips[s])
            maps.append(m)
    maps = np.array(maps)
    maps.flags.writeable = False
    return maps


def _orbit_rows(row: np.ndarray) -> np.ndarray:
    """Sorted code rows of every image of one compacted event set under the
    equivalence group: party swap x per-party setting permutation x
    per-party-setting outcome flip."""
    a, b = np.divmod(row, 9)
    maps_a = _part_maps(int(a[a != _WILDCARD].max(initial=-1)) // 2 + 1)
    maps_b = _part_maps(int(b[b != _WILDCARD].max(initial=-1)) // 2 + 1)
    images = np.concatenate(
        [
            (9 * maps_a[:, a][:, None] + maps_b[:, b][None]).reshape(-1, len(row)),
            (9 * maps_b[:, b][:, None] + maps_a[:, a][None]).reshape(-1, len(row)),
        ]
    )
    images.sort(axis=1)
    return images


def _lexmin(rows: np.ndarray) -> np.ndarray:
    for col in range(rows.shape[1]):
        rows = rows[rows[:, col] == rows[:, col].min()]
    return rows[0]


def canonical_form(terms):
    """Canonical encoding of an event set modulo the equivalence group: the
    lexicographically least sorted image, as a tuple of event keys."""
    codes = np.unique([_code(e) for e in terms])
    return tuple(_key(c) for c in _lexmin(_orbit_rows(_compacted(codes[None])[0])).tolist())


def _induced_five_cycles(adjacent: np.ndarray) -> np.ndarray:
    """(N, 5) vertex indices of every induced 5-cycle of a graph, each
    undirected cycle once: v0 is its smallest vertex and v1 < v4."""
    n = len(adjacent)
    idx = np.arange(n)
    v0, v1, v2 = np.nonzero(
        adjacent[:, :, None]
        & adjacent[None, :, :]
        & ~adjacent[:, None, :]
        & (idx[:, None, None] < idx[None, :, None])
        & (idx[:, None, None] < idx[None, None, :])
    )
    path, v3 = np.nonzero(adjacent[v2] & ~adjacent[v0] & ~adjacent[v1] & (idx > v0[:, None]))
    v0, v1, v2 = v0[path], v1[path], v2[path]
    path, v4 = np.nonzero(adjacent[v3] & adjacent[v0] & ~adjacent[v1] & ~adjacent[v2] & (idx > v1[:, None]))
    return np.stack([v0[path], v1[path], v2[path], v3[path], v4])


def enumerate_pentagonal(max_alice_settings: int = 3, max_bob_settings: int = 3):
    """All pentagonal Bell inequalities up to relabeling.

    Enumerates every assignment of events (wildcards included) to the five
    vertices of a cycle such that the induced exclusivity graph is exactly
    C5, then deduplicates modulo the equivalence group.  Returns one
    representative Inequality per class; representatives matching a built-in
    named inequality reuse its terms and name.
    """
    for label, count in (("bob", max_bob_settings), ("alice", max_alice_settings)):
        if count > MAX_SETTING + 1:
            raise InvalidInputError(f"{label} setting {MAX_SETTING + 1} outside [0,{MAX_SETTING}]")
    parts_a = np.array([_WILDCARD, *range(2 * max(max_alice_settings, 0))])
    parts_b = np.array([_WILDCARD, *range(2 * max(max_bob_settings, 0))])
    codes = (9 * parts_a[:, None] + parts_b[None, :]).reshape(-1)[1:]  # drops the all-wildcard code
    exclusive_parts = [
        (p[:, None] != _WILDCARD) & (p[:, None] // 2 == p[None, :] // 2) & (p[:, None] != p[None, :])
        for p in np.divmod(codes, 9)
    ]
    cycles = codes[_induced_five_cycles(exclusive_parts[0] | exclusive_parts[1]).T]
    # a sorted row of five codes is one base-81 number
    digits = 81 ** np.arange(5)
    remaining = np.unique(np.sort(_compacted(cycles), axis=1) @ digits)

    # each class is one orbit of compacted cycles: take the canonical form of
    # the first cycle left and drop its whole orbit
    canons = []
    while len(remaining):
        orbit = _orbit_rows(remaining[0] // digits % 81)
        canons.append(tuple(_key(c) for c in _lexmin(orbit).tolist()))
        remaining = remaining[~np.isin(remaining, orbit @ digits)]

    representatives = []
    named = [named_inequality(k) for k in ("pentagon-1", "pentagon-2", "pentagon-3")]
    named_by_canon = {canonical_form(iq.terms): iq for iq in named}
    for canon in sorted(canons):
        if canon in named_by_canon:
            representatives.append(named_by_canon[canon])
        else:
            representatives.append(
                Inequality(tuple(_event_from_key(k) for k in canon), name="unnamed-pentagon")
            )
    representatives.sort(key=lambda iq: iq.name)
    return representatives


# ---------------------------------------------------------------------------
# Named scenarios and the scenario file format
# ---------------------------------------------------------------------------

_NAMED_TERMS = {
    "pentagon-1": ("00|00", "11|01", "10|11", "00|10", "11|00"),
    "pentagon-2": ("00|00", "11|01", "10|11", "00|10", "_1|_0"),
    "pentagon-3": ("00|00", "11|01", "10|11", "00|10", "11|20"),
    "chsh-prob": ("00|00", "11|00", "00|01", "11|01", "00|10", "11|10", "01|11", "10|11"),
    "i3322": (
        "11|00", "11|01", "00|10", "10|11", "00|02",
        "00|20", "00|21", "10|22", "_1|_2", "1_|2_",
    ),
}

SCENARIO_NAMES = tuple(_NAMED_TERMS) + ("kcbs-graph",)


def named_inequality(name: str) -> Inequality:
    """Built-in inequality by name; see SCENARIO_NAMES."""
    if name not in _NAMED_TERMS:
        raise InvalidInputError(f"unknown scenario {name!r} (known: {', '.join(_NAMED_TERMS)})")
    return Inequality(tuple(Event.parse(t) for t in _NAMED_TERMS[name]), name=name)


def named_graph(name: str) -> Graph:
    """Built-in graph by name: the named inequalities' exclusivity graphs,
    plus "kcbs-graph" for the pentagon of the five KCBS events."""
    if name == "kcbs-graph":
        return cycle(5)
    return exclusivity_graph(named_inequality(name))[0]


def scenario_to_json(iq: Inequality) -> dict:
    return {
        "name": iq.name,
        "alice_settings": iq.alice_settings,
        "bob_settings": iq.bob_settings,
        "terms": [
            {
                "alice": None if t.alice is None else list(t.alice),
                "bob": None if t.bob is None else list(t.bob),
            }
            for t in iq.terms
        ],
    }


@json_decoder("scenario")
def scenario_from_json(data) -> Inequality:
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise InvalidInputError("scenario JSON must contain a 'terms' list")

    def party(term, label):
        return None if term.get(label) is None else strict_pair(term[label], label)

    settings = {k: strict_int(data[k], k) for k in ("alice_settings", "bob_settings") if data.get(k) is not None}
    terms = tuple(Event(party(t, "alice"), party(t, "bob")) for t in data["terms"])
    return Inequality(terms, name=str(data.get("name", "")), **settings)


def load_scenario(path) -> Inequality:
    return scenario_from_json(load_json(path))


def save_scenario(iq: Inequality, path) -> None:
    save_json(scenario_to_json(iq), path)
