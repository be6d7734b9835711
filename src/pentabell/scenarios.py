"""Bipartite Bell events and the combinatorics built on them.

Covers the event model (including single-party "wildcard" events such as
_1|_0, where only Bob's setting and outcome are fixed), exclusivity-graph
extraction with typed edges, classical bounds by deterministic-strategy
enumeration, correlator decomposition, the PR box, exclusivity-principle
checks, and the enumeration of all pentagonal inequalities up to relabeling.

An inequality's terms have one numeric form: `term_cells` resolves each
event once into 0/1 cells c[t, x, y, a, b] over the covered setting pairs,
placing a wildcard event at its lowest covered partner setting.  A Behavior
is one dense (n_a, n_b, 2, 2) table that covers every setting pair of its
shape, so a wildcard is read at partner setting 0, and probabilities,
`evaluate` and `eprinciple_check` are contractions of those cells.  Only
measured counts may cover a subset of the pairs: `simkit` reads a count
table through the same cells.  Summed over the terms, the cells are the
coefficient tensor W[x, y, a, b] (`coefficient_tensor`) that the LHV bound
(against the stacked tables of all deterministic strategies), the
correlator decomposition and every quantum Bell operator and see-saw
update read.  The same contractions run over a leading axis of tables,
validated once by `_checked_tables`.

Each input type checks its own values when it is built: an Event reads
each party's (setting, outcome) through `errors.strict_pair`, which owns
the fast path for a plain pair of ints; an Inequality requires Event
terms and reads its name through `errors.strict_text`; a
DeterministicStrategy reads each outcome through `errors.strict_int`.  The
scenario file decoder hands each term's parties, the name and the declared
setting counts straight to these constructors.

The exclusivity rule is written once, on integer event codes
(`_exclusive_parts`): the exclusivity graph and the enumeration read it,
and the exclusivity-principle check reads the exclusivity graph.  The
enumeration works on those codes throughout, and the equivalence group
acts on them through precomputed index maps.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import CapacityError, InvalidInputError, json_decoder, load_json
from .errors import strict_int, strict_iterable, strict_pair, strict_reals, strict_text
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
            setting, outcome = part = strict_pair(part, label)
            object.__setattr__(self, label, part)
            if outcome not in (0, 1):
                raise InvalidInputError(f"{label} outcome {outcome} not in {{0,1}}")
            if not 0 <= setting <= MAX_SETTING:
                raise InvalidInputError(f"{label} setting {setting} outside [0,{MAX_SETTING}]")

    @classmethod
    def parse(cls, text: str) -> "Event":
        """Parse "ab|xy" with '_' for a wildcard party, e.g. "_1|_0"."""
        t = strict_text(text, "event").strip()
        if len(t) != 5 or t[2] != "|" or not all(c in "0123456789_" for c in t[:2] + t[3:]):
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

    name is text (a number, None or a list raises).  A declared
    alice_settings or bob_settings is an integer (a bool, 2.0 or "2"
    raises) in [1, MAX_SETTING + 1] and covers every setting a term names;
    an undeclared one is the number the terms need (at least 1).
    """

    terms: tuple
    name: str = ""
    alice_settings: Optional[int] = None
    bob_settings: Optional[int] = None

    def __post_init__(self):
        strict_text(self.name, "name")
        terms = tuple(strict_iterable(self.terms, "terms"))
        object.__setattr__(self, "terms", terms)
        for k, term in enumerate(terms):
            if not isinstance(term, Event):
                raise InvalidInputError(f"term {k} is not an Event: {term!r}")
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
            declared = max(needed, 1) if declared is None else strict_int(declared, label)
            if not 1 <= declared <= MAX_SETTING + 1:
                raise InvalidInputError(f"{label}={declared} outside [1,{MAX_SETTING + 1}]")
            if declared < needed:
                raise InvalidInputError(f"{label}={declared} but a term references setting {needed - 1}")
            object.__setattr__(self, label, declared)


@dataclass(frozen=True)
class DeterministicStrategy:
    """One outcome per setting for each party, each read as an integer (a
    bool, 0.0 or "0" raises) that is 0 or 1."""

    alice: tuple
    bob: tuple

    def __post_init__(self):
        for label in ("alice", "bob"):
            values = strict_iterable(getattr(self, label), label)
            outcomes = tuple(strict_int(o, f"{label} outcome") for o in values)
            if any(o not in (0, 1) for o in outcomes):
                raise InvalidInputError(f"{label} outcomes {outcomes} are not all 0 or 1")
            object.__setattr__(self, label, outcomes)


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


@functools.lru_cache(maxsize=1024)
def term_cells(terms: tuple, pairs: frozenset) -> np.ndarray:
    """Read-only 0/1 cells c[t, x, y, a, b] of each event over the covered
    setting pairs (the dense shape of `_dense_shape`).

    A two-party event is one cell; a wildcard event is the other party's two
    cells at its lowest covered partner setting.  Every probability, count
    and classical score of an event is the contraction of its cells with a
    table, so this is the one place a wildcard is placed.  A Behavior covers
    every pair of its table, so there the partner setting is 0; only a count
    table may cover fewer pairs.
    """
    first_y, first_x = {}, {}
    for x, y in sorted(pairs):
        first_y.setdefault(x, y)
        first_x.setdefault(y, x)
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


def _checked_tables(tables) -> np.ndarray:
    """Validated read-only copy of a dense (..., n_a, n_b, 2, 2) stack of
    probability tables over (x, y, a, b), each covering every setting pair
    of its shape.

    Every leading axis is validated at once: settings within
    [0, MAX_SETTING], finite entries, non-negativity, normalization and
    no-signaling (each party's marginal at every pair against its marginal
    at partner setting 0), each within _ATOL.  Each condition is checked
    over the whole stack before the next, and the first offending table in
    C order raises InvalidInputError naming the setting pair or party
    setting, so a stack of one table fails exactly as that table does.
    Entries are clipped at 0.
    """
    tables = np.asarray(tables, dtype=float)
    lead, (n_a, n_b) = tables.shape[:-4], tables.shape[-4:-2]
    _dense_shape(_all_pairs(n_a, n_b))  # rejects a setting beyond MAX_SETTING
    blocks = tables.reshape(int(np.prod(lead)), n_a * n_b, 2, 2)
    nonfinite = ~np.isfinite(blocks).all(axis=(2, 3))
    negative = (blocks < -1e-12).any(axis=(2, 3))
    bad = nonfinite | negative | (np.abs(blocks.sum(axis=(2, 3)) - 1.0) > _ATOL)
    if bad.any():
        box, i = divmod(int(bad.argmax()), n_a * n_b)
        x, y = divmod(i, n_b)
        if nonfinite[box, i]:
            raise InvalidInputError(f"non-finite probability at setting pair ({x},{y})")
        if negative[box, i]:
            raise InvalidInputError(f"negative probability at setting pair ({x},{y})")
        raise InvalidInputError(f"probabilities at ({x},{y}) sum to {blocks[box, i].sum()}, not 1")
    p = np.maximum(blocks, 0.0).reshape(len(blocks), n_a, n_b, 2, 2)
    alice, bob = p.sum(axis=4), p.sum(axis=3)
    for label, axis, drift in (("Alice", 0, alice - alice[:, :, :1]), ("Bob", 1, bob - bob[:, :1])):
        violated = (np.abs(drift) > _ATOL).any(axis=3)
        if violated.any():
            setting = np.nonzero(violated[int(violated.any(axis=(1, 2)).argmax())])[axis].min()
            raise InvalidInputError(f"no-signaling violated for {label} setting {setting}")
    p = p.reshape(tables.shape)
    p.flags.writeable = False
    return p


class Behavior:
    """Probability table P(ab|xy) with derived marginals and correlators.

    Built from one dense (n_a, n_b, 2, 2) array over (x, y, a, b) that
    covers every setting pair of its shape.  Construction reads every entry
    as a real number through `errors.strict_reals` (a bool, a string or a
    ragged table raises) and validates the table with `_checked_tables`
    (settings, finiteness, normalization, non-negativity and no-signaling,
    each within 1e-9); an offending table is rejected.
    """

    def __init__(self, tables):
        tables = strict_reals(tables, "behavior table entry")
        if tables.shape[2:] != (2, 2):
            raise InvalidInputError(f"a behavior's table has shape (n_a, n_b, 2, 2), not {tables.shape}")
        self._p = _checked_tables(tables)

    @property
    def pairs(self) -> frozenset:
        """Every setting pair (x, y) of the table."""
        return _all_pairs(*self._p.shape[:2])

    def table(self, x: int, y: int) -> np.ndarray:
        if (x, y) not in self.pairs:
            raise InvalidInputError(f"behavior does not cover setting pair ({x},{y})")
        return self._p[x, y]

    def probs(self, events) -> np.ndarray:
        """Probability of each event: its cells (see term_cells) contracted
        with the table, so wildcard parties are marginalized out."""
        cells = term_cells(tuple(events), self.pairs)
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
    return Behavior(_strategy_tables(np.array(strategy.alice, dtype=int), np.array(strategy.bob, dtype=int)))


def pr_box() -> Behavior:
    """The no-signaling box with E_00 = E_01 = E_10 = 1 and E_11 = -1."""
    return Behavior(_ns_vertices()[-1])


@functools.cache
def _deterministic(n_a: int, n_b: int):
    """Every local deterministic strategy for n_a x n_b settings, in
    itertools.product order (Alice's outcomes outer), as a read-only
    (2**(n_a+n_b), n_a + n_b) array of outcome rows, Alice's then Bob's,
    with the read-only (2**(n_a+n_b), n_a, n_b, 2, 2) stack of their 0/1
    tables."""
    outcomes = np.array(list(itertools.product((0, 1), repeat=n_a + n_b)), dtype=int)
    tables = _strategy_tables(outcomes[:, :n_a], outcomes[:, n_a:])
    outcomes.flags.writeable = False
    tables.flags.writeable = False
    return outcomes, tables


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
    (count, 17) draw, so count calls with count 1 take the same numbers
    from rng.  rng must be a numpy Generator and count an integer of at
    least 0.
    """
    if not isinstance(rng, np.random.Generator):
        raise InvalidInputError(f"rng must be a numpy Generator, not {rng!r}")
    count = strict_int(count, "count")
    if count < 0:
        raise InvalidInputError(f"count must be >= 0, not {count}")
    weights = rng.random((count, 17))
    weights /= weights.sum(axis=1, keepdims=True)
    tables = weights @ _ns_vertices().reshape(17, -1)
    return _checked_tables(tables.reshape(count, 2, 2, 2, 2))


# Integer event codes: a party's part is 2 * setting + outcome, or 8 for a
# wildcard, and an event is 9 * alice part + bob part.  Codes order events
# by Alice's part, then Bob's: wildcards last, then setting, then outcome.
_WILDCARD = 8


def _code(event: Event) -> int:
    part = lambda p: _WILDCARD if p is None else 2 * p[0] + p[1]
    return 9 * part(event.alice) + part(event.bob)


def _exclusive_parts(codes) -> list:
    """Alice's and Bob's (n, n) boolean exclusivity matrices over n event
    codes: a party makes two events exclusive when it measures the same
    setting in both with different outcomes.  This is the one place the
    exclusivity rule is written.

    Two parts 2 * setting + outcome are exactly that when they differ in
    the outcome bit alone; the wildcard part 8 differs from every part in
    more bits, so it never makes two events exclusive."""
    return [(p[:, None] ^ p[None, :]) == 1 for p in np.divmod(np.asarray(codes), 9)]


_EDGE_KINDS = (None, "A", "B", "AB")  # indexed by alice + 2 * bob


def exclusivity_graph(iq: Inequality):
    """Graph over the inequality's terms plus the typed edge list, one
    TypedEdge per exclusive pair i < j in row-major order, of kind 'A', 'B'
    or 'AB' by the party or parties that make it exclusive."""
    alice, bob = _exclusive_parts([_code(e) for e in iq.terms])
    kinds = (alice + 2 * bob).tolist()
    edges = [TypedEdge(i, j, _EDGE_KINDS[k]) for i, row in enumerate(kinds) for j, k in enumerate(row) if k and i < j]
    return graph(len(kinds), [(e.i, e.j) for e in edges]), edges


def lhv_bound(iq: Inequality):
    """Exact deterministic-strategy maximum of the term count, with witness.

    `evaluate_tables` on the stacked tables of all 2**(n_a+n_b) strategies
    over its declared alice_settings x bob_settings (at most 4 x 4), one
    contraction with its coefficient tensor; the witness is the first
    maximum in itertools.product order.
    """
    n_a, n_b = iq.alice_settings, iq.bob_settings
    outcomes, tables = _deterministic(n_a, n_b)
    scores = evaluate_tables(iq, tables)
    best = int(scores.argmax())
    row = outcomes[best].tolist()
    return int(scores[best]), DeterministicStrategy(row[:n_a], row[n_a:])


def evaluate(iq: Inequality, behavior: Behavior) -> float:
    """Sum of the term probabilities under the behavior (see evaluate_tables)."""
    return float(evaluate_tables(iq, behavior._p))


def _stacked(tables) -> np.ndarray:
    """tables as a float array of shape (..., n_a, n_b, 2, 2); any other
    shape raises InvalidInputError.  Only the shape is read."""
    tables = np.asarray(tables, dtype=float)
    if tables.shape[-2:] != (2, 2) or tables.ndim < 4:
        raise InvalidInputError(f"tables have shape (..., n_a, n_b, 2, 2), not {tables.shape}")
    return tables


def evaluate_tables(iq: Inequality, tables: np.ndarray) -> np.ndarray:
    """Inequality value of each table of a dense (..., n_a, n_b, 2, 2)
    stack: one contraction with its coefficient tensor over the shape."""
    tables = _stacked(tables)
    weights = coefficient_tensor(iq, *tables.shape[-4:-2])
    return tables.reshape(tables.shape[:-4] + (weights.size,)) @ weights.reshape(-1)


@dataclass(frozen=True)
class CorrelatorDecomposition:
    """Affine form: value = offset + sum c_xy E_xy (+ marginal terms).

    correlator_only is True when the marginal coefficients vanish, i.e. the
    inequality is a rescaled, shifted combination of correlators alone.
    weights is the same form as a read-only (2, 2, 2, 2) tensor w[x, y, a,
    b] with value = offset + sum w * P over the four setting pairs.
    """

    offset: float
    coefficients: dict
    correlator_only: bool
    residual: float
    alice_coefficients: dict
    bob_coefficients: dict
    weights: np.ndarray = field(repr=False, compare=False)

    def predict_tables(self, tables: np.ndarray) -> np.ndarray:
        """The affine form on each table of a dense (..., n_a, n_b, 2, 2)
        stack whose settings 0 and 1 cover the four pairs; a stack that
        does not raises InvalidInputError naming the first missing pair."""
        tables = _stacked(tables)
        missing = [(x, y) for x, y in _PAIRS_2X2 if x >= tables.shape[-4] or y >= tables.shape[-3]]
        if missing:
            raise InvalidInputError(f"tables do not cover setting pair ({missing[0][0]},{missing[0][1]})")
        block = tables[..., :2, :2, :, :]
        return self.offset + block.reshape(block.shape[:-4] + (16,)) @ self.weights.reshape(16)


def chsh_decomposition(iq: Inequality) -> CorrelatorDecomposition:
    """Express a 2x2-setting inequality in correlators and, where needed,
    single-party expectations, by exact sums over its coefficient tensor.

    On a no-signaling table P(ab|xy) = (1 + s_a A_x + s_b B_y + s_a s_b
    E_xy)/4 with s = (+1, -1), so with W the coefficient tensor the offset
    is sum W/4, c_xy = sum_ab s_a s_b W[x, y, a, b]/4, a_x = sum s_a W[x]/4
    and b_y = sum s_b W[:, y]/4.  These are exact multiples of 1/4, and the
    inequality is correlator-only when every marginal sum is zero.  The
    form's tensor is built once from these sums: c_xy s_a s_b, plus a_x s_a
    at (x, 0) and b_y s_b at (0, y), where every table covering the four
    pairs reads its marginals.  The residual replays the form against
    `evaluate_tables` on the 16 deterministic behaviors.  A term outside
    the 2x2 settings raises InvalidInputError (from coefficient_tensor).
    """
    w = coefficient_tensor(iq, 2, 2)
    s = np.array([1.0, -1.0])
    c = np.einsum("xyab,a,b->xy", w, s, s) / 4.0
    alice, bob = np.einsum("xyab,a->x", w, s) / 4.0, np.einsum("xyab,b->y", w, s) / 4.0
    correlator_only = not (alice.any() or bob.any())
    offset = float(w.sum()) / 4.0
    weights = c[:, :, None, None] * np.outer(s, s) + 0.0  # + 0.0: a zero c_xy gives 0.0, not -0.0
    weights[:, 0] += alice[:, None, None] * s[:, None]
    weights[0] += bob[:, None, None] * s
    weights.flags.writeable = False
    tables = _deterministic(2, 2)[1]
    predicted = offset + tables.reshape(16, 16) @ weights.reshape(16)
    residual = np.max(np.abs(predicted - evaluate_tables(iq, tables)))
    return CorrelatorDecomposition(
        offset=offset,
        coefficients=dict(zip(_PAIRS_2X2, c.reshape(4).tolist())),
        correlator_only=correlator_only,
        residual=float(residual),
        alice_coefficients={} if correlator_only else dict(enumerate(alice.tolist())),
        bob_coefficients={} if correlator_only else dict(enumerate(bob.tolist())),
        weights=weights,
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

    All cliques of the exclusivity graph (the adjacency matrix of
    `exclusivity_graph`) are enumerated exhaustively: every nonempty subset
    of the terms is one row of a boolean array, in increasing bitmask
    order, and the worst clique is the first of largest
    sum (summed in term order) in that order.  For pentagonal inequalities
    the principle additionally caps the full sum at the pentagon's Lovasz
    number, sqrt(5) from Lovasz's odd-cycle closed form
    (`theta.odd_cycle_theta`; no SDP is solved), and when the inequality is
    a pure correlator combination that cap is translated into a bound on
    the unit-coefficient correlator form.  The full sum is `evaluate`'s.
    """
    n = len(iq.terms)
    if n > 10:
        raise CapacityError("clique enumeration limited to 10 vertices")
    adjacent = exclusivity_graph(iq)[0].adjacency
    probs = behavior.probs(iq.terms)
    subsets = ((np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    # a subset is a clique when none of its members is apart from another
    apart = ~adjacent & ~np.eye(n, dtype=bool)
    cliques = subsets[~(subsets & (subsets @ apart)).any(axis=1)]
    sums = np.cumsum(np.where(cliques, probs, 0.0), axis=1)[:, -1]
    best = int(sums.argmax())
    best_sum, best_clique = 0.0, ()
    if sums[best] > best_sum:
        best_sum, best_clique = float(sums[best]), tuple(np.flatnonzero(cliques[best]).tolist())

    value = evaluate(iq, behavior)
    pentagon_cap = None
    chsh_cap = None
    if n == 5 and (adjacent.sum(axis=1) == 2).all():  # the only 2-regular simple graph on 5 vertices is C5
        pentagon_cap = odd_cycle_theta(5)
        try:
            dec = chsh_decomposition(iq)
        except InvalidInputError:
            dec = None
        if dec is not None and dec.correlator_only:
            mags = {abs(c) for c in dec.coefficients.values()}
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
    classes, seen = [], set()
    for bits in itertools.product("AB", repeat=5):
        s = "".join(bits)
        if s not in seen:
            orbit = _pattern_orbit(s)
            seen |= orbit
            classes.append(PatternClass(max(orbit), orbit))
    return sorted(classes, key=lambda c: c.canonical)


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


def _compacted(codes: np.ndarray) -> np.ndarray:
    """Each row of an (N, n) code array with every party's used settings
    relabeled to 0..k-1 in order: a setting's new label is the number of
    used settings below it, counted in a bitmask of the row's settings."""
    parts = []
    for part in np.divmod(codes, 9):
        bit = (part != _WILDCARD) << (part // 2)
        used = np.bitwise_or.reduce(bit, axis=-1, keepdims=True)
        rank = np.bitwise_count(used & (bit - 1))  # a wildcard's value is discarded below
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
    lexicographically least sorted image, as a tuple of event codes."""
    codes = np.unique([_code(e) for e in terms])
    return tuple(_lexmin(_orbit_rows(_compacted(codes[None])[0])).tolist())


def _nonzero(mask: np.ndarray) -> tuple:
    """np.nonzero(mask) through the flat indices, which for a 2- or 3-d mask
    is many times faster than np.nonzero itself."""
    return np.unravel_index(np.flatnonzero(mask), mask.shape)


def _induced_five_cycles(adjacent: np.ndarray, starts) -> np.ndarray:
    """(N, 5) vertex indices of every induced 5-cycle of a graph (a boolean
    adjacency matrix) that holds a start vertex, each undirected cycle once:
    v0 is its smallest start and v1 < v4.  With every vertex a start, v0 is
    the cycle's smallest vertex."""
    n = len(adjacent)
    idx = np.arange(n)
    starts = np.unique(np.asarray(starts, dtype=int))
    # a cycle's other vertices are never a start at or below its v0
    free = ~(np.isin(idx, starts)[None, :] & (idx[None, :] <= starts[:, None]))
    near = adjacent[starts]
    s, v1, v2 = _nonzero(near[:, :, None] & adjacent[None] & ~near[:, None, :] & free[:, :, None] & free[:, None, :])
    # each path v0-v1-v2 goes on to v3 and is closed by v4
    ahead = adjacent[v2] & ~near[s] & ~adjacent[v1] & free[s]
    closing = near[s] & ~adjacent[v1] & ~adjacent[v2] & free[s] & (idx > v1[:, None])
    path, v3 = _nonzero(ahead)
    last, v4 = _nonzero(closing[path] & adjacent[v3])
    path = path[last]
    return np.stack([starts[s[path]], v1[path], v2[path], v3[last], v4], axis=1)


def enumerate_pentagonal(max_alice_settings: int = 3, max_bob_settings: int = 3):
    """All pentagonal Bell inequalities up to relabeling: the named classes
    pentagon-1, pentagon-2 and pentagon-3 that the range holds.

    Searches the exclusivity graph of every event in the range (wildcards
    included) for the induced 5-cycles through 00|00 and returns, in name
    order, the built-in named inequalities whose class (orbit under the
    equivalence group) holds one of them.  A cycle outside the three named
    classes raises AssertionError: the argument below rules it out, and
    every range lies inside (4, 4), whose search finds none.  A setting
    count that is not an integer in [0, 4] raises InvalidInputError.

    The one start reaches every class.  A single-party event is exclusive
    with at most one other single-party event, the same party's other
    outcome at the same setting, while every vertex of C5 has two
    neighbours, so every induced 5-cycle holds a two-party event.
    Permuting one party's settings within the range, or flipping its
    outcomes at one setting, maps an induced 5-cycle of the range's graph
    to another in the same class, and moves that event to 00|00.  A
    cycle's class does not depend on the range, since `_compacted`
    relabels its settings.

    The default (3, 3) range is complete: every pentagon needs at most 3
    settings for one party and 2 for the other.  Call an edge an A-edge
    when Alice makes its events exclusive (kind 'A' or 'AB'), and a B-edge
    likewise.  Three A-edges in a row would make the first and fourth
    vertices exclusive, so neither party has three in a row.  Every edge
    not of one party is the other's, so on C5 each party's edges are two
    disjoint edges or a two-edge path plus a disjoint edge: fewer, or a
    lone path, would leave the other party three in a row.  The vertices
    of a path share that party's setting, and two disjoint edges at one
    setting would make two non-adjacent vertices exclusive, so each party
    uses two settings on its edges.  Two disjoint edges cover four
    vertices, and the free vertex may use a third setting; a path plus an
    edge covers all five.  Five edges need at least one party with the
    path plus an edge, so that party uses exactly 2 settings and the other
    at most 3.  With A/B labels alone this is the one feasible pattern,
    BBABA: its A-edges are disjoint, and its three B-edges force 2
    settings.  The (4, 4) range gives the same classes.
    """
    parts = []
    for label, count in (("alice", max_alice_settings), ("bob", max_bob_settings)):
        count = strict_int(count, f"max_{label}_settings")
        if not 0 <= count <= MAX_SETTING + 1:
            raise InvalidInputError(f"max_{label}_settings={count} outside [0,{MAX_SETTING + 1}]")
        parts.append(np.array([_WILDCARD, *range(2 * count)]))
    codes = (9 * parts[0][:, None] + parts[1][None, :]).reshape(-1)[1:]  # drops the all-wildcard code
    alice, bob = _exclusive_parts(codes)
    cycles = codes[_induced_five_cycles(alice | bob, np.flatnonzero(codes == 0))]  # through 00|00
    # a sorted row of five codes is one base-81 number, so a key identifies
    # a row
    digits = 81 ** np.arange(4, -1, -1)
    found = np.unique(np.sort(_compacted(cycles), axis=1) @ digits)
    named = [named_inequality(k) for k in ("pentagon-1", "pentagon-2", "pentagon-3")]
    rows = _compacted(np.array([[_code(e) for e in iq.terms] for iq in named]))
    orbits = [_orbit_rows(row) @ digits for row in rows]
    if not np.isin(found, np.concatenate(orbits)).all():
        raise AssertionError("an induced 5-cycle lies outside the three named pentagon classes")
    return [iq for iq, keys in zip(named, orbits) if np.isin(keys, found).any()]


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


@functools.cache
def named_inequality(name: str) -> Inequality:
    """Built-in inequality by name; see SCENARIO_NAMES.  Built once per
    name and shared: an Inequality and its Events are frozen."""
    if name not in _NAMED_TERMS:
        raise InvalidInputError(f"unknown scenario {name!r} (known: {', '.join(_NAMED_TERMS)})")
    return Inequality(tuple(Event.parse(t) for t in _NAMED_TERMS[name]), name=name)


def named_graph(name: str) -> Graph:
    """Built-in graph by name: the named inequalities' exclusivity graphs,
    plus "kcbs-graph" for the pentagon of the five KCBS events."""
    if name == "kcbs-graph":
        return cycle(5)
    return exclusivity_graph(named_inequality(name))[0]


@json_decoder("scenario")
def scenario_from_json(data) -> Inequality:
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise InvalidInputError("scenario JSON must contain a 'terms' list")
    terms = tuple(Event(t.get("alice"), t.get("bob")) for t in data["terms"])
    return Inequality(terms, data.get("name", ""), data.get("alice_settings"), data.get("bob_settings"))


def load_scenario(path) -> Inequality:
    return scenario_from_json(load_json(path))
