"""Quantum models and bounds for the bipartite inequalities.

Everything is real-valued: states are real unit vectors and measurements
are real symmetric projectors (the stored projector is the outcome-0
effect; outcome 1 is its complement).  Includes Bell operators, see-saw
optimization of state and measurements, an eigenvalue scan for the first
pentagonal inequality, the NPA level-1+AB upper bound, the block reduction
that shows two qubits suffice, Schmidt analysis, and the qutrit
construction reaching the pentagon's Lovasz number.

Bell operators come from one coefficient tensor and one builder.  An
inequality enters only as its tensor W[x, y, a, b]
(`scenarios.coefficient_tensor`, over the settings the caller's projectors
supply), and its Bell operator is the sum over (x, a) of
E_a^x x (sum over (y, b) of W[x, y, a, b] F_b^y).  `_kron_sum` forms such
sums of Kronecker products for whole stacks of projectors at once, as one
contraction that never holds the products as an array;
`bell_operator` and the scan use it through `_bell_matrix`, the see-saw
through `_effect_bell_matrix` on the effect stacks it keeps, and
`two_projector_operator` (one operator P1 x Q1 + P2 x Q2 + 1 x Q0) and so
`block_reduce` use it with a three-pair stack.  The scan's top eigenvalue
is symmetric under theta -> pi - theta for either party and under swapping
the parties' angles, so it searches one line, t -> (pi - t, t), by one
rule: a batched grid (91 points over [0, pi/2], then 17 over the last
bracket) in one eigenvalue call, and a new bracket at the two neighbours
of its maximum.

The see-saw runs all its restarts as one stack of projectors: each
iteration is one batched Bell-operator build and eigenvalue call, then one
batched measurement update per party.  Restart r at seed s starts from one
random direction per setting: the first standard normals of
default_rng(s + r), Alice's settings' directions and then Bob's.  Each
seed's first 32 normals (enough for four settings per party at dimension
4) are drawn once per process and kept read-only for the last 1024 seeds
used, so calls that reuse seeds, as a sweep over inequalities and
dimensions at one seed does, build no generator for them.  A party's
effective operators for all its settings are one contraction of W's
outcome differences (W[x, y, 0, b] - W[x, y, 1, b] for Alice) with the
other party's effects sandwiched by the states, followed by one
eigenvalue call.  Each party's effects are built once per update and feed
both the other party's update and the next Bell operator, and W's (x, a)
x (y, b) matrix is formed once per run.  A run stops at its first step
whose value fails to grow by 1e-12 and keeps the state and measurements
of that step.

The NPA relaxation at level 1+AB (Navascues, Pironio & Acin,
arXiv:0803.4290) bounds the quantum maximum from above in every dimension.
It is numerics.sdp_path's second client, in the standard form that core
takes (`_npa_problem`), and numerics.certified_solve walks its path: the
upper side is `npa_upper_bound` of each point's dual vector y, which
rebuilds Z = C - A^T(y) from the inequality and y alone, and the one lower
candidate is a model's replay.  `npa_interval` returns the loop's interval
and stop unchanged, since an open interval (i3322's) is an answer.

`block_reduce` splits one two-projector operator into the blocks of
Jordan's lemma, each acting on at most two of Alice's dimensions: one loop
over the singular directions builds one block per direction with
`two_projector_operator`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InvalidInputError, json_decoder, load_json, save_json
from .errors import strict_int, strict_iterable, strict_pair, strict_reals
from .numerics import as_sym_matrix, certified_solve, sdp_path
from .scenarios import MAX_SETTING, Behavior, Inequality, coefficient_tensor, evaluate, named_inequality
from .theta import MAX_ITERATIONS

MAX_LOCAL_DIM = 4
NPA_TOL = 1e-8  # the certified gap at which npa_interval closes
_PROJECTOR_TOL = 1e-10
_RESTART_BLOCK = 1024  # see-saw restarts stacked at once; bounds the stack's memory
_START_DRAWS = 2 * (MAX_SETTING + 1) * MAX_LOCAL_DIM  # a restart's start directions
_TIE = 1e-12  # see-saw values closer than this count as equal


def _checked_dims(dims) -> tuple:
    """(d_a, d_b) of a pair of local dimensions, each an integer of at
    least 1."""
    d_a, d_b = strict_pair(dims, "dims")
    if d_a < 1 or d_b < 1:
        raise InvalidInputError(f"local dimensions must be >= 1: dims ({d_a}, {d_b})")
    return d_a, d_b


@dataclass(frozen=True)
class QuantumModel:
    """Bipartite pure state plus per-setting binary projective measurements.

    dims is read as a pair of integers and every state and projector entry
    as a real number, so a bool, 2.0 or "2" for a dimension and a bool, "1"
    or None for an entry raise InvalidInputError.  Each party's projectors
    are checked as one stack by `_projectors`, the rule `block_reduce`
    applies to P1 and P2, and stored symmetrized and read-only.
    """

    dims: tuple
    state: np.ndarray
    alice: tuple  # outcome-0 projector per setting, each dims[0] x dims[0]
    bob: tuple

    def __post_init__(self):
        d_a, d_b = _checked_dims(self.dims)
        object.__setattr__(self, "dims", (d_a, d_b))
        state = strict_reals(self.state, "state entry").reshape(-1)
        if state.shape[0] != d_a * d_b:
            raise InvalidInputError(f"state length {state.shape[0]} != {d_a}*{d_b}")
        if not np.all(np.isfinite(state)):
            raise InvalidInputError("state has non-finite entries")
        if abs(np.linalg.norm(state) - 1.0) > 1e-12:
            raise InvalidInputError("state is not normalized (within 1e-12)")
        state.flags.writeable = False
        object.__setattr__(self, "state", state)
        for label, projs, d in (("alice", self.alice, d_a), ("bob", self.bob, d_b)):
            read = []
            for k, p in enumerate(strict_iterable(projs, f"{label} projectors")):
                p = strict_reals(p, f"{label} projector {k} entry")
                if p.shape != (d, d):
                    raise InvalidInputError(f"{label} projector {k} is not {d}x{d}")
                read.append(p)
            stack = _projectors(np.reshape(read, (-1, d, d)), [f"{label} projector {k}" for k in range(len(read))])
            object.__setattr__(self, label, tuple(stack))


def _projectors(m: np.ndarray, names) -> np.ndarray:
    """The symmetrized, read-only copy of a float (k, d, d) stack of
    projectors, each finite, symmetric and idempotent within
    _PROJECTOR_TOL.  Otherwise raises InvalidInputError naming the first
    matrix that is not, by its entry of `names`, and its first failed
    check."""
    with np.errstate(all="ignore"):  # an overflow or a non-finite entry fails a check
        checks = (
            ("has non-finite entries", np.isfinite(m).all(axis=(-2, -1))),
            ("is not symmetric", np.abs(m - m.mT).max(axis=(-2, -1), initial=0.0) <= _PROJECTOR_TOL),
            ("is not idempotent", np.abs(m @ m - m).max(axis=(-2, -1), initial=0.0) <= _PROJECTOR_TOL),
        )
    passed = np.logical_and.reduce([ok for _, ok in checks])
    if not passed.all():
        k = int(np.argmin(passed))
        raise InvalidInputError(f"{names[k]} " + next(what for what, ok in checks if not ok[k]))
    s = (m + m.mT) / 2.0
    s.flags.writeable = False
    return s


def projector_onto(vector) -> np.ndarray:
    """Rank-1 projector onto the direction of a real vector, whose entries
    are read as real numbers (a bool, "1" or None raises)."""
    v = strict_reals(vector, "vector entry").reshape(-1)
    with np.errstate(all="ignore"):
        norm2 = float(_dots(v, v)[0])
    if not 0.0 < norm2 < np.inf:
        raise InvalidInputError(f"cannot project onto a vector of squared norm {norm2}")
    return _rank_one_projectors(v)


def _rank_one_projectors(vectors: np.ndarray) -> np.ndarray:
    """Projector onto the direction of each vector of a (..., d) stack."""
    u = vectors / np.sqrt(_dots(vectors, vectors))  # the dot product np.linalg.norm takes
    return u[..., :, None] * u[..., None, :]


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of each vector pair of two (..., d) stacks, as (..., 1):
    the BLAS dot that `x @ y` takes on one pair with the same strides."""
    return (x[..., None, :] @ y[..., :, None])[..., 0]


def bell_operator(iq: Inequality, model: QuantumModel) -> np.ndarray:
    """The inequality's Bell operator for the model's measurements, over the
    settings the model has (see `_bell_matrix`)."""
    w = coefficient_tensor(iq, len(model.alice), len(model.bob))
    return _bell_matrix(w, np.array(model.alice), np.array(model.bob))


def _effects(projectors: np.ndarray) -> np.ndarray:
    """(..., 2 s, d, d) outcome-0 and outcome-1 effects, in (setting,
    outcome) order, of a (..., s, d, d) stack of outcome-0 projectors."""
    d = projectors.shape[-1]
    e = np.concatenate([projectors, np.eye(d) - projectors], axis=-2)  # (..., s, 2 d, d)
    return e.reshape(e.shape[:-3] + (-1, d, d))


def _kron_sum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Symmetrized sum over k of left_k x right_k for (..., k, d, d) stacks
    whose leading axes broadcast, one operator per stack element.

    One contraction sums the products of a left and a right entry in k
    order without forming them as an array, so single matrices give exactly
    the sum of the np.kron products.  (When both are 1 x 1, numpy takes the
    sum as a dot product, which may round differently.)
    """
    s = np.einsum("...kac,...kbd->...abcd", left, right)
    n = left.shape[-1] * right.shape[-1]
    s = s.reshape(s.shape[:-4] + (n, n))
    return (s + s.mT) / 2.0


def _combine(coefficients: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """(..., m, d, d) stack of the sums over k of coefficients[i, k] stack_k,
    for an (m, k) coefficient matrix and a (..., k, d, d) stack, summed in k
    order."""
    f = coefficients @ stack.reshape(stack.shape[:-2] + (-1,))
    return f.reshape(f.shape[:-1] + stack.shape[-2:])


def _bell_matrix(w: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """Symmetrized sum over (x, a) of E_a^x x (sum over (y, b) of
    W[x, y, a, b] F_b^y), for the coefficient tensor W and (..., settings,
    d, d) stacks of outcome-0 projectors whose leading axes broadcast."""
    return _effect_bell_matrix(_partner_rows(w), _effects(alice), _effects(bob))


def _partner_rows(w: np.ndarray) -> np.ndarray:
    """W as a (2 n_a, 2 n_b) matrix, rows over Alice's (x, a) and columns
    over Bob's (y, b)."""
    return w.transpose(0, 2, 1, 3).reshape(2 * len(w), -1)


def _effect_bell_matrix(rows: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """`_bell_matrix` from W's `_partner_rows` and the parties' (..., 2 s,
    d, d) effect stacks (see `_effects`)."""
    return _kron_sum(alice, _combine(rows, bob))


def behavior_of(model: QuantumModel) -> Behavior:
    """Full probability table of the model over its declared settings.

    P(ab|xy) = <psi| E_a^x (x) F_b^y |psi> = sum(E_a^x psi * psi F_b^y) for
    the state as a d_a x d_b matrix psi, so the stacked (E psi) and (psi F)
    matrices, flattened, give every entry in one matrix product.
    """
    d_a, d_b = model.dims
    psi = model.state.reshape(d_a, d_b)
    left = (_effects(np.reshape(model.alice, (-1, d_a, d_a))) @ psi).reshape(-1, d_a * d_b)
    right = (psi @ _effects(np.reshape(model.bob, (-1, d_b, d_b)))).reshape(-1, d_a * d_b)
    n_a, n_b = len(model.alice), len(model.bob)
    probs = (left @ right.T).reshape(n_a, 2, n_b, 2).transpose(0, 2, 1, 3)
    return Behavior(probs)


def schmidt(model: QuantumModel) -> np.ndarray:
    """Descending Schmidt coefficients of the model's state."""
    return np.linalg.svd(model.state.reshape(model.dims), compute_uv=False)


def _positive_eigenspace_projector(f: np.ndarray) -> np.ndarray:
    """Projector onto the strictly positive eigenspace of each matrix of a
    stack; eigenvalues within 1e-11 * max(1, max|w|) of zero are excluded."""
    w, v = np.linalg.eigh((f + f.mT) / 2.0)
    # max|w| is at one end of the ascending spectrum
    cut = 1e-11 * np.maximum(np.maximum(1.0, -w[..., :1]), w[..., -1:])
    keep = v * (w > cut)[..., None, :]
    return keep @ keep.mT


@functools.lru_cache(maxsize=_RESTART_BLOCK)
def _start_draws(seed: int) -> np.ndarray:
    """Read-only first _START_DRAWS standard normals of default_rng(seed),
    enough for one start direction per setting of both parties at any
    allowed dimension.  A generator draws its normals one after another, so
    these are exactly the first draws of any standard_normal calls on it."""
    # Generator(PCG64(s)) is default_rng(s), built without its type checks
    draws = np.random.Generator(np.random.PCG64(seed)).standard_normal(_START_DRAWS)
    draws.flags.writeable = False
    return draws


def _start_projectors(iq, dims, seeds):
    """Alice's and Bob's (run, setting, d, d) start projectors, one run per
    seed: one random direction per setting, from the seed's first standard
    normals, Alice's alice_settings * d_a of them and then Bob's."""
    d_a, d_b = dims
    n_a, n_b = iq.alice_settings * d_a, iq.bob_settings * d_b
    draws = np.array([_start_draws(s)[: n_a + n_b] for s in seeds])
    alice = _rank_one_projectors(draws[:, :n_a].reshape(-1, iq.alice_settings, d_a))
    return alice, _rank_one_projectors(draws[:, n_a:].reshape(-1, iq.bob_settings, d_b))


def _seesaw(iq, dims, alice, bob):
    """See-saw from the (run, setting, d, d) start projector stacks of Alice
    and Bob, all runs as one stack.

    Each run stops on its own at its first step whose top eigenvalue fails
    to grow by _TIE; the others carry on.  A stopped run keeps that value,
    the Bell operator's top eigenvector at it and the measurements that
    gave it.  Returns the value and model of the first run within _TIE of
    the best, and every run's trace of per-step values.
    """
    d_a, d_b = dims
    alice, bob = np.array(alice, dtype=float), np.array(bob, dtype=float)  # copies, updated in place
    runs = len(alice)
    w = coefficient_tensor(iq, iq.alice_settings, iq.bob_settings)
    rows = _partner_rows(w)
    # a setting's effective operator weighs the other party's sandwiched
    # effects by the outcome-0 minus outcome-1 coefficients
    diff_a = (w[:, :, 0] - w[:, :, 1]).reshape(iq.alice_settings, -1)
    diff_b = (w[..., 0] - w[..., 1]).transpose(1, 0, 2).reshape(iq.bob_settings, -1)

    value = np.full(runs, -np.inf)
    state = np.zeros((runs, d_a * d_b))
    traces = [[] for _ in range(runs)]
    active = np.arange(runs)
    # the running restarts' effects, each built once per update
    ea, eb = _effects(alice), _effects(bob)
    for _ in range(10_000):
        w_val, v = np.linalg.eigh(_effect_bell_matrix(rows, ea, eb))
        new_value = w_val[:, -1]
        for r, t in zip(active.tolist(), new_value.tolist()):
            traces[r].append(t)
        grew = new_value - value[active] >= _TIE
        value[active], state[active] = new_value, v[:, :, -1]
        active = active[grew]
        if active.size == 0:
            break
        psi = v[grew, :, -1].reshape(-1, 1, d_a, d_b)
        psi_t = psi.mT
        alice[active] = a = _positive_eigenspace_projector(_combine(diff_a, psi @ eb[grew] @ psi_t))
        ea = _effects(a)
        bob[active] = b = _positive_eigenspace_projector(_combine(diff_b, psi_t @ ea @ psi))
        eb = _effects(b)

    best = int(np.argmax(value >= value.max() - _TIE))
    model = QuantumModel(dims, state[best], tuple(alice[best]), tuple(bob[best]))
    return float(value[best]), model, traces


def qmax_seesaw(iq: Inequality, dims=(2, 2), restarts: int = 32, seed: int = 0):
    """Best see-saw value over seeded restarts, with the achieving model.

    Alternates the state (top eigenvector of the Bell operator) with the
    measurements (projector onto the strictly positive eigenspace of each
    setting's effective operator); the value is monotone along a run.  A
    restart stops at its first step whose value fails to grow by 1e-12 and
    keeps that value with the state and measurements that gave it.
    Restart r starts from the first standard normals of
    default_rng(seed + r): one direction per setting, Alice's settings and
    then Bob's.  Each seed's draws are kept for reuse within the process,
    so a later call at an overlapping seed draws nothing again and returns
    what it would return alone.  Values within 1e-12 of the best count as
    ties, which keep the lowest restart index.
    Restarts run as one stack, in blocks of up to 1024, so each iteration
    makes one batched eigenvalue call per stage for every restart still
    running.
    """
    d_a, d_b = _checked_dims(dims)
    if d_a > MAX_LOCAL_DIM or d_b > MAX_LOCAL_DIM:
        raise CapacityError(f"local dimensions limited to {MAX_LOCAL_DIM}")
    restarts, seed = strict_int(restarts, "restarts"), strict_int(seed, "seed")
    if restarts < 1:
        raise InvalidInputError("restarts must be >= 1")
    if seed < 0:
        raise InvalidInputError("seed must be >= 0")
    best = None
    for start in range(seed, seed + restarts, _RESTART_BLOCK):
        stop = min(start + _RESTART_BLOCK, seed + restarts)
        value, model, _ = _seesaw(iq, (d_a, d_b), *_start_projectors(iq, (d_a, d_b), range(start, stop)))
        if best is None or value > best[0] + _TIE:
            best = (value, model)
    return best


class ScanResult(NamedTuple):
    value: float
    angles: tuple
    model: QuantumModel


def _pentagon1_settings(angle_a, angle_b):
    """Alice's and Bob's (..., 2, 2, 2) projector stacks for the scan: setting
    0 onto (1, 0), the sigma_z projector, and setting 1 onto (cos t, sin t)
    at the party's angle t; the angles may be arrays of one shape."""
    stacks = []
    for t in (angle_a, angle_b):
        vectors = np.zeros(np.shape(t) + (2, 2))
        vectors[..., 0, 0] = 1.0
        vectors[..., 1, 0], vectors[..., 1, 1] = np.cos(t), np.sin(t)
        stacks.append(_rank_one_projectors(vectors))
    return tuple(stacks)


def qmax_scan_ineq2() -> ScanResult:
    """Eigenvalue maximization for the first pentagonal inequality.

    Both setting-0 measurements are fixed to the sigma_z projector; the
    setting-1 projectors lie in the real plane at angles (theta_a, theta_b),
    which covers every real-qubit model up to local rotations.  The top
    eigenvalue is unchanged by theta -> pi - theta for either party
    (conjugation by diag(1, -1) fixes sigma_z) and by swapping the two
    angles, so the search runs along t -> (pi - t, t) for t in [0, pi/2].
    It repeats one rule until the bracket is at most 1e-10 wide: the top
    eigenvalues of a grid over the bracket in one batched eigenvalue call
    (91 points over [0, pi/2] first, then 17), and a new bracket at the two
    neighbours of the grid's maximum.  The value and the model's state are
    the top eigenpair of one eigh of the Bell operator at the bracket's
    midpoint.
    """
    w = coefficient_tensor(named_inequality("pentagon-1"), 2, 2)
    lo, hi = 0.0, np.pi / 2
    grid = np.linspace(lo, hi, 91)
    while hi - lo > 1e-10:
        i = int(np.argmax(np.linalg.eigvalsh(_bell_matrix(w, *_pentagon1_settings(np.pi - grid, grid)))[:, -1]))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        grid = np.linspace(lo, hi, 17)

    t = (lo + hi) / 2.0
    alice, bob = _pentagon1_settings(np.pi - t, t)
    values, v = np.linalg.eigh(_bell_matrix(w, alice, bob))
    model = QuantumModel((2, 2), v[:, -1], alice, bob)
    return ScanResult(float(values[-1]), (float(np.pi - t), float(t)), model)


def _npa_problem(iq: Inequality):
    """The level-1+AB relaxation of the inequality's quantum maximum over its
    declared settings, as (c, b, rows, pairs, coef) for numerics.sdp_path.

    The words are 1, A_x, B_y and A_x B_y, A_x and B_y the outcome-0
    projectors, and Gamma_uv is the moment of u^T v, reduced by A^2 = A and
    with a word and its simultaneous reversal one moment.  Row 0 is
    Gamma_00 = 1; each later entry of a moment adds one row, its first entry
    less that one.  The objective is on row 0: P(ab|xy) is <E_a F_b> with
    E_0 = A_x and E_1 = 1 - A_x, and likewise for Bob.
    """
    n_a, n_b = iq.alice_settings, iq.bob_settings
    # a word as (Alice's settings, Bob's settings)
    words = [((), ())] + [((x,), ()) for x in range(n_a)] + [((), (y,)) for y in range(n_b)]
    words += [((x,), (y,)) for x in range(n_a) for y in range(n_b)]
    reduced = lambda w: w[:1] if w[:1] == w[1:] else w
    first, rows, pairs, coef = {}, [0], [(0, 0)], [1.0]
    for p, q in zip(*np.triu_indices(len(words))):
        (ua, ub), (va, vb) = words[p], words[q]
        moment = (reduced(ua + va), reduced(ub + vb))
        moment = min(moment, (moment[0][::-1], moment[1][::-1]))
        if moment not in first:
            first[moment] = (p, q)
            continue
        rows += [rows[-1] + 1] * 2
        pairs += [first[moment], (p, q)]
        coef += [1.0, -1.0]
    # <E_a F_b> over the words (1 or A, 1 or B): E = L (1, A) with rows over a
    ell = np.array([[0.0, 1.0], [1.0, -1.0]])
    v = np.einsum("as,xyab,bt->stxy", ell, coefficient_tensor(iq, n_a, n_b), ell)
    g = np.concatenate([[v[0, 0].sum()], v[1, 0].sum(axis=1), v[0, 1].sum(axis=0), v[1, 1].ravel()])
    c = np.zeros((len(words), len(words)))
    c[0] = c[:, 0] = -g / 2.0
    c[0, 0] = -g[0]
    b = np.zeros(rows[-1] + 1)
    b[0] = 1.0
    return c, b, np.array(rows), np.array(pairs), np.array(coef)


def _npa_bound(problem, y: np.ndarray) -> float:
    # Every feasible Gamma has <C, Gamma> = <Z, Gamma> + y_0 for
    # Z = C - A^T(y), and its diagonal in [0, 1], so tr Gamma <= N and its
    # value -<C, Gamma> is at most -y_0 + N max(0, -lambda_min(Z)); adding
    # N eps |Z|_F covers the rounding of eigvalsh
    c, _, rows, pairs, coef = problem
    z = c.copy()
    half = coef * y[rows] / 2.0
    np.subtract.at(z, tuple(pairs.T), half)
    np.subtract.at(z, tuple(pairs.T[::-1]), half)
    n = len(z)
    shift = max(0.0, -float(np.linalg.eigvalsh(z)[0]))
    return -float(y[0]) + n * shift + n * float(np.finfo(float).eps * np.linalg.norm(z))


def npa_upper_bound(iq: Inequality, y) -> float:
    """The upper bound on the inequality's quantum maximum, in every
    dimension, that a dual vector y of the level-1+AB relaxation
    (`_npa_problem`) certifies: -y_0 + N max(0, -lambda_min(Z)) +
    N eps |Z|_F, with Z = C - A^T(y) rebuilt from the inequality and y alone
    (Jansson, Chaykin & Keil, SIAM J. Optim. 18, 2007).  y is read as real
    numbers; a y of the wrong length or with a non-finite entry raises
    InvalidInputError."""
    problem = _npa_problem(iq)
    y = strict_reals(y, "y entry")
    if y.shape != problem[1].shape or not np.all(np.isfinite(y)):
        raise InvalidInputError(f"y must be {len(problem[1])} finite numbers, got shape {y.shape}")
    return _npa_bound(problem, y)


def npa_interval(iq: Inequality, model: QuantumModel):
    """The certified interval around the inequality's quantum maximum, as
    numerics.certified_solve returns it: ((value, model), (upper, y),
    iterations, stop).  The lower side is the model's replay,
    `scenarios.evaluate` of its behaviour; the upper side is
    `npa_upper_bound` of each point's y along the level-1+AB path, which
    holds in every dimension.  The walk stops closed within NPA_TOL, or
    stalled, at the cap MAX_ITERATIONS or at a failed step: an open
    interval is an answer here, not an error."""
    problem = _npa_problem(iq)
    value = evaluate(iq, behavior_of(model))
    bounds = lambda point: ((_npa_bound(problem, point[1]), point[1]), [])
    lower = [(lambda _: value, lambda: (value, model))]
    return certified_solve(sdp_path(*problem), bounds, NPA_TOL, MAX_ITERATIONS, lower)


@dataclass(frozen=True)
class BlockReduction:
    """Block-diagonal form of P1 x Q1 + P2 x Q2 + 1 x Q0 over Alice's space,
    as `block_reduce` returns it.

    `blocks` holds one symmetric matrix per singular direction, in the
    order of the singular values: (2 d_B) x (2 d_B) where the direction
    pairs a vector of each range, d_B x d_B where it holds one.  Each is
    `two_projector_operator` of the projectors compressed to the block's
    Alice basis, and the residual spectrum is Q0's, repeated once per Alice
    dimension no block uses.  The multiset of all block eigenvalues plus
    the residual spectrum equals the spectrum of the full operator (within
    1e-8).
    """

    blocks: tuple
    residual_spectrum: np.ndarray
    gram_singular_values: np.ndarray


def two_projector_operator(p1, p2, q0, q1, q2) -> np.ndarray:
    """Symmetrized P1 x Q1 + P2 x Q2 + 1 x Q0, summed in that order: one
    operator, which for symmetric matrices is exactly the sum of the three
    np.kron products.
    """
    return _kron_sum(np.stack([p1, p2, np.eye(len(p1))]), np.stack([q1, q2, q0]))


def block_reduce(p1, p2, q0, q1, q2) -> BlockReduction:
    """Split the Bell operator P1 x Q1 + P2 x Q2 + 1 x Q0 along the
    singular directions of the overlap between the ranges of Alice's two
    projectors.

    The Gram matrix of the two range bases is diagonalized by SVD; each
    singular direction pairs one vector from each range into an invariant
    Alice subspace of dimension at most two, so each block acts on at most
    a (2 x Bob)-dimensional space.  Alice directions orthogonal to both
    ranges only feel Q0 and contribute the residual spectrum.

    Each argument must be a square matrix of at least 1 x 1 whose entries
    are real numbers (a bool, "1" or a ragged row raises); an error names
    the argument.  P1 and P2 are checked by `_projectors`, the rule
    `QuantumModel` applies to its measurements, and the Q's by
    `numerics.as_sym_matrix`.  One loop over the singular directions, in
    singular-value order, compresses the projectors to each direction's
    Alice basis and builds its block with `two_projector_operator`.
    """
    names = ("P1", "P2", "Q0", "Q1", "Q2")
    mats = [strict_reals(a, f"{name} entry") for name, a in zip(names, (p1, p2, q0, q1, q2))]
    for name, m in zip(names, mats):
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise InvalidInputError(f"{name} is not a square matrix: shape {m.shape}")
    if len(mats[1]) != len(mats[0]):
        raise InvalidInputError("P1 and P2 act on different spaces")
    if len(mats[3]) != len(mats[2]) or len(mats[4]) != len(mats[2]):
        raise InvalidInputError("Q0, Q1 and Q2 act on different spaces")
    p1, p2 = _projectors(np.stack(mats[:2]), names[:2])
    q0, q1, q2 = (as_sym_matrix(q) for q in mats[2:])

    # a range basis is the eigenvectors of eigenvalue 1
    e, f = (v[:, w > 0.5] for w, v in (np.linalg.eigh(p1), np.linalg.eigh(p2)))
    r1, r2 = e.shape[1], f.shape[1]
    if r1 and r2:
        u, s_vals, vh = np.linalg.svd(e.T @ f, full_matrices=True)
    else:
        u, s_vals, vh = np.eye(r1), np.zeros(0), np.eye(r2)
    e_rot = (e @ u).T  # one direction per row
    f_rot = (f @ vh.T).T

    # direction mu holds e_mu and f_mu made orthogonal to it, where each
    # exists; f's vector is dropped when it is e_mu up to 1e-9
    blocks, used = [], 0
    for mu in range(max(r1, r2)):
        basis = [e_rot[mu]] if mu < r1 else []
        if mu < r2:
            # a fresh contiguous vector: BLAS sums strided ones in another order
            vec = f_rot[mu] - ((e_rot[mu] @ f_rot[mu]) * e_rot[mu] if basis else 0.0)
            norm = np.linalg.norm(vec)
            if norm > 1e-9:
                basis.append(vec / norm)
        b = np.column_stack(basis)
        blocks.append(two_projector_operator(b.T @ p1 @ b, b.T @ p2 @ b, q0, q1, q2))
        used += len(basis)
    return BlockReduction(tuple(blocks), np.repeat(np.linalg.eigvalsh(q0), len(p1) - used), s_vals)


def kcbs_vectors() -> np.ndarray:
    """Five qutrit unit vectors with adjacent pairs orthogonal (umbrella
    construction); columns are the vectors."""
    cos2 = np.cos(np.pi / 5) / (1.0 + np.cos(np.pi / 5))
    theta = np.arccos(np.sqrt(cos2))
    ks = np.arange(5)
    phi = 4.0 * np.pi * ks / 5.0
    return np.vstack(
        [
            np.full(5, np.cos(theta)),
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
        ]
    )


def kcbs_model():
    """Qutrit state and five projectors whose probability sum reaches the
    pentagon's Lovasz number sqrt(5)."""
    vectors = kcbs_vectors()
    state = np.array([1.0, 0.0, 0.0])
    projectors = tuple(projector_onto(vectors[:, k]) for k in range(5))
    return state, projectors


# ---------------------------------------------------------------------------
# Optimal models for the named pentagonal inequalities
# ---------------------------------------------------------------------------


def known_optimal_model(name: str) -> QuantumModel:
    """Optimal qubit model for a named pentagonal inequality.

    pentagon-2 and pentagon-3 are exact: the maximally entangled state with
    pi/8 measurement angles.  pentagon-1's optimum has no closed form, so
    its model is the one `qmax_scan_ineq2` computes.
    """
    if name == "pentagon-1":
        return qmax_scan_ineq2().model
    if name in ("pentagon-2", "pentagon-3"):
        c8, s8 = np.cos(np.pi / 8), np.sin(np.pi / 8)
        state = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        alice = [projector_onto((0.0, 1.0)), projector_onto((-1.0, 1.0))]
        if name == "pentagon-3":
            alice.append(projector_onto((-s8, c8)))
        bob = (projector_onto((-s8, c8)), projector_onto((s8, c8)))
        return QuantumModel((2, 2), state, tuple(alice), bob)
    raise InvalidInputError(f"no built-in optimal model for {name!r}")


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------


def model_to_json(model: QuantumModel) -> dict:
    """The model as a JSON document: its state and each projector as a
    matrix, every entry the float itself, so `model_from_json` rebuilds
    the model bit for bit.  (The reader also takes a rank-1 projector as
    its "vector", as a hand-written file may give it.)"""
    document = {"dims": list(model.dims), "state": model.state.tolist()}
    for label in ("alice", "bob"):
        document[label] = [{"setting": x, "matrix": p.tolist()} for x, p in enumerate(getattr(model, label))]
    return document


@json_decoder("model")
def model_from_json(data) -> QuantumModel:
    if not isinstance(data, dict) or "dims" not in data or "state" not in data:
        raise InvalidInputError("model JSON needs 'dims', 'state', 'alice', 'bob'")

    def decode(entries):
        by_setting = {strict_int(e["setting"], "setting"): e for e in entries}
        if sorted(by_setting) != list(range(len(entries))):
            raise InvalidInputError("measurement settings must be 0..k-1, each once")
        ordered = (by_setting[x] for x in range(len(entries)))
        return tuple(projector_onto(e["vector"]) if "vector" in e else e["matrix"] for e in ordered)

    return QuantumModel(data["dims"], data["state"], decode(data["alice"]), decode(data["bob"]))


def load_model(path) -> QuantumModel:
    return model_from_json(load_json(path))


def save_model(model: QuantumModel, path) -> None:
    save_json(model_to_json(model), path)
