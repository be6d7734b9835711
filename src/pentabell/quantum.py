"""Quantum models and bounds for the bipartite inequalities.

Everything is real-valued: states are real unit vectors and measurements
are real symmetric projectors (the stored projector is the outcome-0
effect; outcome 1 is its complement).  Includes Bell operators, see-saw
optimization of state and measurements, an eigenvalue scan for the first
pentagonal inequality, the block reduction that shows two qubits suffice,
Schmidt analysis, and the qutrit construction reaching the pentagon's
Lovasz number.

Bell operators come from one coefficient tensor and one builder.  An
inequality enters only as its tensor W[x, y, a, b]
(`scenarios.coefficient_tensor`, over the settings the caller's projectors
supply), and its Bell operator is the sum over (x, a) of
E_a^x x (sum over (y, b) of W[x, y, a, b] F_b^y).  `_kron_sum` forms such
sums of Kronecker products for whole stacks of projectors at once;
`bell_operator` and the scan use it through `_bell_matrix`, the see-saw
through `_effect_bell_matrix` on the effect stacks it keeps, and
`two_projector_operator` (P1 x Q1 + P2 x Q2 + 1 x Q0, for a whole stack of
blocks or full operators at once) and so `block_reductions` use it with a
three-pair stack.  The scan's top eigenvalue is symmetric under
theta -> pi - theta for either party and under swapping the parties'
angles, so it searches one line, t -> (pi - t, t): a 91-point grid in one
batched eigenvalue call, then a golden-section search.  It takes about
5 ms (one BLAS thread, 2-vCPU Intel Xeon, numpy 2.4.6 with OpenBLAS
0.3.31).

The see-saw runs all its restarts as one stack of projectors: each
iteration is one batched Bell-operator build and eigenvalue call, then one
batched measurement update per party.  A party's effective operators for
all its settings are one contraction of W's outcome differences
(W[x, y, 0, b] - W[x, y, 1, b] for Alice) with the other party's effects
sandwiched by the states, followed by one eigenvalue call.  Each party's
effects are built once per update and feed both the other party's update
and the next Bell operator, and W's (x, a) x (y, b) matrix is formed once
per run.  A run stops at its first step whose value fails to grow by
1e-12 and keeps the state and measurements of that step.  32 restarts
for each of the 5 named inequalities at dims (2,2), (3,3) and (4,4), over
seeds 0, 1 and 7, take 0.25-0.35 s (0.17-0.24 ms per restart) on the
machine above, whose speed drifts by a third from run to run; eigh takes
about two thirds of that time.

The block reduction works on whole stacks of instances that share Alice's
and Bob's dimensions.  `block_reductions` validates a stack in one pass,
takes every range basis from one eigh per party, runs one SVD per group
of instances with the same pair of ranks, and builds all blocks of one
size with one compression and one `two_projector_operator` call;
`block_reduce` is its one-instance case.  Every block, residual spectrum
and singular value is bit-for-bit what the instance gives alone.  The
report's 100 random instances (Alice dimension 2-6) take about 11 ms in
five calls on the machine above; one at a time they take about 75 ms, as
each call pays the stacked path's fixed costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InvalidInputError, json_decoder, load_json, save_json, strict_int, strict_pair
from .numerics import as_sym_matrix
from .scenarios import Behavior, Inequality, coefficient_tensor, named_inequality

MAX_LOCAL_DIM = 4
_PROJECTOR_TOL = 1e-10
_RESTART_BLOCK = 1024  # see-saw restarts stacked at once; bounds the stack's memory
_TIE = 1e-12  # see-saw values closer than this count as equal


def _checked_dims(dims) -> tuple:
    """(d_a, d_b) of a pair of local dimensions, each at least 1."""
    d_a, d_b = int(dims[0]), int(dims[1])
    if d_a < 1 or d_b < 1:
        raise InvalidInputError(f"local dimensions must be >= 1: dims ({d_a}, {d_b})")
    return d_a, d_b


@dataclass(frozen=True)
class QuantumModel:
    """Bipartite pure state plus per-setting binary projective measurements."""

    dims: tuple
    state: np.ndarray
    alice: tuple  # outcome-0 projector per setting, each dims[0] x dims[0]
    bob: tuple

    def __post_init__(self):
        d_a, d_b = _checked_dims(self.dims)
        object.__setattr__(self, "dims", (d_a, d_b))
        state = np.asarray(self.state, dtype=float).reshape(-1)
        if state.shape[0] != d_a * d_b:
            raise InvalidInputError(f"state length {state.shape[0]} != {d_a}*{d_b}")
        if not np.all(np.isfinite(state)):
            raise InvalidInputError("state has non-finite entries")
        if abs(np.linalg.norm(state) - 1.0) > 1e-12:
            raise InvalidInputError("state is not normalized (within 1e-12)")
        state.flags.writeable = False
        object.__setattr__(self, "state", state)
        for label, projs, d in (("alice", self.alice, d_a), ("bob", self.bob, d_b)):
            validated = []
            for k, p in enumerate(projs):
                p = np.asarray(p, dtype=float)
                if p.shape != (d, d):
                    raise InvalidInputError(f"{label} projector {k} is not {d}x{d}")
                if not np.all(np.isfinite(p)):
                    raise InvalidInputError(f"{label} projector {k} has non-finite entries")
                if np.max(np.abs(p - p.T)) > _PROJECTOR_TOL:
                    raise InvalidInputError(f"{label} projector {k} is not symmetric")
                if np.max(np.abs(p @ p - p)) > _PROJECTOR_TOL:
                    raise InvalidInputError(f"{label} projector {k} is not idempotent")
                p = (p + p.T) / 2.0
                p.flags.writeable = False
                validated.append(p)
            object.__setattr__(self, label, tuple(validated))


def projector_onto(vector) -> np.ndarray:
    """Rank-1 projector onto the direction of a real vector."""
    v = np.asarray(vector, dtype=float).reshape(-1)
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


def qubit_projector(angle: float) -> np.ndarray:
    """Projector onto the unit vector (cos angle, sin angle)."""
    return projector_onto((np.cos(angle), np.sin(angle)))


def bell_operator(iq: Inequality, model: QuantumModel) -> np.ndarray:
    """The inequality's Bell operator for the model's measurements, over the
    settings the model has (see `_bell_matrix`)."""
    w = coefficient_tensor(iq, len(model.alice), len(model.bob))
    return _bell_matrix(w, np.array(model.alice), np.array(model.bob))


def _stack(matrices) -> np.ndarray:
    """(..., k, d, d) stack of k matrices or matrix stacks whose leading axes
    broadcast."""
    return np.stack(np.broadcast_arrays(*matrices), axis=-3)


def _effects(projectors: np.ndarray) -> np.ndarray:
    """(..., 2 s, d, d) outcome-0 and outcome-1 effects, in (setting,
    outcome) order, of a (..., s, d, d) stack of outcome-0 projectors."""
    d = projectors.shape[-1]
    e = np.concatenate([projectors, np.eye(d) - projectors], axis=-2)  # (..., s, 2 d, d)
    return e.reshape(e.shape[:-3] + (-1, d, d))


def _kron_sum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Symmetrized sum over k of left_k x right_k for (..., k, d, d) stacks
    whose leading axes broadcast, one operator per stack element.

    Each Kronecker product is an outer product and the sum runs in k order,
    so single matrices give exactly the sum of the np.kron products.
    """
    outer = left[..., :, None, :, None] * right[..., None, :, None, :]
    n = left.shape[-1] * right.shape[-1]
    s = outer.sum(axis=-5).reshape(outer.shape[:-5] + (n, n))
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


def schmidt(state, dims) -> np.ndarray:
    """Descending Schmidt coefficients of a bipartite real unit vector."""
    d_a, d_b = _checked_dims(dims)
    v = np.asarray(state, dtype=float).reshape(-1)
    if v.shape != (d_a * d_b,) or not np.all(np.isfinite(v)):
        raise InvalidInputError(f"state must be {d_a}*{d_b} finite amplitudes")
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise InvalidInputError("state is not normalized")
    return np.linalg.svd(v.reshape(d_a, d_b), compute_uv=False)


def _positive_eigenspace_projector(f: np.ndarray) -> np.ndarray:
    """Projector onto the strictly positive eigenspace of each matrix of a
    stack; eigenvalues within 1e-11 * max(1, max|w|) of zero are excluded."""
    w, v = np.linalg.eigh((f + f.mT) / 2.0)
    # max|w| is at one end of the ascending spectrum
    cut = 1e-11 * np.maximum(np.maximum(1.0, -w[..., :1]), w[..., -1:])
    keep = v * (w > cut)[..., None, :]
    return keep @ keep.mT


def _seesaw(iq, dims, rngs):
    """See-saw from one random start per generator, all run as one stack.

    Each run stops on its own at its first step whose top eigenvalue fails
    to grow by _TIE; the others carry on.  A stopped run keeps that value,
    the Bell operator's top eigenvector at it and the measurements that
    gave it.  Returns the value and model of the first run within _TIE of
    the best, and every run's trace of per-step values.
    """
    d_a, d_b = dims
    starts_a, starts_b = [], []
    for rng in rngs:
        # one random direction per setting, Alice's then Bob's
        starts_a.append(rng.standard_normal((iq.alice_settings, d_a)))
        starts_b.append(rng.standard_normal((iq.bob_settings, d_b)))
    alice = _rank_one_projectors(np.array(starts_a))  # (run, setting, d, d)
    bob = _rank_one_projectors(np.array(starts_b))
    w = coefficient_tensor(iq, iq.alice_settings, iq.bob_settings)
    rows = _partner_rows(w)
    # a setting's effective operator weighs the other party's sandwiched
    # effects by the outcome-0 minus outcome-1 coefficients
    diff_a = (w[:, :, 0] - w[:, :, 1]).reshape(iq.alice_settings, -1)
    diff_b = (w[..., 0] - w[..., 1]).transpose(1, 0, 2).reshape(iq.bob_settings, -1)

    value = np.full(len(rngs), -np.inf)
    state = np.zeros((len(rngs), d_a * d_b))
    traces = [[] for _ in rngs]
    active = np.arange(len(rngs))
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
    Restart r uses seed + r, and values within 1e-12 of the best count as
    ties, which keep the lowest restart index.
    Restarts run as one stack, in blocks of up to 1024, so each iteration
    makes one batched eigenvalue call per stage for every restart still
    running; about 0.2 ms per restart (see the module docstring).
    """
    d_a, d_b = _checked_dims(dims)
    if d_a > MAX_LOCAL_DIM or d_b > MAX_LOCAL_DIM:
        raise CapacityError(f"local dimensions limited to {MAX_LOCAL_DIM}")
    if restarts < 1:
        raise InvalidInputError("restarts must be >= 1")
    if seed < 0:
        raise InvalidInputError("seed must be >= 0")
    best = None
    for start in range(seed, seed + restarts, _RESTART_BLOCK):
        stop = min(start + _RESTART_BLOCK, seed + restarts)
        # Generator(PCG64(s)) is default_rng(s), built without its type checks
        value, model, _ = _seesaw(iq, (d_a, d_b), [np.random.Generator(np.random.PCG64(s)) for s in range(start, stop)])
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
    angles, so the search runs along t -> (pi - t, t) for t in [0, pi/2]:
    a 91-point grid in one batched eigenvalue call, then a golden-section
    search of the bracket around the grid's maximum down to a 1e-10 width.
    The model's state is the Bell operator's top eigenvector.
    """
    w = coefficient_tensor(named_inequality("pentagon-1"), 2, 2)

    def top_eig(t):
        return np.linalg.eigvalsh(_bell_matrix(w, *_pentagon1_settings(np.pi - t, t)))[..., -1]

    grid = np.linspace(0.0, np.pi / 2, 91)
    i = int(np.argmax(top_eig(grid)))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    shrink = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = top_eig(c), top_eig(d)
    while hi - lo > 1e-10:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = top_eig(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = top_eig(d)

    t = (lo + hi) / 2.0
    alice, bob = _pentagon1_settings(np.pi - t, t)
    _, v = np.linalg.eigh(_bell_matrix(w, alice, bob))
    model = QuantumModel((2, 2), v[:, -1], alice, bob)
    return ScanResult(float(top_eig(t)), (float(np.pi - t), float(t)), model)


@dataclass(frozen=True)
class BlockReduction:
    """Block-diagonal form of P1 x Q1 + P2 x Q2 + 1 x Q0 over Alice's space,
    for one instance of `block_reductions`.

    `blocks` holds one symmetric matrix per singular direction, in the
    order of the singular values: (2 d_B) x (2 d_B) where the direction
    pairs a vector of each range, d_B x d_B where it holds one.  Each is
    `two_projector_operator` of the projectors compressed to the block's
    Alice basis.  The multiset of all block eigenvalues plus the residual
    spectrum equals the spectrum of the full operator (within 1e-8).
    """

    blocks: tuple
    residual_spectrum: np.ndarray
    gram_singular_values: np.ndarray


def two_projector_operator(p1, p2, q0, q1, q2) -> np.ndarray:
    """Symmetrized P1 x Q1 + P2 x Q2 + 1 x Q0, summed in that order.

    Every argument may be a stack (..., d, d); the leading axes broadcast,
    giving one operator per stack element.  A single set of symmetric
    matrices gives exactly the sum of the three np.kron products.
    """
    return _kron_sum(_stack([p1, p2, np.eye(np.shape(p1)[-1])]), _stack([q1, q2, q0]))


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a (..., d) stack, as (..., 1): like it,
    the dot of a contiguous copy of the row with itself."""
    x = np.ascontiguousarray(x)
    return np.sqrt(_dots(x, x))


def _instances(a) -> np.ndarray:
    """Validated, symmetrized (k, n, n) stack of k instances' matrices."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 3:
        raise InvalidInputError(f"expected a 2-d matrix, got shape {m.shape[1:]}")
    return as_sym_matrix(m)


def block_reduce(p1, p2, q0, q1, q2) -> BlockReduction:
    """`block_reductions` of the one instance P1, P2, Q0, Q1, Q2."""
    return block_reductions(*(np.asarray(a, dtype=float)[None] for a in (p1, p2, q0, q1, q2)))[0]


def block_reductions(p1, p2, q0, q1, q2) -> list:
    """Split the Bell operator of each of k instances along the singular
    directions of the overlap between the ranges of Alice's two projectors.

    The projectors come as (k, d_A, d_A) stacks and the Q's as (k, d_B, d_B)
    stacks; the result is one `BlockReduction` per instance.  The Gram
    matrix of the two range bases is diagonalized by SVD; each singular
    direction pairs one vector from each range into an invariant Alice
    subspace of dimension at most two, so each block acts on at most a
    (2 x Bob)-dimensional space.  Alice directions orthogonal to both
    ranges only feel Q0 and contribute the residual spectrum.

    The whole stack is validated in one pass and its range bases come from
    one eigh per party.  The SVDs run once per group of instances sharing
    a pair of ranks.  The paired directions' bases of all instances form
    one (n, d_A, 2) stack and the single directions' one (n, d_A, 1) stack,
    so every block of one size comes from one stacked compression and one
    `two_projector_operator` call, and the residual spectra from one
    eigvalsh of the Q0 stack.  Each instance's blocks, residual spectrum
    and singular values are bit-for-bit those of a stack holding it alone.
    """
    p1, p2 = _instances(p1), _instances(p2)
    for name, p in (("P1", p1), ("P2", p2)):
        if np.max(np.abs(p @ p - p), initial=0.0) > _PROJECTOR_TOL:
            raise InvalidInputError(f"{name} is not a projector")
    q0, q1, q2 = (_instances(q) for q in (q0, q1, q2))
    k, d_a, _ = p1.shape
    if p2.shape[-1] != d_a:
        raise InvalidInputError("P1 and P2 act on different spaces")
    if q1.shape[-1] != q0.shape[-1] or q2.shape[-1] != q0.shape[-1]:
        raise InvalidInputError("Q0, Q1 and Q2 act on different spaces")
    if any(len(a) != k for a in (p2, q0, q1, q2)):
        raise InvalidInputError("P1, P2, Q0, Q1 and Q2 hold different numbers of instances")

    # a range basis is the eigenvectors of eigenvalue 1, the trailing ones;
    # held as rows, so each (d_A, r) basis has the layout of a boolean
    # column selection, which fixes BLAS's summation order
    (w1, v1), (w2, v2) = np.linalg.eigh(p1), np.linalg.eigh(p2)
    r1, r2 = np.sum(w1 > 0.5, axis=-1), np.sum(w2 > 0.5, axis=-1)
    rows1, rows2 = (np.ascontiguousarray(np.swapaxes(v, -1, -2)) for v in (v1, v2))
    # an instance's blocks fill consecutive slots, one per singular direction
    n_dirs = np.maximum(r1, r2)
    first = np.cumsum(n_dirs) - n_dirs
    s_vals = [None] * k
    dirs, partners, slots = [np.zeros((0, d_a))], [np.zeros((0, d_a))], [np.zeros(0, dtype=int)]
    for a, b in sorted(set(zip(r1.tolist(), r2.tolist()))):
        idx = np.flatnonzero((r1 == a) & (r2 == b))
        e, f = np.swapaxes(rows1[idx, d_a - a :], -1, -2), np.swapaxes(rows2[idx, d_a - b :], -1, -2)
        if a and b:
            u, s, vh = np.linalg.svd(np.swapaxes(e, -1, -2) @ f, full_matrices=True)
        else:
            u, s, vh = np.eye(a), np.zeros((len(idx), 0)), np.eye(b)
        for i, row in zip(idx.tolist(), s):
            s_vals[i] = row
        e_rot = np.swapaxes(e @ u, -1, -2)  # one direction per row
        f_rot = np.swapaxes(f @ np.swapaxes(vh, -1, -2), -1, -2)
        # direction mu < min(r1, r2) pairs e_mu with f_mu made orthogonal to
        # it (the dot keeps the rows' strides, which fix BLAS's summation
        # order); beyond, only the larger range has a direction, normalised
        # like a partner vector when it is f's, and a zero partner
        m = min(a, b)
        extra = e_rot[:, m:] if a > b else f_rot[:, m:] / _norms(f_rot[:, m:])
        dirs.append(np.concatenate([e_rot[:, :m], extra], axis=1).reshape(-1, d_a))
        partner = f_rot[:, :m] - _dots(e_rot[:, :m], f_rot[:, :m]) * e_rot[:, :m]
        partners.append(np.concatenate([partner, np.zeros_like(extra)], axis=1).reshape(-1, d_a))
        slots.append((first[idx, None] + np.arange(max(a, b))).ravel())

    dirs, partners, slots = (np.concatenate(x) for x in (dirs, partners, slots))
    # a pair is one-dimensional when f_mu is e_mu up to 1e-9
    norm = _norms(partners)
    paired = norm[:, 0] > 1e-9
    bases = (np.stack([dirs[paired], partners[paired] / norm[paired]], axis=-1), dirs[~paired, :, None])
    owner = np.repeat(np.arange(k), n_dirs)  # the instance of each slot
    blocks = [None] * len(owner)
    for b, slot in zip(bases, (slots[paired], slots[~paired])):
        b = np.ascontiguousarray(b)  # BLAS sums strided vectors in another order
        b_t = np.swapaxes(b, -1, -2)
        i = owner[slot]
        stack = two_projector_operator(b_t @ p1[i] @ b, b_t @ p2[i] @ b, q0[i], q1[i], q2[i])
        for j, block in zip(slot.tolist(), stack):
            blocks[j] = block

    multiplicity = d_a - n_dirs - np.bincount(owner[slots[paired]], minlength=k)
    residuals = [np.repeat(eigs, n) for eigs, n in zip(np.linalg.eigvalsh(q0), multiplicity)]
    # with both projectors zero the residual is the full operator's spectrum
    zero = np.flatnonzero(n_dirs == 0)
    for i, spectrum in zip(zero.tolist(), np.linalg.eigvalsh(_kron_sum(np.eye(d_a)[None], q0[zero, None]))):
        residuals[i] = spectrum
    return [
        BlockReduction(tuple(blocks[j : j + n]), residual, s)
        for j, n, residual, s in zip(first.tolist(), n_dirs.tolist(), residuals, s_vals)
    ]


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
    def encode(projs):
        out = []
        for x, p in enumerate(projs):
            w, v = np.linalg.eigh(p)
            rank = int(np.sum(w > 0.5))
            if rank == 1:
                out.append({"setting": x, "vector": [float(t) for t in v[:, -1]]})
            else:
                out.append({"setting": x, "matrix": [[float(t) for t in row] for row in p]})
        return out

    return {
        "dims": list(model.dims),
        "state": [float(t) for t in model.state],
        "alice": encode(model.alice),
        "bob": encode(model.bob),
    }


@json_decoder("model")
def model_from_json(data) -> QuantumModel:
    if not isinstance(data, dict) or "dims" not in data or "state" not in data:
        raise InvalidInputError("model JSON needs 'dims', 'state', 'alice', 'bob'")

    def decode(entries):
        by_setting = {strict_int(e["setting"], "setting"): e for e in entries}
        if sorted(by_setting) != list(range(len(entries))):
            raise InvalidInputError("measurement settings must be 0..k-1, each once")
        ordered = (by_setting[x] for x in range(len(entries)))
        return tuple(projector_onto(e["vector"]) if "vector" in e else np.asarray(e["matrix"], float) for e in ordered)

    state = np.asarray(data["state"], dtype=float)
    return QuantumModel(strict_pair(data["dims"], "dims"), state, decode(data["alice"]), decode(data["bob"]))


def load_model(path) -> QuantumModel:
    return model_from_json(load_json(path))


def save_model(model: QuantumModel, path) -> None:
    save_json(model_to_json(model), path)
