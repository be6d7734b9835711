"""Finite-statistics Monte Carlo: seeded outcome sampling, probability
estimates with binomial uncertainties, and violation reports.

Randomness comes from the splitmix64 mixing function (Steele, Lea & Flood's
splittable generator, as in Vigna's reference C code), used here in counter
mode: output i of stream s is mix64(s + i * GOLDEN_GAMMA).  The generator is
fully specified by the two constants and the mix function below and ships
with test vectors, so independent implementations can reproduce every count
table bit for bit.

Sampling a setting pair is threshold counting: with the pair's four outcome
probabilities cumulated in row-major (a, b) order, a uniform draw u selects
the first outcome whose cumulative edge exceeds u.  So the count of outcomes
up to k is B_k, the number of draws below edge k, and cell k counts
B_k - B_{k-1} with B_{-1} = 0 and B_3 the shot total: one vectorised
comparison per inner edge.  Because the generator is counter-mode, the
streams of many setting pairs and master seeds stack into one (stream, draw)
grid, which is generated and counted in blocks of a fixed number of draws; a
table does not depend on which other streams share its blocks, and a count
below one edge does not depend on the other edges.  So only the cells that
are read need counting: sample_counts counts every cell of every setting
pair, while run_experiments draws only the pairs and compares only the
edges that bound a cell some term reads (7 of pentagon-2's 12 inner edges),
and its internal count tables hold zeros in the unread cells and never
become a CountTable.  The blocks reuse buffers allocated once per call and
are mixed in place, and each draw's full 64-bit word is compared with its
edge scaled by 2^64, which counts exactly the draws whose top-53-bit uniform
lies below the edge.

Estimates contract each term's cells (`scenarios.term_cells`) with the
count table.  A model's Behavior covers every setting pair of its
settings; a measured `CountTable` may cover a subset, and a wildcard term
is then read at its lowest covered partner setting.  The total's sigma is
exact for the sum: terms measured at one setting pair share its shots and
are multinomially (negatively) correlated, so the variance is taken per
pair and added over the independent pairs.  Over 2,000 seeds at 5,000
shots it matches the empirical spread of the total within 0.5% for
pentagon-1 and pentagon-2 (adding the per-term sigmas in quadrature
overstated it by 24-25%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidInputError, strict_int, strict_ints, strict_iterable, strict_pair, strict_real
from .quantum import QuantumModel, behavior_of
from .scenarios import MAX_SETTING, Behavior, Inequality, lhv_bound, term_cells

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
# Draws per block.  The sampler's working memory is the γ ramp and two work
# buffers of this many uint64 words plus one bool row: at most 800 KiB.
_BLOCK_DRAWS = 1 << 15


def mix64(z: int) -> int:
    """The splitmix64 output function on one 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64_into(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """mix64 of every word of the uint64 array z, in place; tmp is scratch
    of z's shape."""
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of splitmix64 seeded with `seed` (uint64):
    output i is mix64(seed + (i + 1) * GOLDEN_GAMMA)."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA) + np.uint64(seed & _MASK64)
    return _mix64_into(z, np.empty_like(z))


def uniforms(seed: int, count: int) -> np.ndarray:
    """`count` doubles in [0, 1) from the top 53 bits of the stream."""
    return (splitmix64_stream(seed, count) >> np.uint64(11)).astype(float) * 2.0**-53


def derive_seed(seed: int, x: int, y: int) -> int:
    """Per-setting-pair substream seed: mix64(mix64(seed) + 4x + y + 1)."""
    return mix64(mix64(seed) + 4 * x + y + 1)


def _checked_seed(seed) -> int:
    """A master seed as an int; one outside [0, 2^64) raises rather than
    alias the seed it equals modulo 2^64."""
    seed = strict_int(seed, "seed")
    if not 0 <= seed <= _MASK64:
        raise InvalidInputError(f"seed must lie in [0, 2^64), not {seed}")
    return seed


def _derive_seeds(seeds, pairs) -> np.ndarray:
    """derive_seed(s, x, y) for every master seed s and (x, y) of pairs, as
    a seed-major flat uint64 array."""
    master = np.array([_checked_seed(s) for s in seeds], dtype=np.uint64)
    offsets = np.array([4 * x + y + 1 for x, y in pairs], dtype=np.uint64)
    z = _mix64_into(master, np.empty_like(master))[:, None] + offsets
    return _mix64_into(z, np.empty_like(z)).reshape(-1)


@dataclass(frozen=True)
class SimConfig:
    """Shots per setting pair, master seed, and state visibility.

    The sampled state is v * (pure model state) + (1 - v) * white noise, so
    v = 1 is the ideal experiment and v = 0 gives uniform outcomes.
    """

    shots: int
    seed: int = 0
    visibility: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "shots", strict_int(self.shots, "shots"))
        if self.shots < 1:
            raise InvalidInputError("shots must be >= 1")
        object.__setattr__(self, "seed", _checked_seed(self.seed))
        object.__setattr__(self, "visibility", strict_real(self.visibility, "visibility"))
        if not 0.0 <= self.visibility <= 1.0:
            raise InvalidInputError("visibility must lie in [0, 1]")


@dataclass(frozen=True)
class CountTable:
    """Outcome counts per setting pair: each key is a pair of integer
    settings in [0, MAX_SETTING] and each block a 2x2 table of non-negative
    integers over (a, b) that sums to shots, or the table raises
    InvalidInputError naming the setting pair.  Unlike a Behavior, a count
    table may cover any subset of the setting pairs."""

    shots: int
    counts: dict  # (x, y) -> 2x2 integer array over (a, b)

    def __post_init__(self):
        if strict_int(self.shots, "shots") < 1:
            raise InvalidInputError("shots must be >= 1")
        if not isinstance(self.counts, dict):
            raise InvalidInputError(f"counts must map setting pairs to 2x2 blocks, not {self.counts!r}")
        read = {}
        for pair, block in self.counts.items():
            key = strict_pair(pair, f"setting pair {pair!r}")
            if not all(0 <= s <= MAX_SETTING for s in key):
                raise InvalidInputError(f"setting pair {pair!r} outside [0,{MAX_SETTING}]")
            read[key] = b = strict_ints(block, f"setting pair {pair} count")
            if b.shape != (2, 2) or b.min() < 0 or b.sum() != self.shots:
                raise InvalidInputError(
                    f"setting pair {pair}: counts are not 2x2 non-negative integers summing to shots"
                )
        object.__setattr__(self, "counts", read)


def _threshold_counts(seeds: np.ndarray, shots: int, edges: np.ndarray, compared: np.ndarray) -> np.ndarray:
    """(k, 3) number of the `shots` uniforms of stream seeds[i] below each of
    its three edges[i] where the boolean compared[i] holds, and 0 elsewhere:
    an edge that is not compared costs no pass over the draws.

    The (stream, draw) grid is generated _BLOCK_DRAWS words at a time: whole
    rows of several streams, or column chunks of one stream when a stream is
    longer than a block.  Counts add up over chunks, so the result does not
    depend on the blocking.  Every block is a contiguous (rows, width) view
    of the same two flat work buffers: the counters are one add of the γ
    ramp (i + 1) γ, computed once, to seed + start γ, and the mixing runs in
    place.  Uniform u = m 2^-53 with m the top 53 bits of word w is below e
    exactly when m < L = ceil(e 2^53), that is when w < L 2^11; so the
    comparison runs on the whole word, and an edge with L >= 2^53 (one that
    rounds to 1 or above) counts every draw.
    """
    limits = np.ceil(edges * 2.0**53).astype(np.uint64)
    every = limits >= np.uint64(1 << 53)
    thresholds = np.where(every, np.uint64(0), limits) << np.uint64(11)
    below = np.zeros(edges.shape, dtype=np.int64)
    # each stream's compared edges, listed once per pattern of the 3 bits
    patterns = [[k for k in range(3) if m >> k & 1] for m in range(8)]
    passes = [patterns[m] for m in (compared @ np.array([1, 2, 4])).tolist()]
    cols = min(shots, _BLOCK_DRAWS)
    rows = max(1, _BLOCK_DRAWS // shots)
    ramp = np.arange(1, cols + 1, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA)
    base = np.empty(min(rows, len(seeds)), dtype=np.uint64)
    z, tmp = np.empty(len(base) * cols, dtype=np.uint64), np.empty(len(base) * cols, dtype=np.uint64)
    flag = np.empty(cols, dtype=bool)
    for start in range(0, shots, cols):
        width = min(cols, shots - start)
        offset = np.uint64(start * GOLDEN_GAMMA & _MASK64)
        hits = flag[:width]
        for r in range(0, len(seeds), rows):
            n = min(rows, len(seeds) - r)
            block, scratch = z[: n * width].reshape(n, width), tmp[: n * width].reshape(n, width)
            np.add(seeds[r : r + n], offset, out=base[:n])
            np.add(ramp[:width], base[:n, None], out=block)
            _mix64_into(block, scratch)
            for i, row in enumerate(block, start=r):  # count_nonzero of a whole row is far cheaper than with axis=
                for k in passes[i]:
                    below[i, k] += np.count_nonzero(np.less(row, thresholds[i, k], out=hits))
    below[every & compared] = shots
    return below


def _count_stack(behavior: Behavior, cfg: SimConfig, seeds, cells: np.ndarray) -> np.ndarray:
    """(len(seeds), n_a, n_b, 2, 2) int64 count tables of cfg's experiment at
    each master seed, over the behavior's (n_a, n_b) settings.  The cells of
    the boolean (n_a, n_b, 2, 2) mask `cells`, which the caller names, are
    counted; every other cell holds zeros.

    A setting pair is drawn when any of its cells is counted: (x, y) at
    master seed s thresholds the uniforms of substream derive_seed(s, x, y)
    against the visibility-mixed distribution cumulated in row-major (a, b)
    order, and edge k is compared only when cell k or k + 1 is counted.
    The drawn pairs' tables are read in one index of the behavior's table,
    and all streams are counted in one pass.
    """
    xs, ys = np.nonzero(cells.any(axis=(2, 3)))
    pairs = list(zip(xs.tolist(), ys.tolist()))
    p = cfg.visibility * behavior._p[xs, ys] + (1.0 - cfg.visibility) / 4.0
    edges = np.cumsum(p.reshape(-1, 4), axis=1)[:, :3]
    read = cells[xs, ys].reshape(-1, 4)
    compared = read[:, :3] | read[:, 1:]
    n = len(seeds)
    below = _threshold_counts(
        _derive_seeds(seeds, pairs), cfg.shots, np.tile(edges, (n, 1)), np.tile(compared, (n, 1))
    )
    counts = np.diff(below, axis=1, prepend=0, append=cfg.shots).reshape(n, len(pairs), 2, 2)
    table = np.zeros((n, *cells.shape), dtype=np.int64)
    table[:, xs, ys] = counts * cells[xs, ys]
    return table


def sample_counts(model: Union[QuantumModel, Behavior], cfg: SimConfig) -> CountTable:
    """Multinomial outcome counts for every setting pair of the model's
    settings.

    The model may also be given as its ideal Behavior (as behavior_of
    returns it), which gives the same table.  Each pair (x, y) draws
    cfg.shots outcomes from the visibility-mixed distribution using its own
    derived substream, so tables are identical for identical (model, cfg)
    regardless of evaluation order.  This is the one-seed case of the
    sampler behind run_experiments.
    """
    behavior = model if isinstance(model, Behavior) else behavior_of(model)
    table = _count_stack(behavior, cfg, (cfg.seed,), np.ones(behavior._p.shape, dtype=bool))[0]
    table.flags.writeable = False
    return CountTable(cfg.shots, {(x, y): table[x, y] for x, y in sorted(behavior.pairs)})


@dataclass(frozen=True)
class TermEstimate:
    event: str
    p_hat: float
    sigma: float
    ideal: Optional[float] = None


@dataclass(frozen=True)
class ExperimentReport:
    """Per-term estimates with uncertainties and the total with its error.

    sigma per term is sqrt(p(1-p)/N).  The total's sigma is exact for the
    sum: per setting pair, the multinomial variance of the pair's share of
    the total, added over the independent pairs (see estimate).
    """

    terms: tuple
    omega: float
    sigma: float
    ideal: Optional[float]
    lhv: Optional[float]
    violated: Optional[bool]

    def to_text(self) -> str:
        lines = [f"{'Correlation':<12} {'Estimate':>20} {'Ideal':>10}"]
        for t in self.terms:
            ideal = "" if t.ideal is None else f"{t.ideal:.6f}"
            lines.append(f"P({t.event:<6}) {t.p_hat:>11.6f} +- {t.sigma:.6f} {ideal:>10}")
        ideal_total = "" if self.ideal is None else f"{self.ideal:.6f}"
        lines.append(f"{'total':<12} {self.omega:>11.6f} +- {self.sigma:.6f} {ideal_total:>10}")
        if self.violated is not None:
            margin = "" if self.lhv is None else f" (classical bound {self.lhv:g}, 3-sigma test)"
            lines.append(("VIOLATION" if self.violated else "no violation") + margin)
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"event": t.event, "estimate": t.p_hat, "sigma": t.sigma, "ideal": t.ideal}
                for t in self.terms
            ],
            "omega": self.omega,
            "sigma": self.sigma,
            "ideal": self.ideal,
            "violated": self.violated,
        }


def estimate(
    counts: CountTable,
    iq: Inequality,
    ideal: Optional[Behavior] = None,
    lhv: Optional[float] = None,
) -> ExperimentReport:
    """Estimate every term of the inequality from a count table (the
    one-table case of the estimates run_experiments makes)."""
    cells = term_cells(iq.terms, frozenset(counts.counts))
    table = np.zeros((1, *cells.shape[1:]))
    for (x, y), block in counts.counts.items():
        table[0, x, y] = block
    return _estimates(table, cells, counts.shots, iq, ideal, lhv)[0]


def _estimates(tables, cells, n, iq, ideal, lhv) -> list:
    """One report per count table of an (S, n_a, n_b, 2, 2) stack, n shots
    per setting pair, given the terms' cells over the covered setting pairs
    (see term_cells).

    Each term's count is its cells contracted with the count table, so a
    marginal (wildcard) term sums the wildcard party's outcomes at the
    lowest covered partner setting.  The total is the sum of the term
    estimates in term order; its variance is summed over setting pairs,
    each (sum c^2 p - (sum c p)^2) / N with c the summed cells of all terms:
    terms of one pair are multinomially correlated.
    """
    p_hat = tables.reshape(len(tables), -1) @ cells.reshape(len(cells), -1).T / n
    sigmas = np.sqrt(p_hat * (1.0 - p_hat) / n)
    omegas = np.cumsum(p_hat, axis=1)[:, -1]
    c, freq = cells.sum(axis=0), tables / n
    per_pair = (c * c * freq).sum(axis=(3, 4)) - (c * freq).sum(axis=(3, 4)) ** 2
    # round-off can leave a zero variance (one outcome per pair) slightly negative
    totals = np.sqrt(np.maximum(per_pair.reshape(len(tables), -1).sum(axis=1) / n, 0.0))
    ideals = [None] * len(cells) if ideal is None else ideal.probs(iq.terms).tolist()
    ideal_total = None if ideal is None else float(sum(ideals))
    names = [str(t) for t in iq.terms]
    reports = []
    for row, row_sigmas, omega, sigma in zip(p_hat.tolist(), sigmas.tolist(), omegas.tolist(), totals.tolist()):
        terms = tuple(TermEstimate(*term) for term in zip(names, row, row_sigmas, ideals))
        violated = None if lhv is None else bool(omega - lhv > 3.0 * sigma)
        reports.append(ExperimentReport(terms, omega, sigma, ideal_total, lhv, violated))
    return reports


def run_experiment(iq: Inequality, model: QuantumModel, cfg: SimConfig) -> ExperimentReport:
    """Sample counts and report the estimated violation against the ideal
    column computed from the model at visibility 1: run_experiments at the
    one seed cfg.seed."""
    return run_experiments(iq, model, cfg, (cfg.seed,))[0]


def run_experiments(iq: Inequality, model: QuantumModel, cfg: SimConfig, seeds) -> list:
    """One experiment report at each master seed of `seeds` (a collection
    of seeds, read through `errors.strict_iterable`) in place of cfg.seed;
    no seeds give no reports.

    The ideal behavior is computed once, and the terms' cells over its
    setting pairs are resolved before any draw, so a model whose pairs do
    not cover the inequality raises InvalidInputError without sampling,
    even with no seeds.
    Only the cells that some term reads are counted, over one seed axis for
    all seeds: a pair none of whose cells is read is not drawn (pentagon-3
    reads 5 of its 6 pairs), and only the cumulative edges that bound a read
    cell are compared (pentagon-2 needs 7 of its 12).  Each read cell's
    count equals sample_counts' at that seed, an unread cell's count is zero
    and weighs nothing, so each report equals estimate's on sample_counts'
    table.
    """
    ideal = behavior_of(model)
    cells = term_cells(iq.terms, ideal.pairs)
    seeds = list(strict_iterable(seeds, "seeds"))
    if not seeds:
        return []
    tables = _count_stack(ideal, cfg, seeds, cells.any(axis=0))
    return _estimates(tables.astype(float), cells, cfg.shots, iq, ideal, float(lhv_bound(iq)[0]))
