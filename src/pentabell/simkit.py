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
up to k is the number of draws below edge k, and the table is the
differences of three such counts (one vectorised comparison per inner edge)
and the shot total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidInputError
from .quantum import QuantumModel, behavior_of
from .scenarios import Behavior, Inequality, lhv_bound

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """The splitmix64 output function on one 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of splitmix64 seeded with `seed` (uint64)."""
    with np.errstate(over="ignore"):
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(GOLDEN_GAMMA)
        z += np.uint64(seed & _MASK64)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z


def uniforms(seed: int, count: int) -> np.ndarray:
    """`count` doubles in [0, 1) from the top 53 bits of the stream."""
    return (splitmix64_stream(seed, count) >> np.uint64(11)).astype(float) * 2.0**-53


def derive_seed(seed: int, x: int, y: int) -> int:
    """Per-setting-pair substream seed: mix64(mix64(seed) + 4x + y + 1)."""
    return mix64(mix64(seed) + 4 * x + y + 1)


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
        if self.shots < 1:
            raise InvalidInputError("shots must be >= 1")
        if not 0.0 <= self.visibility <= 1.0:
            raise InvalidInputError("visibility must lie in [0, 1]")


@dataclass(frozen=True)
class CountTable:
    """Outcome counts per setting pair; each 2x2 block sums to shots."""

    shots: int
    counts: dict  # (x, y) -> 2x2 integer array over (a, b)

    def block(self, x: int, y: int) -> np.ndarray:
        try:
            return self.counts[(x, y)]
        except KeyError:
            raise InvalidInputError(f"counts do not cover setting pair ({x},{y})") from None


def sample_counts(model: Union[QuantumModel, Behavior], cfg: SimConfig) -> CountTable:
    """Multinomial outcome counts for every setting pair of the model.

    The model may also be given as its ideal Behavior (as behavior_of
    returns it), which gives the same table.  Each pair (x, y) draws
    cfg.shots outcomes from the visibility-mixed distribution using its own
    derived substream, so tables are identical for identical (model, cfg)
    regardless of evaluation order.
    """
    behavior = model if isinstance(model, Behavior) else behavior_of(model)
    counts = {}
    for x in behavior.alice_settings:
        for y in behavior.bob_settings:
            p = cfg.visibility * behavior.table(x, y) + (1.0 - cfg.visibility) / 4.0
            edges = np.cumsum(p.reshape(-1))[:3]
            u = uniforms(derive_seed(cfg.seed, x, y), cfg.shots)
            below = [np.count_nonzero(u < edge) for edge in edges]
            block = np.diff([0, *below, cfg.shots]).reshape(2, 2)
            block.flags.writeable = False
            counts[(x, y)] = block
    return CountTable(cfg.shots, counts)


@dataclass(frozen=True)
class TermEstimate:
    event: str
    p_hat: float
    sigma: float
    ideal: Optional[float] = None

    @property
    def z_score(self) -> Optional[float]:
        if self.ideal is None:
            return None
        if self.sigma == 0.0:
            return 0.0 if self.p_hat == self.ideal else float("inf")
        return (self.p_hat - self.ideal) / self.sigma


@dataclass(frozen=True)
class ExperimentReport:
    """Per-term estimates with uncertainties and the total with its error.

    sigma per term is sqrt(p(1-p)/N); the total's error adds in quadrature.
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


def _term_count(counts: CountTable, term) -> int:
    if term.alice is not None and term.bob is not None:
        (x, a), (y, b) = term.alice, term.bob
        return int(counts.block(x, y)[a, b])
    if term.bob is not None:
        y, b = term.bob
        xs = sorted({k[0] for k in counts.counts if k[1] == y})
        if not xs:
            raise InvalidInputError(f"counts do not cover Bob setting {y}")
        return int(counts.block(xs[0], y)[:, b].sum())
    x, a = term.alice
    ys = sorted({k[1] for k in counts.counts if k[0] == x})
    if not ys:
        raise InvalidInputError(f"counts do not cover Alice setting {x}")
    return int(counts.block(x, ys[0])[a, :].sum())


def estimate(
    counts: CountTable,
    iq: Inequality,
    ideal: Optional[Behavior] = None,
    lhv: Optional[float] = None,
) -> ExperimentReport:
    """Estimate every term of the inequality from a count table.

    Marginal (wildcard) terms are estimated by summing the wildcard party's
    outcomes at the lowest covered partner setting.
    """
    n = counts.shots
    terms = []
    for term in iq.terms:
        k = _term_count(counts, term)
        p_hat = k / n
        sigma = float(np.sqrt(p_hat * (1.0 - p_hat) / n))
        ideal_p = None if ideal is None else ideal.prob(term)
        terms.append(TermEstimate(str(term), p_hat, sigma, ideal_p))
    omega = float(sum(t.p_hat for t in terms))
    sigma = float(np.sqrt(sum(t.sigma**2 for t in terms)))
    ideal_total = None if ideal is None else float(sum(t.ideal for t in terms))
    violated = None if lhv is None else bool(omega - lhv > 3.0 * sigma)
    return ExperimentReport(tuple(terms), omega, sigma, ideal_total, lhv, violated)


def run_experiment(iq: Inequality, model: QuantumModel, cfg: SimConfig) -> ExperimentReport:
    """Sample counts and report the estimated violation against the ideal
    column computed from the model at visibility 1."""
    ideal = behavior_of(model)
    counts = sample_counts(ideal, cfg)
    lhv = iq.lhv
    if lhv is None:
        lhv = float(lhv_bound(iq)[0])
    return estimate(counts, iq, ideal=ideal, lhv=lhv)
