import math
import tracemalloc

import numpy as np
import pytest

from pentabell.errors import InvalidInputError
from pentabell.quantum import QuantumModel, behavior_of, known_optimal_model, qmax_scan_ineq2, qmax_seesaw
from pentabell import simkit
from pentabell.scenarios import (
    Behavior,
    DeterministicStrategy,
    Event,
    Inequality,
    evaluate,
    lhv_bound,
    named_inequality,
    pr_box,
    strategy_behavior,
)
from pentabell.simkit import (
    CountTable,
    SimConfig,
    derive_seed,
    estimate,
    mix64,
    run_experiment,
    run_experiments,
    sample_counts,
    splitmix64_stream,
    uniforms,
)

# First outputs of the reference splitmix64 implementation for seed 0.
SPLITMIX64_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
)


def test_splitmix64_reference_vectors():
    stream = splitmix64_stream(0, 5)
    assert tuple(int(v) for v in stream) == SPLITMIX64_SEED0


def test_splitmix64_vector_matches_scalar_path():
    seed = 20260808
    stream = splitmix64_stream(seed, 8)
    golden = 0x9E3779B97F4A7C15
    for i in range(8):
        assert int(stream[i]) == mix64(seed + (i + 1) * golden)


def test_uniforms_range_and_determinism():
    u = uniforms(123, 10000)
    assert np.all((0.0 <= u) & (u < 1.0))
    assert np.array_equal(u, uniforms(123, 10000))
    assert abs(float(u.mean()) - 0.5) < 0.02


def test_derived_seeds_distinct():
    seeds = {derive_seed(0, x, y) for x in range(4) for y in range(4)}
    assert len(seeds) == 16


def _unmix64(z):
    """Inverse of mix64: undo each xor-shift and multiply in reverse."""

    def unshift(z, s):
        x = z
        for _ in range(64 // s):
            x = z ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & simkit._MASK64, 27)
    return unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & simkit._MASK64, 30)


def test_derive_seeds_array_matches_scalar_derive_seed():
    rng = np.random.default_rng(11)
    near_top = [(1 << 64) - 1 - i for i in range(4)]
    # mix64(seed) + 4x + y + 1 wraps past 2^64 for these
    wrapping = [_unmix64((1 << 64) - j) for j in range(1, 12)]
    seeds = [int(s) for s in rng.integers(0, 1 << 63, size=200)] + near_top + wrapping
    assert all(simkit.mix64(s) >= (1 << 64) - 11 for s in wrapping)
    pairs = [(x, y) for x in range(3) for y in range(3)]
    derived = simkit._derive_seeds(seeds, pairs)
    assert derived.dtype == np.uint64
    assert [int(v) for v in derived] == [derive_seed(s, x, y) for s in seeds for x, y in pairs]


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SimConfig(shots=0)
    with pytest.raises(InvalidInputError):
        SimConfig(shots=10, visibility=1.5)
    for shots in (2.5, 2.0, True, "10"):
        with pytest.raises(InvalidInputError, match="shots must be an integer"):
            SimConfig(shots=shots)
    assert SimConfig(shots=np.int64(7)).shots == 7


def test_sampling_is_deterministic():
    m = known_optimal_model("pentagon-2")
    cfg = SimConfig(shots=2000, seed=99)
    t1 = sample_counts(m, cfg)
    t2 = sample_counts(m, cfg)
    assert all(np.array_equal(t1.counts[k], t2.counts[k]) for k in t1.counts)
    # and the full report is byte-identical
    iq = named_inequality("pentagon-2")
    r1 = run_experiment(iq, m, cfg)
    r2 = run_experiment(iq, m, cfg)
    assert r1.to_text() == r2.to_text()
    assert r1.to_json_dict() == r2.to_json_dict()


def test_run_experiment_samples_its_ideal_behavior(monkeypatch):
    import pentabell.simkit as simkit

    m = known_optimal_model("pentagon-1")
    cfg = SimConfig(shots=3000, seed=5, visibility=0.8)
    from_model = sample_counts(m, cfg)
    from_behavior = sample_counts(behavior_of(m), cfg)
    assert all(np.array_equal(from_model.counts[k], from_behavior.counts[k]) for k in from_model.counts)

    calls = []

    def counting_behavior_of(model):
        calls.append(model)
        return behavior_of(model)

    monkeypatch.setattr(simkit, "behavior_of", counting_behavior_of)
    run_experiment(named_inequality("pentagon-1"), m, cfg)
    assert len(calls) == 1


def searchsorted_counts(behavior, cfg):
    """Reference sampler: each draw's outcome located among the cumulative
    edges with searchsorted, then tallied."""
    counts = {}
    for x, y in sorted(behavior.pairs):
        p = cfg.visibility * behavior.table(x, y) + (1.0 - cfg.visibility) / 4.0
        edges = np.cumsum(p.reshape(-1))
        edges[-1] = 1.0
        u = uniforms(derive_seed(cfg.seed, x, y), cfg.shots)
        counts[(x, y)] = np.bincount(np.searchsorted(edges, u, side="right"), minlength=4).reshape(2, 2)
    return counts


@pytest.mark.parametrize(
    "behavior",
    [
        behavior_of(known_optimal_model("pentagon-1")),
        strategy_behavior(DeterministicStrategy((0, 1), (1, 0))),  # three zero cells per pair
        pr_box(),  # two zero cells per pair
    ],
    ids=["pentagon-1", "deterministic", "pr-box"],
)
@pytest.mark.parametrize("visibility", [1.0, 0.9, 0.0])
def test_threshold_counts_match_searchsorted_reference(behavior, visibility):
    for shots, seeds in ((20_000, (0, 7)), (1, range(40))):
        for seed in seeds:
            cfg = SimConfig(shots=shots, seed=seed, visibility=visibility)
            table = sample_counts(behavior, cfg)
            reference = searchsorted_counts(behavior, cfg)
            assert table.counts.keys() == reference.keys()
            for key, block in table.counts.items():
                assert block.dtype == reference[key].dtype
                assert np.array_equal(block, reference[key])


def test_seed_blocked_counts_match_per_seed_reference():
    m = known_optimal_model("pentagon-2")
    ideal = behavior_of(m)
    cfg = SimConfig(shots=5000)
    stack = simkit._count_stack(ideal, cfg, range(200))
    assert stack.dtype == np.int64
    for seed in range(200):
        per_seed = SimConfig(shots=5000, seed=seed)
        reference = searchsorted_counts(ideal, per_seed)
        table = sample_counts(m, per_seed)
        for (x, y), block in reference.items():
            assert np.array_equal(stack[seed, x, y], block)
            assert np.array_equal(table.counts[(x, y)], block)
    reports = run_experiments(named_inequality("pentagon-2"), m, cfg, range(200))
    for seed in (0, 1, 117, 199):
        single = run_experiment(named_inequality("pentagon-2"), m, SimConfig(shots=5000, seed=seed))
        assert reports[seed] == single


@pytest.mark.parametrize("alice_settings", [1, 0], ids=["alice-setting-0", "no-alice-settings"])
def test_uncovered_model_fails_before_any_draw(monkeypatch, alice_settings):
    full = known_optimal_model("pentagon-1")
    model = QuantumModel(full.dims, full.state, full.alice[:alice_settings], full.bob)
    streams = []
    monkeypatch.setattr(simkit, "_threshold_counts", lambda seeds, *args: streams.append(len(seeds)))
    with pytest.raises(InvalidInputError, match="setting pairs do not cover event"):
        run_experiments(named_inequality("pentagon-1"), model, SimConfig(shots=10_000_000), range(3))
    assert streams == []


def _term_model(name):
    if name == "chsh-prob":
        return qmax_scan_ineq2().model
    if name == "i3322":
        return qmax_seesaw(named_inequality("i3322"), dims=(2, 2), restarts=4, seed=0)[1]
    return known_optimal_model(name)


@pytest.mark.parametrize("name", ["pentagon-1", "pentagon-2", "pentagon-3", "chsh-prob", "i3322"])
def test_run_experiments_equal_estimates_on_every_pair(monkeypatch, name):
    # run_experiments draws only the pairs the terms read; its reports equal
    # estimate's on sample_counts' table of every covered pair
    iq, model = named_inequality(name), _term_model(name)
    cfg = SimConfig(shots=5000, visibility=0.9)
    streams = []
    threshold_counts = simkit._threshold_counts

    def counted(seeds, shots, edges):
        streams.append(len(seeds))
        return threshold_counts(seeds, shots, edges)

    monkeypatch.setattr(simkit, "_threshold_counts", counted)
    reports = run_experiments(iq, model, cfg, (0, 1, 7))
    if name == "pentagon-3":
        assert streams == [5 * 3]
    ideal, lhv = behavior_of(model), lhv_bound(iq)[0]
    for seed, report in zip((0, 1, 7), reports):
        counts = sample_counts(model, SimConfig(shots=5000, seed=seed, visibility=0.9))
        assert report == estimate(counts, iq, ideal=ideal, lhv=lhv)


def test_million_shot_pair_spans_blocks_bit_identically():
    one_pair = Behavior(behavior_of(known_optimal_model("pentagon-1")).table(0, 0)[None, None])
    cfg = SimConfig(shots=1_000_000, seed=3, visibility=0.9)
    assert cfg.shots > simkit._BLOCK_DRAWS
    table = sample_counts(one_pair, cfg)
    assert np.array_equal(table.counts[(0, 0)], searchsorted_counts(one_pair, cfg)[(0, 0)])


def test_behavior_with_holes_samples_its_own_pairs():
    full = behavior_of(known_optimal_model("pentagon-2"))
    tables = np.array([[full.table(x, y) for y in range(2)] for x in range(2)])
    diagonal = Behavior(tables, pairs={(0, 0), (1, 1)})
    cfg = SimConfig(shots=5000, seed=4, visibility=0.9)
    table = sample_counts(diagonal, cfg)
    assert sorted(table.counts) == [(0, 0), (1, 1)]
    reference = sample_counts(full, cfg)
    for pair, block in table.counts.items():
        assert np.array_equal(block, reference.counts[pair])


def searchsorted_below(seeds, shots, edges):
    """Reference for _threshold_counts: per stream, the number of its
    uniforms below each edge, located in the sorted draws."""
    return np.array([np.searchsorted(np.sort(uniforms(int(s), shots)), e, side="left") for s, e in zip(seeds, edges)])


@pytest.mark.parametrize(
    "streams, shots, edges",
    [
        # a cumulative edge that rounds above 1 counts every draw; the
        # largest double below 1 gives the largest full-word threshold
        (3, 5000, [[0.25, 0.5, 1.0 + 2.0**-52], [0.0, 1.0, 1.0], [0.5, 1.0 - 2.0**-53, 1.0 + 2.0**-52]]),
        (4, 20_000, [[0.0, 0.0, 0.0]] * 4),
        # 32 streams per block of 1,000 draws, the last row group partial
        (70, 1000, None),
        # one stream per block, spread over three column chunks
        (3, 2 * (1 << 15) + 3, None),
        (50, 1, None),
    ],
    ids=["edge-above-one", "zero-edges", "partial-row-group", "partial-column-chunk", "one-shot"],
)
def test_threshold_counts_edge_cases_match_searchsorted(streams, shots, edges):
    rng = np.random.default_rng(streams * shots)
    seeds = rng.integers(0, 1 << 63, size=streams, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    if edges is None:
        edges = np.cumsum(rng.dirichlet(np.ones(4), size=streams), axis=1)[:, :3]
    edges = np.array(edges, dtype=float)
    below = simkit._threshold_counts(seeds, shots, edges)
    assert below.dtype == np.int64
    assert np.array_equal(below, searchsorted_below(seeds, shots, edges))


def test_sampler_memory_is_fixed_buffers():
    ideal = behavior_of(known_optimal_model("pentagon-2"))
    cfg = SimConfig(shots=1_000_000, seed=8)
    sample_counts(ideal, cfg)
    tracemalloc.start()
    try:
        sample_counts(ideal, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two uint64 work buffers and the ramp of 2^15 words and one bool row,
    # not memory per stream or per block
    assert peak <= 1 << 20


def test_zero_visibility_counts_are_uniform():
    m = known_optimal_model("pentagon-2")
    table = sample_counts(m, SimConfig(shots=100_000, seed=4, visibility=0.0))
    for block in table.counts.values():
        assert int(block.sum()) == 100_000
        # ~6 sigma window around N/4 for a binomial(N, 1/4)
        assert np.all(np.abs(block - 25_000) < 6 * math.sqrt(100_000 * 0.25 * 0.75))


def test_large_sample_concentrates_on_ideal():
    iq = named_inequality("pentagon-2")
    m = known_optimal_model("pentagon-2")
    table = sample_counts(m, SimConfig(shots=1_000_000, seed=12))
    report = estimate(table, iq, ideal=behavior_of(m))
    for term in report.terms:
        assert abs(term.p_hat - term.ideal) <= 5 * max(term.sigma, 1e-9)


def test_estimate_exact_ideal_proportions():
    iq = named_inequality("pentagon-2")
    beh = behavior_of(known_optimal_model("pentagon-2"))
    n = 1_000_000
    counts = {}
    for x in range(2):
        for y in range(2):
            block = np.floor(beh.table(x, y) * n).astype(int)
            block[0, 0] += n - int(block.sum())
            counts[(x, y)] = block
    report = estimate(CountTable(n, counts), iq)
    assert report.omega == pytest.approx(2.2071, abs=1e-3)


def test_estimate_degenerate_counts():
    iq = Inequality((Event.parse("00|00"),))
    block = np.zeros((2, 2), dtype=int)
    block[0, 0] = 500
    report = estimate(CountTable(500, {(0, 0): block}), iq)
    assert report.terms[0].p_hat == 1.0
    assert report.terms[0].sigma == 0.0


@pytest.mark.parametrize(
    "block",
    [
        [[-10, 50], [30, 30]],  # a negative count
        [[50, 50], [50, 50]],  # sums to 200, not shots
        [[25.0, 25.0], [25.0, 25.0]],  # not integers
        [[50, 50]],  # not 2x2
        [[50, 25], [25]],  # ragged
    ],
)
def test_count_table_rejects_malformed_blocks(block):
    with pytest.raises(InvalidInputError, match=r"setting pair \(0, 1\)"):
        CountTable(100, {(0, 0): np.full((2, 2), 25), (0, 1): block})


def test_estimate_missing_setting():
    iq = named_inequality("pentagon-1")
    block = np.full((2, 2), 25, dtype=int)
    with pytest.raises(InvalidInputError):
        estimate(CountTable(100, {(0, 0): block}), iq)


def test_sigma_scale_matches_reported_uncertainties():
    # ~5000 shots/pair gives per-term sigma around 0.007, the uncertainty
    # scale the reports are expected to show
    iq = named_inequality("pentagon-2")
    report = run_experiment(iq, known_optimal_model("pentagon-2"), SimConfig(shots=5000, seed=0))
    for term in report.terms:
        assert 0.007 / 1.5 <= term.sigma <= 0.007 * 1.5


def test_ideal_columns():
    iq1 = named_inequality("pentagon-1")
    rep1 = run_experiment(iq1, known_optimal_model("pentagon-1"), SimConfig(shots=100, seed=0))
    assert [t.ideal for t in rep1.terms] == pytest.approx(
        (0.464, 0.464, 0.323, 0.464, 0.464), abs=5e-4
    )
    assert rep1.ideal == pytest.approx(qmax_scan_ineq2().value, abs=1e-9)

    iq2 = named_inequality("pentagon-2")
    rep2 = run_experiment(iq2, known_optimal_model("pentagon-2"), SimConfig(shots=100, seed=0))
    assert tuple(round(t.ideal, 3) for t in rep2.terms) == (0.427, 0.427, 0.427, 0.427, 0.5)
    assert round(rep2.ideal, 3) == 2.207


def test_violation_flags():
    iq = named_inequality("pentagon-2")
    m = known_optimal_model("pentagon-2")
    ideal_run = run_experiment(iq, m, SimConfig(shots=5000, seed=3))
    assert ideal_run.violated
    noise_run = run_experiment(iq, m, SimConfig(shots=5000, seed=3, visibility=0.0))
    assert not noise_run.violated
    assert noise_run.omega == pytest.approx(1.5, abs=0.05)


def test_omega_statistics_over_200_seeds():
    iq = named_inequality("pentagon-2")
    m = known_optimal_model("pentagon-2")
    ideal = evaluate(iq, behavior_of(m))
    reports = [run_experiment(iq, m, SimConfig(shots=5000, seed=s)) for s in range(200)]
    omegas = np.array([r.omega for r in reports])
    sigma = reports[0].sigma
    # the quoted error bar is consistent with the spread across seeds
    assert sigma / 1.5 <= float(omegas.std(ddof=1)) <= sigma * 1.5
    # and the estimator is unbiased
    assert abs(float(omegas.mean()) - ideal) <= 3 * sigma / math.sqrt(200)


@pytest.mark.parametrize("name", ["pentagon-1", "pentagon-2"])
def test_total_sigma_is_calibrated_over_1000_seeds(name):
    # both inequalities put two terms on one setting pair, whose estimates
    # are negatively correlated; the reported sigma must follow the spread
    iq = named_inequality(name)
    ideal = behavior_of(known_optimal_model(name))
    reports = [estimate(sample_counts(ideal, SimConfig(shots=5000, seed=s)), iq) for s in range(1000)]
    spread = float(np.std([r.omega for r in reports], ddof=1))
    reported = float(np.mean([r.sigma for r in reports]))
    assert 0.9 * spread <= reported <= 1.1 * spread


def test_total_sigma_of_terms_on_distinct_pairs_adds_in_quadrature():
    # pentagon-3 has one term per setting pair, so nothing is correlated
    iq = named_inequality("pentagon-3")
    report = run_experiment(iq, known_optimal_model("pentagon-3"), SimConfig(shots=3000, seed=2))
    assert report.sigma == pytest.approx(math.sqrt(sum(t.sigma**2 for t in report.terms)), rel=1e-12)
