"""Historical VaR, Sharpe ratios, and inverse-risk portfolio weights."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_sim
import synth
from mstport import allocation as al, errors, market_data as md


def var_oracle(series: np.ndarray, alpha: float) -> float:
    """Sort-and-index quantile with exact rational index arithmetic."""
    n = len(series)
    k = max(math.ceil(Fraction(alpha).limit_denominator(10**9) * n), 1)
    raw = -sorted(series)[k - 1]
    return min(max(raw, al.VAR_FLOOR), al.VAR_PENALTY)


# ---------------------------------------------------------------------------
# historical VaR
# ---------------------------------------------------------------------------


def test_var_matches_sort_oracle_on_random_series():
    rng = np.random.default_rng(31)
    alphas = (0.01, 0.05, 0.10, 0.25, 0.5)
    for trial in range(300):
        n = int(rng.integers(1, 300))
        series = rng.normal(0.0, 0.02, n)
        alpha = alphas[trial % len(alphas)]
        assert al.historical_var(series, alpha) == var_oracle(series, alpha)


def test_var_twenty_day_example():
    rng = np.random.default_rng(32)
    series = rng.uniform(-0.05, 0.05, 20)
    series[7] = -0.08
    # alpha 0.05 over 20 observations keeps exactly the single worst day
    assert al.historical_var(series, 0.05) == pytest.approx(0.08)


def test_var_quantile_index_is_exact_at_float_boundaries():
    # alpha * n cases where naive float ceil would overshoot by one
    for n, alpha in ((20, 0.05), (40, 0.05), (60, 0.05), (30, 0.10), (300, 0.01)):
        series = -np.linspace(0.01, 0.09, n)
        expected_k = round(alpha * n)  # these products are exact integers
        expected = min(max(float(-np.sort(series)[expected_k - 1]), al.VAR_FLOOR), al.VAR_PENALTY)
        assert al.historical_var(series, alpha) == expected


def test_var_clipping_bounds():
    calm = np.full(50, 0.001)  # all positive: raw quantile is negative
    assert al.historical_var(calm, 0.05) == al.VAR_FLOOR
    crash = np.full(50, -25.0)
    assert al.historical_var(crash, 0.05) == al.VAR_PENALTY
    single = np.array([-0.5])
    assert al.historical_var(single, 0.05) == 0.5


def test_var_rejects_bad_inputs():
    with pytest.raises(errors.DataError):
        al.historical_var(np.array([]), 0.05)
    with pytest.raises(errors.DataError):
        al.historical_var(np.array([0.01, np.nan]), 0.05)
    with pytest.raises(errors.DataError):
        al.historical_var(np.array([0.01]), 0.0)
    with pytest.raises(errors.DataError):
        al.historical_var(np.array([0.01]), 0.6)


# ---------------------------------------------------------------------------
# Sharpe ratio
# ---------------------------------------------------------------------------


def test_sharpe_ratio_matches_formula():
    rng = np.random.default_rng(33)
    series = rng.normal(0.001, 0.02, 120)
    expected = (series.mean() - 0.0002) / series.std(ddof=1)
    assert al.sharpe_ratio(series, risk_free=0.0002) == pytest.approx(expected, rel=1e-12)


def test_sharpe_ratio_zero_dispersion_is_zero():
    assert al.sharpe_ratio(np.full(30, 0.01)) == 0.0
    assert al.sharpe_ratio(np.array([0.01, 0.01 + 1e-12, 0.01])) == 0.0


def test_sharpe_ratio_needs_two_observations():
    with pytest.raises(errors.DataError):
        al.sharpe_ratio(np.array([0.01]))


def test_var_is_shift_monotone_before_clipping():
    rng = np.random.default_rng(34)
    series = rng.normal(0.0, 0.05, 80)
    delta = 0.013
    base = al.historical_var(series, 0.10)
    shifted = al.historical_var(series - delta, 0.10)
    assert shifted == pytest.approx(base + delta, abs=1e-15)


# ---------------------------------------------------------------------------
# weight vectors
# ---------------------------------------------------------------------------


def returns_window(columns: dict[str, np.ndarray]) -> md.ReturnMatrix:
    names = tuple(sorted(columns))
    data = np.column_stack([columns[t] for t in names])
    return md.ReturnMatrix(
        dates=synth.day_range(data.shape[0]),
        tickers=names,
        returns=data,
        mask=np.zeros_like(data, dtype=bool),
    )


def base_series(n: int, worst: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    out = rng.uniform(-0.01, 0.02, n)
    out[n // 2] = worst
    return out


def test_var_weights_inverse_proportional():
    win = returns_window(
        {
            "A": base_series(20, -0.02, seed=1),
            "B": base_series(20, -0.04, seed=2),
        }
    )
    weights = reference_sim.var_weights(("A", "B"), win, alpha=0.05)
    assert weights.tickers == ("A", "B")
    np.testing.assert_allclose(weights.normalized, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)
    assert math.fsum(weights.normalized) == pytest.approx(1.0, abs=1e-15)


def test_var_weights_penalised_stock_gets_sliver():
    win = returns_window(
        {
            "A": base_series(20, -0.02, seed=3),
            "B": base_series(20, -0.02, seed=4),
            "C": base_series(20, -0.02, seed=5),
        }
    )
    masked = md.ReturnMatrix(
        win.dates,
        win.tickers,
        win.returns,
        np.column_stack([np.zeros((20, 2), dtype=bool), np.ones((20, 1), dtype=bool)]),
    )
    weights = reference_sim.var_weights(("A", "B", "C"), masked, alpha=0.05)
    raw = dict(zip(weights.tickers, weights.normalized))
    expected_c = (1.0 / 10.0) / (2.0 / 0.02 + 1.0 / 10.0)
    assert raw["C"] == pytest.approx(expected_c, rel=1e-12)
    assert raw["A"] == raw["B"] == pytest.approx((1.0 / 0.02) / (2.0 / 0.02 + 0.1), rel=1e-12)


def test_sharpe_weights_proportional_to_positive_ratios():
    rng = np.random.default_rng(8)
    cols = {
        "A": rng.normal(0.002, 0.01, 60),
        "B": rng.normal(0.004, 0.01, 60),
        "C": rng.normal(-0.003, 0.01, 60),  # negative ratio floors at zero
    }
    win = returns_window(cols)
    weights = reference_sim.sharpe_weights(("A", "B", "C"), win)
    ratios = {t: max(al.sharpe_ratio(cols[t]), 0.0) for t in cols}
    total = sum(ratios.values())
    got = dict(zip(weights.tickers, weights.normalized))
    for t in cols:
        assert got[t] == pytest.approx(ratios[t] / total, rel=1e-12)
    assert got["C"] == 0.0


def test_sharpe_weights_exact_ratio_split():
    weights = al.from_raw(("A", "B"), [0.05, 0.15])
    np.testing.assert_allclose(weights.normalized, [0.25, 0.75], rtol=1e-15)


def test_sharpe_weights_masked_column_zeroed():
    rng = np.random.default_rng(9)
    cols = {"A": rng.normal(0.003, 0.01, 40), "B": rng.normal(0.003, 0.01, 40)}
    win = returns_window(cols)
    masked = md.ReturnMatrix(
        win.dates,
        win.tickers,
        win.returns,
        np.column_stack([np.zeros((40, 1), dtype=bool), np.ones((40, 1), dtype=bool)]),
    )
    weights = reference_sim.sharpe_weights(("A", "B"), masked)
    got = dict(zip(weights.tickers, weights.normalized))
    assert got["B"] == 0.0
    assert got["A"] == 1.0


def test_all_negative_sharpe_ratios_yield_cash_vector():
    rng = np.random.default_rng(11)
    cols = {
        "A": rng.normal(-0.004, 0.01, 50),
        "B": rng.normal(-0.006, 0.01, 50),
    }
    win = returns_window(cols)
    assert al.sharpe_ratio(cols["A"]) < 0 and al.sharpe_ratio(cols["B"]) < 0
    weights = reference_sim.sharpe_weights(("A", "B"), win)
    assert weights.is_all_zero()


def test_all_zero_weights_are_legal_and_flagged():
    weights = al.from_raw(("A", "B"), [0.0, 0.0])
    assert weights.is_all_zero()
    assert weights.normalized == (0.0, 0.0)
    positive = al.from_raw(("A", "B"), [1.0, 3.0])
    assert not positive.is_all_zero()
    np.testing.assert_allclose(positive.normalized, [0.25, 0.75])


def test_weight_vector_invariants_enforced():
    with pytest.raises(errors.DataError):
        al.from_raw(("A",), [-0.1])
    with pytest.raises(errors.DataError):
        al.from_raw(("A", "B"), [0.1, np.inf])
    with pytest.raises(errors.DataError, match=r"^tickers and raw weights are misaligned$"):
        al.from_raw(("A", "B"), [0.5])
    with pytest.raises(errors.DataError):
        al.WeightVector(entries=(("A", 1.0, 0.7), ("B", 1.0, 0.7)))
    with pytest.raises(errors.DataError):
        al.WeightVector(entries=(("A", 1.0, -0.2), ("B", 1.0, 1.2)))


def test_weights_unknown_ticker_rejected():
    win = returns_window({"A": base_series(20, -0.02, seed=10)})
    with pytest.raises(errors.DataError):
        reference_sim.var_weights(("A", "Z"), win, alpha=0.05)


# ---------------------------------------------------------------------------
# whole-selection weighting against the per-ticker loops it replaced


def scalar_var(series, alpha):
    """``historical_var`` of one series, as a lone scalar computation."""
    x = np.asarray(series, dtype=float)
    n = x.size
    k = max(math.ceil(alpha * n - 1e-9), 1)
    raw = -float(np.sort(x)[k - 1])
    return min(max(raw, al.VAR_FLOOR), al.VAR_PENALTY)


def scalar_sharpe(series, risk_free=0.0):
    x = np.asarray(series, dtype=float)
    if x.size < 2:
        raise errors.DataError("sharpe ratio needs at least two observations")
    std = float(np.std(x, ddof=1))
    if std < 1e-8:
        return 0.0
    return (float(np.mean(x)) - risk_free) / std


def oracle_var_weights(stocks, win, alpha):
    raws = []
    for ticker in stocks:
        j = win.ticker_index(ticker)
        if win.mask[:, j].any():
            var = al.VAR_PENALTY
        else:
            var = scalar_var(win.returns[:, j], alpha)
        raws.append(1.0 / var)
    return al.from_raw(tuple(stocks), raws)


def oracle_sharpe_weights(stocks, win, risk_free):
    raws = []
    for ticker in stocks:
        j = win.ticker_index(ticker)
        ratio = 0.0 if win.mask[:, j].any() else scalar_sharpe(win.returns[:, j], risk_free)
        raws.append(max(ratio, 0.0))
    return al.from_raw(tuple(stocks), raws)


def outcome(fn, *args):
    """Entries with every float as its exact bits, or the DataError's message."""
    try:
        weights = fn(*args)
    except errors.DataError as exc:
        return str(exc)
    for _, raw, norm in weights.entries:
        assert type(raw) is float and type(norm) is float
    return tuple((t, raw.hex(), norm.hex()) for t, raw, norm in weights.entries)


COLUMN_KINDS = ("plain", "plain", "negative", "flat", "near_flat", "zeros", "masked", "huge")


def random_selection_window(rng):
    """A window whose columns mix the cases the weighting rules single out,
    the selection (a shuffled subset), the alpha and the column kinds."""
    n = int(rng.integers(1, 160))
    n_tickers = int(rng.integers(1, 8))
    kinds = [COLUMN_KINDS[i] for i in rng.integers(0, len(COLUMN_KINDS), n_tickers)]
    data = np.empty((n, n_tickers))
    mask = np.zeros((n, n_tickers), dtype=bool)
    for j, kind in enumerate(kinds):
        col = rng.normal(rng.uniform(-0.003, 0.004), rng.uniform(0.001, 0.05), n)
        if kind == "negative":
            col = rng.normal(-0.01, 0.002, n)
        elif kind == "flat":
            col = np.full(n, rng.uniform(-0.01, 0.01))
        elif kind == "near_flat":
            col = 0.004 + 1e-12 * rng.normal(size=n)
        elif kind == "zeros":
            col = np.zeros(n)
        elif kind == "huge":
            col = rng.normal(0.0, 30.0, n)  # VaR clips at the penalty
        elif kind == "masked":
            mask[rng.integers(0, n, int(rng.integers(1, n + 1))), j] = True
        data[:, j] = col
    names = tuple(f"T{j}" for j in range(n_tickers))
    win = md.ReturnMatrix(synth.day_range(n), names, data, mask)
    chosen = rng.permutation(n_tickers)[: int(rng.integers(1, n_tickers + 1))]
    stocks = tuple(names[j] for j in chosen)
    if rng.random() < 0.4:
        # alpha * n within 1e-12 of an integer m
        m = int(rng.integers(1, max(n // 2, 1) + 1))
        alpha = min((m + float(rng.choice((-5e-13, 0.0, 5e-13)))) / n, 0.5)
    else:
        alpha = float(rng.choice((0.01, 0.05, 0.1, 0.25, 0.5)))
    return win, stocks, alpha, [kinds[j] for j in chosen]


def test_whole_selection_weights_equal_per_ticker_loops():
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(1500):
        win, stocks, alpha, kinds = random_selection_window(rng)
        n = win.returns.shape[0]
        got = outcome(reference_sim.var_weights, stocks, win, alpha)
        assert got == outcome(oracle_var_weights, stocks, win, alpha)
        risk_free = float(rng.choice((0.0, 0.0002, -0.001, 0.01)))
        got_sharpe = outcome(reference_sim.sharpe_weights, stocks, win, risk_free)
        assert got_sharpe == outcome(oracle_sharpe_weights, stocks, win, risk_free)
        seen.update(kinds)
        if abs(alpha * n - round(alpha * n)) < 1e-12 and alpha not in (0.01, 0.05, 0.1, 0.25, 0.5):
            seen.add("alpha * n near an integer")
        if isinstance(got_sharpe, str):
            seen.add("sharpe error")
        elif all(float.fromhex(norm) == 0.0 for _, _, norm in got_sharpe):
            seen.add("all-zero sharpe")
    assert seen == set(COLUMN_KINDS) | {"alpha * n near an integer", "sharpe error", "all-zero sharpe"}


def test_block_and_single_series_agree_bit_for_bit():
    rng = np.random.default_rng(77)
    for _ in range(400):
        k, n = int(rng.integers(1, 9)), int(rng.integers(2, 200))
        block = rng.normal(rng.uniform(-0.01, 0.01, (k, 1)), rng.uniform(1e-3, 0.1, (k, 1)), (k, n))
        block[rng.random(k) < 0.2] = rng.uniform(-0.01, 0.01)  # flat rows
        alpha = float(rng.choice((0.01, 0.05, 0.1, 0.25, 0.5)))
        risk_free = float(rng.choice((0.0, 0.0002)))
        var_rows = al.historical_var(block, alpha)
        sharpe_rows = al.sharpe_ratio(block, risk_free)
        assert var_rows.shape == sharpe_rows.shape == (k,)
        for i in range(k):
            one_var = al.historical_var(block[i], alpha)
            one_sharpe = al.sharpe_ratio(block[i], risk_free)
            assert type(one_var) is float and type(one_sharpe) is float
            assert one_var.hex() == float(var_rows[i]).hex() == scalar_var(block[i], alpha).hex()
            assert one_sharpe.hex() == float(sharpe_rows[i]).hex() == scalar_sharpe(block[i], risk_free).hex()


# ---------------------------------------------------------------------------
# one normalisation rule against the former from_raw


def frozen_from_raw(tickers, raws):
    """``allocation.from_raw`` as it was before ``normalize`` existed, kept as an oracle."""
    if len(tickers) != len(raws):
        raise errors.DataError("tickers and raw weights are misaligned")
    if any(not math.isfinite(r) or r < 0.0 for r in raws):
        raise errors.DataError("raw weights must be finite and non-negative")
    total = math.fsum(raws)
    if total == 0.0:
        entries = tuple((t, 0.0, 0.0) for t in tickers)
    else:
        entries = tuple((t, float(r), float(r / total)) for t, r in zip(tickers, raws))
    return al.WeightVector(entries=entries)


# Signed zeros, the least subnormal, a larger subnormal and the least normal.
EDGE_RAWS = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308]
RAW_WEIGHTS = st.sampled_from(EDGE_RAWS) | st.floats(0.0, 1e300, allow_subnormal=True)
BAD_RAWS = [math.nan, math.inf, -math.inf, -1.0, -5e-324]


@settings(max_examples=400, deadline=None)
@given(st.lists(RAW_WEIGHTS, min_size=1, max_size=10))
@example([0.0, -0.0])
@example([-0.0, 5e-324])
@example([5e-324, 1e-310, 1.0])
def test_normalize_matches_the_former_from_raw_bit_for_bit(raws):
    tickers = tuple(f"T{i}" for i in range(len(raws)))
    want = frozen_from_raw(tickers, raws)
    norms = al.normalize(raws)
    assert [n.hex() for n in norms] == [n.hex() for n in want.normalized]
    # the day loop's signal: +1 when some normalised weight is positive
    assert any(n > 0.0 for n in norms) == (not want.is_all_zero())
    assert outcome(al.from_raw, tickers, raws) == outcome(frozen_from_raw, tickers, raws)


@settings(max_examples=100, deadline=None)
@given(st.lists(RAW_WEIGHTS | st.sampled_from(BAD_RAWS), min_size=1, max_size=10))
def test_from_raw_rejects_what_the_former_from_raw_rejects(raws):
    tickers = tuple(f"T{i}" for i in range(len(raws)))
    assert outcome(al.from_raw, tickers, raws) == outcome(frozen_from_raw, tickers, raws)
    bad = any(not math.isfinite(r) or r < 0.0 for r in raws)
    if bad:
        with pytest.raises(errors.DataError, match="raw weights must be finite and non-negative"):
            al.check_raws(np.array(raws))
    else:
        al.check_raws(np.array(raws))
