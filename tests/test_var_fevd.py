"""Pairwise VAR(1) estimation, variance decomposition, and cost matrices."""

import numpy as np
import pytest

import synth
from mstport import errors, market_data as md, var_fevd as vf

RNG = np.random.default_rng


def simulate_var(a1: np.ndarray, n: int, seed: int, scale: float = 0.1, burn: int = 100) -> np.ndarray:
    rng = RNG(seed)
    y = np.zeros((n + burn, 2))
    for t in range(1, n + burn):
        y[t] = a1 @ y[t - 1] + rng.normal(0.0, scale, 2)
    return y[burn:]


# ---------------------------------------------------------------------------
# VAR(1) estimation
# ---------------------------------------------------------------------------


def test_fit_matches_least_squares_oracle():
    a_true = np.array([[0.3, 0.2], [0.1, 0.4]])
    pair = simulate_var(a_true, 400, seed=8)
    model = vf.fit_var1(pair)
    # oracle: per-equation OLS on [1, y1_lag, y2_lag] via lstsq
    x = np.column_stack([np.ones(len(pair) - 1), pair[:-1]])
    targets = pair[1:]
    coef, *_ = np.linalg.lstsq(x, targets, rcond=None)
    np.testing.assert_allclose(model.a0, coef[0], atol=1e-12)
    np.testing.assert_allclose(model.a1, coef[1:].T, atol=1e-12)
    resid = targets - x @ coef
    sigma = resid.T @ resid / (len(pair) - 1 - 3)
    np.testing.assert_allclose(model.sigma_u, sigma, atol=1e-14)
    assert model.n_obs == len(pair) - 1


def test_fit_recovers_pure_lag_dependence():
    rng = RNG(4)
    y_j = rng.normal(0.0, 0.02, 200)
    y_i = np.zeros(200)
    y_i[1:] = 0.5 * y_j[:-1]
    model = vf.fit_var1(np.column_stack([y_i, y_j]))
    np.testing.assert_allclose(model.a1[0], [0.0, 0.5], atol=1e-10)
    np.testing.assert_allclose(model.a0[0], 0.0, atol=1e-12)
    assert model.sigma_u[0, 0] <= 1e-10


def test_fit_rejects_short_window():
    pair = simulate_var(np.zeros((2, 2)), 29, seed=1)
    with pytest.raises(errors.InsufficientHistory):
        vf.fit_var1(pair)
    vf.fit_var1(simulate_var(np.zeros((2, 2)), 30, seed=1))


def test_fit_rejects_degenerate_regressors():
    n = 60
    flat = np.column_stack([np.full(n, 0.01), RNG(2).normal(0.0, 0.01, n)])
    with pytest.raises(errors.DegenerateWindow):
        vf.fit_var1(flat)
    col = RNG(3).normal(0.0, 0.01, n)
    collinear = np.column_stack([col, 2.0 * col])
    with pytest.raises(errors.DegenerateWindow):
        vf.fit_var1(collinear)


def test_fit_rejects_nonfinite_and_bad_shape():
    pair = simulate_var(np.zeros((2, 2)), 50, seed=5)
    bad = pair.copy()
    bad[10, 0] = np.nan
    with pytest.raises(errors.DataError):
        vf.fit_var1(bad)
    with pytest.raises(errors.DataError):
        vf.fit_var1(pair[:, :1])


# ---------------------------------------------------------------------------
# impulse responses
# ---------------------------------------------------------------------------


def test_impulse_responses_are_matrix_powers():
    a1 = np.array([[0.3, 0.2], [0.1, 0.4]])
    model = vf.VarModel(a0=np.zeros(2), a1=a1, sigma_u=np.eye(2) * 0.01, n_obs=100)
    irf = vf.impulse_responses(model, 6)
    assert irf.phis.shape == (6, 2, 2)
    np.testing.assert_array_equal(irf.phis[0], np.eye(2))
    np.testing.assert_array_equal(irf.phis[1], a1)
    np.testing.assert_allclose(irf.phis[2], [[0.11, 0.14], [0.07, 0.18]], atol=1e-15)
    for s in range(6):
        np.testing.assert_allclose(irf.phis[s], np.linalg.matrix_power(a1, s), atol=1e-14)


# ---------------------------------------------------------------------------
# variance decomposition
# ---------------------------------------------------------------------------


def fevd_oracle(a1: np.ndarray, sigma: np.ndarray, horizon: int, orthogonalized: bool) -> np.ndarray:
    """Textbook two-loop decomposition used to cross-check the vectorised path."""
    phis = [np.linalg.matrix_power(a1, s) for s in range(horizon)]
    chol = np.linalg.cholesky(sigma) if orthogonalized else None
    shares = np.zeros((2, 2))
    for j in range(2):
        den = sum(float(ph[j] @ sigma @ ph[j]) for ph in phis)
        for i in range(2):
            if orthogonalized:
                num = sum(float((ph @ chol)[j, i]) ** 2 for ph in phis)
            else:
                num = sum(float(ph[j, i]) ** 2 for ph in phis)
            shares[j, i] = min(max(num / den, 0.0), 1.0)
    return shares


FROZEN_A1 = np.array([[0.3, 0.2], [0.1, 0.4]])
FROZEN_SIGMA = np.array([[0.010, 0.003], [0.003, 0.008]])
FROZEN_ORTH_H2 = np.array(
    [
        [0.9754749568221073, 0.02452504317789292],
        [0.14386694386694387, 0.8561330561330561],
    ]
)


def test_orthogonalized_two_step_matches_hand_oracle():
    model = vf.VarModel(a0=np.zeros(2), a1=FROZEN_A1, sigma_u=FROZEN_SIGMA, n_obs=500)
    result = vf.fevd(model, 2, vf.MODE_ORTHOGONALIZED)
    np.testing.assert_allclose(result.shares, FROZEN_ORTH_H2, atol=1e-15)
    np.testing.assert_allclose(
        result.shares, fevd_oracle(FROZEN_A1, FROZEN_SIGMA, 2, True), atol=1e-13
    )
    assert not result.fallback


def test_as_written_two_step_matches_hand_oracle():
    sigma = np.array([[2.0, 0.3], [0.3, 1.5]])
    model = vf.VarModel(a0=np.zeros(2), a1=FROZEN_A1, sigma_u=sigma, n_obs=500)
    result = vf.fevd(model, 2, vf.MODE_AS_WRITTEN)
    oracle = fevd_oracle(FROZEN_A1, sigma, 2, False)
    np.testing.assert_allclose(result.shares, oracle, atol=1e-13)
    # spot values: numerator 1 + a1[j,i]^2, denominator from the two-step sums
    np.testing.assert_allclose(result.shares[0, 0], 1.09 / 2.276, atol=1e-12)
    np.testing.assert_allclose(result.shares[1, 1], 1.16 / 1.784, atol=1e-12)


def test_fevd_random_models_match_oracle_and_sum_to_one():
    rng = RNG(12)
    for _ in range(200):
        a1 = rng.uniform(-0.6, 0.6, (2, 2))
        if np.max(np.abs(np.linalg.eigvals(a1))) >= 0.95:
            continue
        b = rng.normal(0.0, 0.1, (2, 2))
        sigma = b @ b.T + 1e-4 * np.eye(2)
        model = vf.VarModel(a0=np.zeros(2), a1=a1, sigma_u=sigma, n_obs=200)
        h = int(rng.integers(1, 12))
        orth = vf.fevd(model, h, vf.MODE_ORTHOGONALIZED)
        np.testing.assert_allclose(orth.shares, fevd_oracle(a1, sigma, h, True), atol=1e-12)
        np.testing.assert_allclose(orth.shares.sum(axis=1), [1.0, 1.0], atol=1e-10)
        asw = vf.fevd(model, h, vf.MODE_AS_WRITTEN)
        np.testing.assert_allclose(asw.shares, fevd_oracle(a1, sigma, h, False), atol=1e-12)
        assert np.all(asw.shares >= 0.0) and np.all(asw.shares <= 1.0)


def test_fevd_static_diagonal_model_keeps_variance_at_home():
    model = vf.VarModel(
        a0=np.zeros(2), a1=np.zeros((2, 2)), sigma_u=np.diag([0.04, 0.09]), n_obs=100
    )
    for mode in (vf.MODE_ORTHOGONALIZED, vf.MODE_AS_WRITTEN):
        shares = vf.fevd(model, 10, mode).shares
        np.testing.assert_allclose(shares, np.eye(2), atol=1e-14)


def test_fevd_non_positive_definite_sigma_falls_back():
    sigma = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite: no Cholesky factor
    model = vf.VarModel(a0=np.zeros(2), a1=np.zeros((2, 2)), sigma_u=sigma, n_obs=100)
    orth = vf.fevd(model, 5, vf.MODE_ORTHOGONALIZED)
    asw = vf.fevd(model, 5, vf.MODE_AS_WRITTEN)
    assert orth.fallback
    assert not asw.fallback
    np.testing.assert_array_equal(orth.shares, asw.shares)
    np.testing.assert_allclose(orth.shares, np.eye(2), atol=1e-14)


def test_fevd_rejects_bad_horizon():
    model = vf.VarModel(a0=np.zeros(2), a1=np.zeros((2, 2)), sigma_u=np.eye(2), n_obs=100)
    with pytest.raises(ValueError):
        vf.fevd(model, 0)
    with pytest.raises(ValueError):
        vf.fevd(model, 3, "sideways")


# ---------------------------------------------------------------------------
# all-pairs influence matrix
# ---------------------------------------------------------------------------


def test_influence_matrix_matches_per_pair_route():
    rets = synth.random_returns(5, 60, seed=21)
    for mode in (vf.MODE_ORTHOGONALIZED, vf.MODE_AS_WRITTEN):
        influence = vf.influence_matrix(rets, horizon=10, mode=mode)
        assert influence.tickers == rets.tickers
        n = len(rets.tickers)
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                model = vf.fit_var1(rets.returns[:, [i, j]])
                shares = vf.fevd(model, 10, mode).shares
                expected[j, i] = shares[1, 0]  # influence of i on j's variance
                expected[i, j] = shares[0, 1]
        np.testing.assert_allclose(influence.theta, expected, atol=1e-10)
        assert np.all(np.diag(influence.theta) == 0.0)


def test_influence_matrix_excludes_masked_columns():
    rets = synth.random_returns(6, 60, seed=22)
    mask = rets.mask.copy()
    mask[10, 2] = True
    masked = md.ReturnMatrix(rets.dates, rets.tickers, rets.returns, mask)
    influence = vf.influence_matrix(masked, horizon=10)
    assert np.all(influence.theta[2, :] == 0.0)
    assert np.all(influence.theta[:, 2] == 0.0)
    other = vf.influence_matrix(
        md.ReturnMatrix(
            rets.dates,
            tuple(t for k, t in enumerate(rets.tickers) if k != 2),
            np.delete(rets.returns, 2, axis=1),
            np.delete(rets.mask, 2, axis=1),
        ),
        horizon=10,
    )
    keep = [k for k in range(6) if k != 2]
    np.testing.assert_allclose(influence.theta[np.ix_(keep, keep)], other.theta, atol=1e-12)


def test_influence_matrix_counts_degenerate_pairs():
    rets = synth.random_returns(5, 60, seed=25)
    data = rets.returns.copy()
    data[:, 2] = 0.004  # flat column: its lag Gram row is zero
    flat = md.ReturnMatrix(rets.dates, rets.tickers, data, rets.mask)
    influence = vf.influence_matrix(flat, horizon=10)
    assert influence.degenerate == 4
    assert influence.fallbacks == 0
    assert np.all(influence.theta[2, :] == 0.0) and np.all(influence.theta[:, 2] == 0.0)
    # a masked column is excluded, not counted as degenerate
    mask = rets.mask.copy()
    mask[7, 2] = True
    masked = vf.influence_matrix(md.ReturnMatrix(rets.dates, rets.tickers, rets.returns, mask), horizon=10)
    assert masked.degenerate == 0
    assert vf.influence_matrix(rets, horizon=10).degenerate == 0


def test_influence_matrix_counts_fevd_fallbacks():
    # Dyadic returns over 64 lag rows keep every sum exact, and B is A's
    # previous return, so B's equation fits exactly: sigma_u is not PD.
    rng = RNG(26)
    a, c = rng.integers(-64, 65, (2, 65)) / 128.0
    b = np.concatenate([[0.25], a[:-1]])
    data = np.column_stack([a, b, c])
    rets = md.ReturnMatrix(synth.day_range(65), ("A", "B", "C"), data, np.zeros(data.shape, bool))
    orth = vf.influence_matrix(rets, horizon=10)
    raw = vf.influence_matrix(rets, horizon=10, mode=vf.MODE_AS_WRITTEN)
    assert (orth.fallbacks, raw.fallbacks) == (1, 0)
    assert orth.degenerate == 0
    assert orth.theta[1, 0] == raw.theta[1, 0] and orth.theta[0, 1] == raw.theta[0, 1]


def permuted(rets: md.ReturnMatrix, perm: np.ndarray) -> md.ReturnMatrix:
    return md.ReturnMatrix(
        rets.dates, tuple(rets.tickers[k] for k in perm), rets.returns[:, perm], rets.mask[:, perm]
    )


def test_influence_matrix_is_permutation_equivariant():
    panel, _ = synth.hub_returns(seed=31, n_hubs=3, followers_per=3, n_rows=120)
    n = len(panel.tickers)
    for mode in (vf.MODE_ORTHOGONALIZED, vf.MODE_AS_WRITTEN):
        base = vf.influence_matrix(panel, horizon=10, mode=mode)
        for seed in range(4):
            perm = RNG(seed).permutation(n)
            shuffled = vf.influence_matrix(permuted(panel, perm), horizon=10, mode=mode)
            assert shuffled.tickers == tuple(panel.tickers[k] for k in perm)
            np.testing.assert_array_equal(shuffled.theta, base.theta[np.ix_(perm, perm)])


def test_orthogonalized_influence_ignores_positive_rescaling():
    panel, _ = synth.hub_returns(seed=32, n_hubs=3, followers_per=3, n_rows=120)
    scale = RNG(33).uniform(0.05, 20.0, len(panel.tickers))
    rescaled = md.ReturnMatrix(panel.dates, panel.tickers, panel.returns * scale, panel.mask)
    base = vf.influence_matrix(panel, horizon=10)
    other = vf.influence_matrix(rescaled, horizon=10)
    np.testing.assert_allclose(other.theta, base.theta, rtol=0.0, atol=1e-12)


def per_pair_theta(rets: md.ReturnMatrix, pair_shares) -> np.ndarray:
    """Influence matrix assembled pair by pair from ``pair_shares(pair_window)``."""
    n = len(rets.tickers)
    theta = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            shares = pair_shares(rets.returns[:, [i, j]])
            theta[j, i] = shares[1, 0]
            theta[i, j] = shares[0, 1]
    return theta


@pytest.mark.parametrize("eps", [1e-4, 1e-5])
def test_influence_matrix_near_perfect_fit_matches_per_pair_route(eps):
    # lead_t = lag_{t-1} + eps * noise: the SSE F'F - C'B cancels to ~eps^2
    rng = RNG(41)
    n_rows = 120
    x = rng.normal(0.0, 0.01, (n_rows + 1, 2))
    follow = x[:-1] + eps * 0.01 * rng.normal(size=(n_rows, 2))
    data = np.column_stack([x[1:], follow, rng.normal(0.0, 0.01, n_rows)])
    rets = md.ReturnMatrix(synth.day_range(n_rows), synth.ticker_names(5), data, np.zeros(data.shape, bool))
    for mode in (vf.MODE_ORTHOGONALIZED, vf.MODE_AS_WRITTEN):
        influence = vf.influence_matrix(rets, horizon=10, mode=mode)
        expected = per_pair_theta(rets, lambda pair: vf.fevd(vf.fit_var1(pair), 10, mode).shares)
        np.testing.assert_allclose(influence.theta, expected, atol=1e-10)


def longdouble_pair_shares(pair: np.ndarray, horizon: int, orthogonalized: bool) -> np.ndarray:
    """Per-pair VAR(1) and FEVD in extended precision, residuals formed explicitly."""
    y = np.asarray(pair, dtype=np.longdouble)
    lc = y[:-1] - y[:-1].mean(axis=0)
    fc = y[1:] - y[1:].mean(axis=0)
    g = lc.T @ lc
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    b = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) @ (lc.T @ fc) / det
    resid = fc - lc @ b
    sigma = resid.T @ resid / (len(lc) - 3)
    a1 = b.T
    l00 = np.sqrt(sigma[0, 0])
    l10 = sigma[1, 0] / l00
    chol = np.array([[l00, 0], [l10, np.sqrt(sigma[1, 1] - l10 * l10)]], dtype=np.longdouble)
    phi = np.eye(2, dtype=np.longdouble)
    num = np.zeros((2, 2), dtype=np.longdouble)
    den = np.zeros(2, dtype=np.longdouble)
    for step in range(horizon):
        if step:
            phi = phi @ a1
        num += (phi @ chol) ** 2 if orthogonalized else phi**2
        den += np.einsum("rc,ck,rk->r", phi, sigma, phi)
    return np.clip((num / den[:, None]).astype(float), 0.0, 1.0)


@pytest.mark.parametrize("delta", [3e-5, 1e-5, 6e-6])
def test_influence_matrix_near_collinear_lags_match_extended_precision(delta):
    # Two series that track each other to within delta until they part on
    # the window's last day: the lags are near collinear, the leads are not.
    rng = RNG(42)
    n_rows = 120
    x = rng.normal(0.0, 0.01, n_rows)
    twin = x + delta * rng.normal(0.0, 0.01, n_rows)
    twin[-1] = rng.normal(0.0, 0.01)
    data = np.column_stack([x, twin, rng.normal(0.0, 0.01, n_rows)])
    rets = md.ReturnMatrix(synth.day_range(n_rows), synth.ticker_names(3), data, np.zeros(data.shape, bool))
    lags = data[:-1, :2] - data[:-1, :2].mean(axis=0)
    eig = np.linalg.eigvalsh(lags.T @ lags)
    assert 1e-11 <= eig[0] / eig[1] <= 1e-9  # just above the rank threshold
    for mode in (vf.MODE_ORTHOGONALIZED, vf.MODE_AS_WRITTEN):
        influence = vf.influence_matrix(rets, horizon=10, mode=mode)
        assert influence.degenerate == 0
        orth = mode == vf.MODE_ORTHOGONALIZED
        expected = per_pair_theta(rets, lambda pair: longdouble_pair_shares(pair, 10, orth))
        np.testing.assert_allclose(influence.theta, expected, atol=1e-7)


def test_influence_matrix_failure_modes():
    rets = synth.random_returns(1, 60, seed=24)
    with pytest.raises(errors.DataError):
        vf.influence_matrix(rets, horizon=10)
    n = 40
    flat = md.ReturnMatrix(
        synth.day_range(n),
        ("A", "B", "C"),
        np.zeros((n, 3)),
        np.zeros((n, 3), dtype=bool),
    )
    with pytest.raises(errors.EstimationError):
        vf.influence_matrix(flat, horizon=10)


# ---------------------------------------------------------------------------
# cost matrices
# ---------------------------------------------------------------------------


def test_cost_transform_directed_and_symmetric():
    theta = np.array([[0.0, 0.6], [0.4, 0.0]])
    influence = vf.InfluenceMatrix(tickers=("A", "B"), theta=theta)
    cost = vf.to_cost(influence)
    # directed edge cost from X to Y is one minus X's influence on Y
    assert cost.directed[0, 1] == pytest.approx(1.0 - 0.4)
    assert cost.directed[1, 0] == pytest.approx(1.0 - 0.6)
    assert cost.symmetric[0, 1] == pytest.approx(0.4)
    assert cost.symmetric[0, 1] == cost.symmetric[1, 0]
    assert np.isinf(cost.directed[0, 0]) and np.isinf(cost.symmetric[1, 1])


def test_cost_rejects_shares_outside_unit_interval():
    bad = vf.InfluenceMatrix(tickers=("A", "B"), theta=np.array([[0.0, 1.2], [0.4, 0.0]]))
    with pytest.raises(errors.DataError):
        vf.to_cost(bad)


def test_cost_records_upper_triangle_rows():
    theta = np.array([[0.0, 0.2, 0.1], [0.3, 0.0, 0.5], [0.4, 0.6, 0.0]])
    cost = vf.to_cost(vf.InfluenceMatrix(tickers=("A", "B", "C"), theta=theta))
    records = vf.cost_records(cost, synth.day_range(1)[0])
    assert [(r[1], r[2]) for r in records] == [("A", "B"), ("A", "C"), ("B", "C")]
    assert all(r[0] == "2021-01-04" for r in records)
    np.testing.assert_allclose(
        [r[3] for r in records],
        [cost.symmetric[0, 1], cost.symmetric[0, 2], cost.symmetric[1, 2]],
    )


def test_cost_records_equal_the_per_pair_loop():
    rng = np.random.default_rng(12)
    names = synth.ticker_names(17)
    theta = rng.uniform(0.0, 1.0, (17, 17))
    np.fill_diagonal(theta, 0.0)
    cost = vf.to_cost(vf.InfluenceMatrix(tickers=names, theta=theta))
    want = [
        ("2021-01-04", names[i], names[j], float(cost.symmetric[i, j]))
        for i in range(17)
        for j in range(i + 1, 17)
    ]
    got = vf.cost_records(cost, synth.day_range(1)[0])
    assert got == want
    assert all(type(row[3]) is float for row in got)  # repr gives the CSV text
