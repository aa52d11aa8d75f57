"""The variance decomposition judged against the extended-precision oracle.

One property test per family of models.  Each draws a seed and decomposes a
batch of members generated from it, so a few dozen examples cover
thousands of members.  The budgets:

- members whose A1 has spectral radius at most one, fallback and
  zero-denominator members included: every share within ``STABLE_BUDGET``
  of the oracle;
- explosive members: within ``oracle_fevd.rounding_bound``;
- drawn windows: within ``STABLE_BUDGET`` when orthogonalized; as_written
  windows are limited by the Gram route's estimate of small coefficients,
  whichever kernel reads it, so they get the frozen window's own error on
  top;
- near-collinear lags, where the residual covariance limits every float64
  route: within 1.1x the frozen window's error on the same draw, plus
  ``STABLE_BUDGET``.

The worst errors measured for this kernel and the frozen one are listed in
CHANGES.md.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_fevd
import reference_fevd
import synth
from mstport import market_data as md, var_fevd as vf

STABLE_BUDGET = 4e-15
MEMBERS = 64
SEEDS = st.integers(0, 2**32 - 1)
HORIZONS = st.integers(1, 12)
MODES = st.sampled_from(vf._MODES)


def test_longdouble_is_wider_than_float64():
    assert np.finfo(np.longdouble).eps < np.finfo(float).eps


def engine_shares(a: tuple, s: tuple, horizon: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    shares, fallback = vf._fevd_shares(a, s, horizon, mode, diagonal=True)
    return np.array([[shares[0, 0], shares[0, 1]], [shares[1, 0], shares[1, 1]]]), fallback


def kernel_error(a: tuple, s: tuple, horizon: int, mode: str) -> np.ndarray:
    """|engine - oracle| per share, (2, 2, P); the fallback flags must agree."""
    got, fallback = engine_shares(a, s, horizon, mode)
    want, want_fallback = oracle_fevd.kernel_shares(a, s, horizon, mode)
    assert np.array_equal(fallback, want_fallback)
    return np.abs(got - want).astype(float)


# ---------------------------------------------------------------------------
# Member families: (a, s) as tuples of (P,) float64 arrays
# ---------------------------------------------------------------------------


def pd_sigma(rng, p: int) -> tuple:
    """Positive definite residual covariances across eight decades of scale."""
    b = rng.normal(0.0, 1.0, (p, 2, 2)) * 10.0 ** rng.uniform(-4.0, 0.0, (p, 1, 1))
    sigma = b @ b.transpose(0, 2, 1)
    return sigma[:, 0, 0], sigma[:, 0, 1], sigma[:, 1, 1]


def similar(rng, block: np.ndarray) -> tuple:
    """``Q block Q'`` for random rotations Q; entries stay as small as the block's."""
    angle = rng.uniform(0.0, np.pi, block.shape[0])
    q = np.stack([np.stack([np.cos(angle), -np.sin(angle)], -1), np.stack([np.sin(angle), np.cos(angle)], -1)], -2)
    a = q @ block @ q.transpose(0, 2, 1)
    return a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1]


def upper(l1: np.ndarray, b: np.ndarray, l2: np.ndarray) -> np.ndarray:
    return np.stack([np.stack([l1, b], -1), np.stack([np.zeros_like(l1), l2], -1)], -2)


def generic(rng, p: int) -> tuple:
    # Every absolute row sum is below one, so the spectral radius is too.
    return tuple(rng.uniform(-0.5, 0.5, (4, p))), pd_sigma(rng, p)


def near_singular_sigma(rng, p: int) -> tuple:
    s00, s11 = rng.uniform(0.5, 2.0, (2, p))
    r = rng.choice([-1.0, 1.0], p) * (1.0 - 10.0 ** rng.uniform(-12.0, -3.0, p))
    return tuple(rng.uniform(-0.5, 0.5, (4, p))), (s00, r * np.sqrt(s00 * s11), s11)


def near_scalar(rng, p: int) -> tuple:
    lam = rng.uniform(-0.99, 0.99, p)
    eps = 10.0 ** rng.uniform(-12.0, -2.0, (4, p)) * rng.uniform(-1.0, 1.0, (4, p))
    return (lam + eps[0], eps[1], eps[2], lam + eps[3]), pd_sigma(rng, p)


def unit_root(rng, p: int) -> tuple:
    block = upper(rng.choice([-1.0, 1.0], p), rng.uniform(-0.5, 0.5, p), rng.uniform(-0.9, 0.9, p))
    return similar(rng, block), pd_sigma(rng, p)


def complex_eigenvalues(rng, p: int) -> tuple:
    radius, angle, skew = rng.uniform(0.0, 1.0, p), rng.uniform(0.0, np.pi, p), rng.uniform(0.5, 2.0, p)
    x, y = radius * np.cos(angle), radius * np.sin(angle)
    block = np.stack([np.stack([x, -y * skew], -1), np.stack([y / skew, x], -1)], -2)
    return similar(rng, block), pd_sigma(rng, p)


def explosive(rng, p: int) -> tuple:
    """Half with an eigenvalue of modulus 1-2, half I + U(-1.5, 1.5)."""
    half = p // 2
    lam = rng.choice([-1.0, 1.0], half) * rng.uniform(1.0, 2.0, half)
    block = upper(lam, rng.uniform(-1.0, 1.0, half), rng.uniform(-2.0, 2.0, half))
    shifted = np.eye(2).reshape(4, 1) + rng.uniform(-1.5, 1.5, (4, p - half))
    a = tuple(np.concatenate([x, y]) for x, y in zip(similar(rng, block), shifted))
    return a, pd_sigma(rng, p)


def fallback_and_zero_denominator(rng, p: int) -> tuple:
    """Non-PD sigma_u and variables with no forecast error variance.

    A quarter each: s00 = 0; a singular sigma_u = vv' whose Cholesky
    remainder is exactly zero (dyadic v); sigma_u = 0, so both
    denominators are zero; and s00 = s01 = 0 with a01 = 0, so only
    variable 0's denominator is zero.
    """
    a = np.array(generic(rng, p)[0])
    s00, s01, s11 = (np.array(x) for x in pd_sigma(rng, p))
    kind = np.arange(p) % 4
    s00[kind == 0], s01[kind == 0] = 0.0, 0.0
    v = rng.integers(-16, 17, (2, p)) / 16.0
    v[0, v[0] == 0.0] = 0.5
    s00[kind == 1], s01[kind == 1], s11[kind == 1] = (x[kind == 1] for x in (v[0] ** 2, v[0] * v[1], v[1] ** 2))
    s00[kind == 2], s01[kind == 2], s11[kind == 2] = 0.0, 0.0, 0.0
    s00[kind == 3], s01[kind == 3], a[1, kind == 3] = 0.0, 0.0, 0.0
    return tuple(a), (s00, s01, s11)


STABLE_FAMILIES = {
    "generic": generic,
    "near_singular_sigma": near_singular_sigma,
    "near_scalar": near_scalar,
    "unit_root": unit_root,
    "complex_eigenvalues": complex_eigenvalues,
    "fallback_and_zero_denominator": fallback_and_zero_denominator,
}


@pytest.mark.parametrize("family", STABLE_FAMILIES)
@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, horizon=HORIZONS, mode=MODES)
def test_stable_members_match_the_oracle(family, seed, horizon, mode):
    a, s = STABLE_FAMILIES[family](np.random.default_rng(seed), MEMBERS)
    assert kernel_error(a, s, horizon, mode).max() <= STABLE_BUDGET


def test_fallback_family_hits_its_cases():
    a, s = fallback_and_zero_denominator(np.random.default_rng(0), 8)
    got, fallback = engine_shares(a, s, 10, vf.MODE_ORTHOGONALIZED)
    assert fallback.all()
    identity = np.broadcast_to(np.eye(2)[:, :, None], (2, 2, 2))
    np.testing.assert_array_equal(got[:, :, 2::4], identity)  # sigma_u = 0
    np.testing.assert_array_equal(got[0, :, 3::4], identity[0])  # variable 0 has no variance


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, horizon=HORIZONS, mode=MODES)
def test_explosive_members_stay_within_the_rounding_bound(seed, horizon, mode):
    a, s = explosive(np.random.default_rng(seed), MEMBERS)
    assert np.all(kernel_error(a, s, horizon, mode) <= oracle_fevd.rounding_bound(a, s, horizon, mode))


# ---------------------------------------------------------------------------
# Windows: per-pair long-double fits by residuals against the Gram route
# ---------------------------------------------------------------------------


def theta_errors(win: md.ReturnMatrix, horizon: int, mode: str) -> tuple[float, float]:
    """Worst |theta - oracle| of the engine's window and of the frozen one.

    Both must count the oracle's degenerate pairs and fallbacks.
    """
    want = oracle_fevd.influence_matrix(win, horizon, mode)
    errors = []
    for estimate in (vf.influence_matrix, reference_fevd.influence_matrix):
        got = estimate(win, horizon, mode)
        assert (got.degenerate, got.fallbacks) == (want.degenerate, want.fallbacks)
        errors.append(float(np.abs(got.theta - want.theta).max()))
    return errors[0], errors[1]


@settings(max_examples=40, deadline=None)
@given(
    seed=SEEDS,
    n=st.integers(2, 8),
    rows=st.integers(20, 120),
    hubs=st.booleans(),
    horizon=HORIZONS,
    mode=MODES,
)
def test_drawn_windows_match_the_oracle(seed, n, rows, hubs, horizon, mode):
    rng = np.random.default_rng(seed)
    data = rng.normal(0.0, 0.01, (rows + 1, n))
    if hubs:  # followers load on the first column's previous return
        data[1:, 1:] += rng.uniform(-0.9, 0.9, n - 1) * data[:-1, :1]
    names = tuple(rng.permutation(synth.ticker_names(n)))
    win = md.ReturnMatrix(synth.day_range(rows), names, data[1:], np.zeros((rows, n), dtype=bool))
    engine, frozen = theta_errors(win, horizon, mode)
    # An unclipped as_written share needs a coefficient small against its
    # pair's others, which the Gram route resolves to only about 1e-14 of
    # the share, whichever kernel reads it.
    assert engine <= STABLE_BUDGET + (frozen if mode == vf.MODE_AS_WRITTEN else 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, horizon=HORIZONS, mode=MODES)
def test_near_collinear_lags_lose_no_more_than_the_frozen_kernel(seed, horizon, mode):
    # Eight pairs x and x + delta * noise, delta from 1e-5 to 1e-3: the
    # residual covariance limits every float64 route, so the window's worst
    # share is as far off with either kernel.  The rounding-level errors of
    # as_written shares get the member budget on top.
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 0.01, (80, 8))
    twins = x + 10.0 ** rng.uniform(-5.0, -3.0, 8) * rng.normal(0.0, 0.01, x.shape)
    data = np.column_stack([x, twins])
    win = md.ReturnMatrix(synth.day_range(80), synth.ticker_names(16), data, np.zeros(data.shape, dtype=bool))
    engine, frozen = theta_errors(win, horizon, mode)
    assert engine <= 1.1 * frozen + STABLE_BUDGET
