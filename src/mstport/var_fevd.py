"""Bivariate VAR(1) estimation and forecast error variance decomposition.

For every ordered stock pair the engine fits

    y_t = a0 + A1 y_{t-1} + u_t,        u_t ~ (0, sigma_u)

by per-equation ordinary least squares on the regressors
``[1, y_{i,t-1}, y_{j,t-1}]`` and decomposes the h-step forecast error
variance of each variable into shares attributable to the pair's two
shocks.  The share of variable j's uncertainty explained by variable i is
read as "influence of i on j" and mapped to an edge cost ``1 - share``.

Two decomposition modes are supported.  ``orthogonalized`` rotates shocks
through the lower-triangular Cholesky factor P of sigma_u, so each
variable's shares sum to one.  ``as_written`` uses the raw impulse
responses with no factor P in the numerator; its shares need not sum to
one and are clamped to [0, 1].  When sigma_u is not positive definite the
orthogonalized mode falls back to ``as_written`` and flags the result.

``influence_matrix`` evaluates all N(N-1)/2 pairs of a return window from
three N x N cross-product matrices of the centred lags L and leads F
(``L'L``, ``L'F`` and ``F'F``): each pair's OLS coefficients, residual
covariance, Cholesky factor and impulse responses are closed-form 2x2
algebra on their entries, evaluated elementwise over all pairs at once.
Each pair is ordered by ticker name, so the result does not depend on the
column order of the window.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateWindow, EstimationError, InsufficientHistory
from .market_data import ReturnMatrix

log = logging.getLogger(__name__)

MODE_ORTHOGONALIZED = "orthogonalized"
MODE_AS_WRITTEN = "as_written"
_MODES = (MODE_ORTHOGONALIZED, MODE_AS_WRITTEN)

# Relative eigenvalue threshold below which the centred lag Gram matrix is
# treated as rank deficient.
_RANK_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class VarModel:
    """Fitted bivariate VAR(1): intercept a0 (2,), A1 (2,2), sigma_u (2,2)."""

    a0: np.ndarray
    a1: np.ndarray
    sigma_u: np.ndarray
    n_obs: int


@dataclass(frozen=True, eq=False)
class ImpulseResponseSet:
    """Impulse response matrices Phi_0 .. Phi_{h-1} with Phi_s = A1^s."""

    phis: np.ndarray  # (h, 2, 2)

    @property
    def horizon(self) -> int:
        return self.phis.shape[0]


@dataclass(frozen=True, eq=False)
class FevdResult:
    """2x2 variance shares; rows respond, columns source.

    ``fallback`` is True when an orthogonalized request degraded to the
    raw-numerator mode because sigma_u was not positive definite.
    """

    shares: np.ndarray
    fallback: bool = False


@dataclass(frozen=True, eq=False)
class InfluenceMatrix:
    """N x N influence shares; ``theta[j, i]`` = share of j's variance from i.

    ``degenerate`` counts the pairs set to zero influence because their
    lags were constant or collinear; ``fallbacks`` counts the pairs whose
    orthogonalized decomposition fell back to the raw numerator.
    """

    tickers: tuple[str, ...]
    theta: np.ndarray
    degenerate: int = 0
    fallbacks: int = 0


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Directed and min-symmetrised edge costs derived from influence shares.

    ``directed[i, j]`` is the cost of the edge i -> j, i.e. one minus the
    influence of i on j.  Diagonals hold +inf as a self-edge sentinel.
    """

    tickers: tuple[str, ...]
    directed: np.ndarray
    symmetric: np.ndarray


def _centered_lags(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    lags = y[:-1]
    leads = y[1:]
    lbar = lags.mean(axis=0)
    fbar = leads.mean(axis=0)
    return lags - lbar, leads - fbar, lbar, fbar


def _min_max_eig2(g00: np.ndarray, g01: np.ndarray, g11: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue range of symmetric 2x2 matrices, closed form."""
    tr = g00 + g11
    det = g00 * g11 - g01 * g01
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return (tr - disc) / 2.0, (tr + disc) / 2.0


def fit_var1(pair: np.ndarray, min_window: int = 30) -> VarModel:
    """Fit a bivariate VAR(1) to a (w, 2) array of aligned return series.

    The residual covariance uses divisor ``n_obs - 3`` (three regressors
    per equation).  Raises :class:`DegenerateWindow` when the regressor
    matrix is rank deficient and :class:`InsufficientHistory` when the
    window is too short.
    """
    y = np.asarray(pair, dtype=float)
    if y.ndim != 2 or y.shape[1] != 2:
        raise DataError("pair window must have shape (w, 2)")
    w = y.shape[0]
    if w < max(min_window, 5):
        raise InsufficientHistory(f"window of {w} rows is below the minimum {max(min_window, 5)}")
    if not np.all(np.isfinite(y)):
        raise DataError("pair window contains masked or non-finite cells")
    lc, fc, lbar, fbar = _centered_lags(y)
    g = lc.T @ lc
    lam_min, lam_max = _min_max_eig2(g[0, 0], g[0, 1], g[1, 1])
    if lam_max <= 0.0 or lam_min <= _RANK_RTOL * lam_max:
        raise DegenerateWindow("constant or collinear series in pair window")
    b = np.linalg.solve(g, lc.T @ fc)  # rows: lag variable, cols: equation
    a1 = b.T
    a0 = fbar - a1 @ lbar
    resid = fc - lc @ b
    n_obs = w - 1
    if n_obs <= 3:
        raise InsufficientHistory("need more than four rows for the residual covariance")
    sigma = (resid.T @ resid) / (n_obs - 3)
    sigma = (sigma + sigma.T) / 2.0
    sigma[np.diag_indices_from(sigma)] = np.maximum(np.diag(sigma), 0.0)
    return VarModel(a0=a0, a1=a1, sigma_u=sigma, n_obs=n_obs)


def impulse_responses(model: VarModel, horizon: int) -> ImpulseResponseSet:
    """Powers of the companion matrix: Phi_s = A1^s for s = 0 .. horizon-1."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    phis = np.empty((horizon, 2, 2))
    phis[0] = np.eye(2)
    for s in range(1, horizon):
        phis[s] = phis[s - 1] @ model.a1
    return ImpulseResponseSet(phis=phis)


def _fevd_shares(a: tuple, s: tuple, horizon: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Variance shares of a batch of bivariate models, elementwise.

    ``a`` holds the (P,) arrays ``(a00, a01, a10, a11)`` of A1 and ``s``
    the (P,) arrays ``(s00, s01, s11)`` of the symmetric sigma_u.  Returns
    ``(shares, fallback)``: ``shares[j, i]`` is the (P,) array of variable
    j's variance shares due to variable i, and ``fallback`` marks the
    models whose orthogonalized request used the raw numerator.
    """
    a00, a01, a10, a11 = a
    s00, s01, s11 = s
    if mode == MODE_ORTHOGONALIZED:
        # Closed-form lower Cholesky factor; a non-PD member gets the
        # identity, which turns its numerator into the raw one exactly.
        l00 = np.sqrt(np.maximum(s00, 0.0))
        l10 = np.where(l00 > 0.0, s01 / np.where(l00 > 0.0, l00, 1.0), 0.0)
        rem = s11 - l10 * l10
        fallback = ~((s00 > 0.0) & (rem > 0.0))
        l00 = np.where(fallback, 1.0, l00)
        l10 = np.where(fallback, 0.0, l10)
        l11 = np.where(fallback, 1.0, np.sqrt(np.maximum(rem, 0.0)))
    else:
        l00, l10, l11 = 1.0, 0.0, 1.0
        fallback = np.zeros(np.shape(a00), dtype=bool)
    num = np.zeros((2, 2) + np.shape(a00))
    den = np.zeros((2,) + np.shape(a00))
    p00, p01, p10, p11 = 1.0, 0.0, 0.0, 1.0  # Phi_0 = I
    for step in range(horizon):
        if step:  # Phi_s = Phi_{s-1} A1
            p00, p01, p10, p11 = (
                p00 * a00 + p01 * a10,
                p00 * a01 + p01 * a11,
                p10 * a00 + p11 * a10,
                p10 * a01 + p11 * a11,
            )
        for r, (q0, q1) in enumerate(((p00, p01), (p10, p11))):
            m0 = q0 * l00 + q1 * l10
            m1 = q1 * l11
            num[r, 0] += m0 * m0
            num[r, 1] += m1 * m1
            den[r] += q0 * q0 * s00 + 2.0 * q0 * q1 * s01 + q1 * q1 * s11
    shares = num / np.where(den > 0.0, den, 1.0)[:, None]
    # A zero denominator means the variable has no forecast error variance;
    # attribute everything to the variable itself.
    shares = np.where((den <= 0.0)[:, None], np.eye(2)[:, :, None], shares)
    return np.clip(shares, 0.0, 1.0), fallback


def fevd(model: VarModel, horizon: int, mode: str = MODE_ORTHOGONALIZED) -> FevdResult:
    """Forecast error variance shares at the given horizon.

    ``shares[j, i]`` is the fraction of variable j's h-step forecast error
    variance attributed to variable i.  In orthogonalized mode each row
    sums to one; in ``as_written`` mode the raw numerator is used and
    shares are clamped to [0, 1].
    """
    if mode not in _MODES:
        raise ValueError(f"unknown fevd mode {mode!r}")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    a = model.a1[:, :, None]
    s = model.sigma_u[:, :, None]
    shares, fallback = _fevd_shares(
        (a[0, 0], a[0, 1], a[1, 0], a[1, 1]), (s[0, 0], s[0, 1], s[1, 1]), horizon, mode
    )
    if fallback[0]:
        log.debug("sigma_u not positive definite; fevd fell back to %s", MODE_AS_WRITTEN)
    return FevdResult(shares=shares[:, :, 0], fallback=bool(fallback[0]))


def influence_matrix(win: ReturnMatrix, horizon: int, mode: str = MODE_ORTHOGONALIZED) -> InfluenceMatrix:
    """All-pairs influence shares over one return window.

    Each pair is ordered by ticker name, so the result does not depend on
    the column order.  Pairs with a masked member contribute zero
    influence and are not counted; pairs with constant or collinear
    series contribute zero influence in both directions and are counted
    as ``degenerate``.  Raises :class:`EstimationError` if no pair can be
    estimated.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown fevd mode {mode!r}")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    n = len(win.tickers)
    if n < 2:
        raise DataError("influence matrix needs at least two tickers")
    w = win.returns.shape[0]
    if w < 5:
        raise InsufficientHistory("window too short for VAR estimation")
    # Estimate on the columns sorted by ticker, then scatter back, so the
    # result does not depend on the column order.
    order = np.array(sorted(range(n), key=win.tickers.__getitem__), dtype=np.intp)
    usable = ~win.mask[:, order].any(axis=0)
    y = np.where(usable[None, :], win.returns[:, order], 0.0)
    y = np.nan_to_num(y, nan=0.0)
    lc, fc, _, _ = _centered_lags(y)
    i, j = np.triu_indices(n, k=1)
    pair_ok = usable[i] & usable[j]
    i, j = i[pair_ok], j[pair_ok]
    if i.size == 0:
        raise EstimationError("no estimable pairs in window")
    gram = lc.T @ lc
    g_diag = np.diag(gram)
    g00, g01, g11 = g_diag[i], gram[i, j], g_diag[j]
    lam_min, lam_max = _min_max_eig2(g00, g01, g11)
    ok = (lam_max > 0.0) & (lam_min > _RANK_RTOL * lam_max)
    degenerate = int(np.count_nonzero(~ok))
    if degenerate == i.size:
        raise EstimationError("every pair estimation failed in window")
    i, j, g00, g01, g11 = i[ok], j[ok], g00[ok], g01[ok], g11[ok]
    cross = lc.T @ fc  # rows: lag variable, cols: lead variable
    lead = fc.T @ fc
    c_diag, h_diag = np.diag(cross), np.diag(lead)
    c00, c01, c10, c11 = c_diag[i], cross[i, j], cross[j, i], c_diag[j]
    # B = G^-1 C by the adjugate (the rank test keeps det > 0); A1 = B'.
    det = g00 * g11 - g01 * g01
    b00 = (g11 * c00 - g01 * c10) / det
    b01 = (g11 * c01 - g01 * c11) / det
    b10 = (g00 * c10 - g01 * c00) / det
    b11 = (g00 * c11 - g01 * c01) / det
    # Residual covariance from the SSE F'F - C'B, symmetrised, diagonal >= 0.
    dof = lc.shape[0] - 3
    s00 = np.maximum((h_diag[i] - (c00 * b00 + c10 * b10)) / dof, 0.0)
    s11 = np.maximum((h_diag[j] - (c01 * b01 + c11 * b11)) / dof, 0.0)
    s01 = ((lead[i, j] - (c00 * b01 + c10 * b11)) / dof + (lead[j, i] - (c01 * b00 + c11 * b10)) / dof) / 2.0
    shares, fallback = _fevd_shares((b00, b10, b01, b11), (s00, s01, s11), horizon, mode)
    i, j = order[i], order[j]
    theta = np.zeros((n, n))
    theta[j, i] = shares[1, 0]  # influence of i on j
    theta[i, j] = shares[0, 1]  # influence of j on i
    fallbacks = int(np.count_nonzero(fallback))
    if degenerate or fallbacks:
        log.debug(
            "influence_matrix: %d degenerate pairs set to zero influence, %d fevd fallbacks to %s",
            degenerate,
            fallbacks,
            MODE_AS_WRITTEN,
        )
    return InfluenceMatrix(tickers=win.tickers, theta=theta, degenerate=degenerate, fallbacks=fallbacks)


def to_cost(influence: InfluenceMatrix) -> CostMatrix:
    """Map influence shares to edge costs.

    Directed cost of i -> j is ``1 - theta[j, i]``; the symmetric cost is
    the minimum of the two directions.  Diagonals are +inf sentinels.
    """
    theta = influence.theta
    if np.any((theta < 0.0) | (theta > 1.0)):
        raise DataError("influence shares must lie in [0, 1]")
    directed = 1.0 - theta.T
    np.fill_diagonal(directed, np.inf)
    symmetric = np.minimum(directed, directed.T)
    np.fill_diagonal(symmetric, np.inf)
    return CostMatrix(tickers=influence.tickers, directed=directed, symmetric=symmetric)


def cost_records(cost: CostMatrix, window_end) -> list[tuple[str, str, str, float]]:
    """Rows ``(window_end, ticker_i, ticker_j, cost)`` for the audit dump."""
    stamp = window_end.isoformat()
    i, j = np.triu_indices(len(cost.tickers), k=1)
    names = cost.tickers
    return [
        (stamp, names[a], names[b], c)
        for a, b, c in zip(i.tolist(), j.tolist(), cost.symmetric[i, j].tolist())
    ]
