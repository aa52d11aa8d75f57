"""Four-share FEVD kernel and all-pairs window, kept as the oracle of ``var_fevd``.

This is the engine's former ``_fevd_shares`` and ``influence_matrix``: the
kernel forms every Phi_s = A1^s by the product recursion and accumulates
all four variance shares of every pair, and the window gathers pair entries
through 2-D fancy indexing of the Gram matrices.  The engine sums the
horizon in closed form, so its shares differ from these in their last
digits: its ``fallback`` flags, ``degenerate`` and ``fallbacks`` counts and
errors must equal these exactly, and its θ must lie within 1e-13 of this
window's.  Both are judged digit by digit against ``oracle_fevd``.
"""

from __future__ import annotations

import numpy as np

from mstport.errors import DataError, EstimationError, InsufficientHistory
from mstport.market_data import ReturnMatrix
from mstport.var_fevd import MODE_AS_WRITTEN, MODE_ORTHOGONALIZED, InfluenceMatrix

_MODES = (MODE_ORTHOGONALIZED, MODE_AS_WRITTEN)
_RANK_RTOL = 1e-12


def _centered_lags(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lags = y[:-1]
    leads = y[1:]
    return lags - lags.mean(axis=0), leads - leads.mean(axis=0)


def _min_max_eig2(g00: np.ndarray, g01: np.ndarray, g11: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    tr = g00 + g11
    det = g00 * g11 - g01 * g01
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return (tr - disc) / 2.0, (tr + disc) / 2.0


def fevd_shares(a: tuple, s: tuple, horizon: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """``(shares, fallback)``: ``shares[j, i]`` is the (P,) array of j's shares due to i."""
    a00, a01, a10, a11 = a
    s00, s01, s11 = s
    if mode == MODE_ORTHOGONALIZED:
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
    p00, p01, p10, p11 = 1.0, 0.0, 0.0, 1.0
    for step in range(horizon):
        if step:
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
    shares = np.where((den <= 0.0)[:, None], np.eye(2)[:, :, None], shares)
    return np.clip(shares, 0.0, 1.0), fallback


def influence_matrix(win: ReturnMatrix, horizon: int, mode: str = MODE_ORTHOGONALIZED) -> InfluenceMatrix:
    """All-pairs influence shares over one return window, pairs ordered by ticker name."""
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
    order = np.array(sorted(range(n), key=win.tickers.__getitem__), dtype=np.intp)
    usable = ~win.mask[:, order].any(axis=0)
    y = np.where(usable[None, :], win.returns[:, order], 0.0)
    y = np.nan_to_num(y, nan=0.0)
    lc, fc = _centered_lags(y)
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
    cross = lc.T @ fc
    lead = fc.T @ fc
    c_diag, h_diag = np.diag(cross), np.diag(lead)
    c00, c01, c10, c11 = c_diag[i], cross[i, j], cross[j, i], c_diag[j]
    det = g00 * g11 - g01 * g01
    b00 = (g11 * c00 - g01 * c10) / det
    b01 = (g11 * c01 - g01 * c11) / det
    b10 = (g00 * c10 - g01 * c00) / det
    b11 = (g00 * c11 - g01 * c01) / det
    dof = lc.shape[0] - 3
    s00 = np.maximum((h_diag[i] - (c00 * b00 + c10 * b10)) / dof, 0.0)
    s11 = np.maximum((h_diag[j] - (c01 * b01 + c11 * b11)) / dof, 0.0)
    s01 = ((lead[i, j] - (c00 * b01 + c10 * b11)) / dof + (lead[j, i] - (c01 * b00 + c11 * b10)) / dof) / 2.0
    shares, fallback = fevd_shares((b00, b10, b01, b11), (s00, s01, s11), horizon, mode)
    i, j = order[i], order[j]
    theta = np.zeros((n, n))
    theta[j, i] = shares[1, 0]
    theta[i, j] = shares[0, 1]
    return InfluenceMatrix(
        tickers=win.tickers, theta=theta, degenerate=degenerate, fallbacks=int(np.count_nonzero(fallback))
    )
