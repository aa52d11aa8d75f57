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
(``L'L``, ``L'F`` and ``F'F``), formed whole: each pair's OLS coefficients,
residual covariance, Cholesky factor and impulse responses are closed-form
2x2 algebra on their entries, evaluated elementwise over blocks of at most
``PAIR_BLOCK`` pairs, whose small temporaries the heap reuses rather than
faulting them in afresh.  Every step is per pair, so no bit depends on
where a block ends.
Each pair is ordered by ticker name, so the result does not depend on the
column order of the window.  The network reads only each pair's two cross
shares, so the decomposition kernel computes those two alone; only
:func:`fevd` also asks it for the two diagonal shares.

The kernel sums the horizon in closed form.  By Cayley-Hamilton every power
of a 2x2 matrix is a combination of the traceless M = A1 - tr(A1)/2 I and
I, so each step updates two scalars per pair, and every numerator and
denominator is a fixed quadratic form in three horizon sums of them.  Where
A1 is explosive and a row of A1^s is much smaller than its M part, those
forms cancel, so a pair whose A1 has spectral radius above one is summed
by the product recursion over A1^s instead.  ``tests/oracle_fevd.py``
recomputes every share in extended precision and states the budgets that
the kernel meets.
"""

from __future__ import annotations

import functools
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

# Pairs per block of influence_matrix's per-pair algebra.  Whole-window
# temporaries of N(N-1)/2 floats go back to the OS when freed and are faulted
# in again by the next window; a block's are reused from the heap.  A warm
# 120-row window (AMD EPYC, OpenBLAS on 1 thread) took, in ms:
#
#     N    whole  2048  4096  8192  16384
#     220  3.3    3.1   2.6   2.4   3.0
#     490  18     15    12.2  12.0  13
PAIR_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class VarModel:
    """Fitted bivariate VAR(1): intercept a0 (2,), A1 (2,2), sigma_u (2,2)."""

    a0: np.ndarray
    a1: np.ndarray
    sigma_u: np.ndarray
    n_obs: int


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
    """Min-symmetrised edge costs derived from influence shares.

    ``symmetric[i, j]`` is the lesser of the two directed costs between i
    and j, where the cost of the edge i -> j is one minus the influence of
    i on j.  Diagonals hold +inf as a self-edge sentinel.
    """

    tickers: tuple[str, ...]
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


def fit_var1(pair: np.ndarray) -> VarModel:
    """Fit a bivariate VAR(1) to a (w, 2) array of aligned return series.

    The residual covariance uses divisor ``n_obs - 3`` (three regressors
    per equation).  Raises :class:`DegenerateWindow` when the regressor
    matrix is rank deficient and :class:`InsufficientHistory` when the
    window has fewer than 30 rows.
    """
    y = np.asarray(pair, dtype=float)
    if y.ndim != 2 or y.shape[1] != 2:
        raise DataError("pair window must have shape (w, 2)")
    w = y.shape[0]
    if w < 30:
        raise InsufficientHistory(f"window of {w} rows is below the minimum 30")
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
    sigma = (resid.T @ resid) / (n_obs - 3)
    sigma = (sigma + sigma.T) / 2.0
    sigma[np.diag_indices_from(sigma)] = np.maximum(np.diag(sigma), 0.0)
    return VarModel(a0=a0, a1=a1, sigma_u=sigma, n_obs=n_obs)


def _fevd_shares(a: tuple, s: tuple, horizon: int, mode: str, diagonal: bool = False) -> tuple[dict, np.ndarray]:
    """Variance shares of a batch of bivariate models, elementwise.

    ``a`` holds the (P,) arrays ``(a00, a01, a10, a11)`` of A1 and ``s``
    the (P,) arrays ``(s00, s01, s11)`` of the symmetric sigma_u.  Returns
    ``(shares, fallback)``: ``shares[j, i]`` is the (P,) array of variable
    j's variance shares due to variable i, and ``fallback`` marks the
    models whose orthogonalized request used the raw numerator.  Only the
    two cross shares ``shares[0, 1]`` and ``shares[1, 0]`` are computed,
    which is all the network reads; ``diagonal`` adds ``shares[0, 0]`` and
    ``shares[1, 1]``, which only :func:`fevd` reports.
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
    # Cayley-Hamilton in the shifted basis: with c = tr(A1)/2 and the
    # traceless M = A1 - cI, M^2 = eI, so Phi_s = A1^s = g_s M + d_s I with
    # (g_0, d_0) = (0, 1) and (g, d) -> (cg + d, cd + eg).  Every sum over
    # the horizon below is then a quadratic form in (gg, gd, dd), the sums
    # of g_s^2, g_s d_s and d_s^2 over s < horizon.
    c = (a00 + a11) / 2.0
    m = (a00 - a11) / 2.0
    e = m * m + a01 * a10
    gg, gd, dd = 0.0, 0.0, 1.0  # Phi_0 = I
    g, d = 1.0, c  # Phi_1 = A1
    for step in range(1, horizon):
        if step > 1:
            g, d = c * g + d, c * d + e * g
        gg = gg + g * g
        gd = gd + g * d
        dd = dd + d * d
    gd2 = 2.0 * gd
    # Row 0 of Phi_s is g_s (m, a01) + d_s (1, 0); row 1 is g_s (a10, -m) + d_s (0, 1).
    t0, t1 = m * s00 + a01 * s01, m * s01 + a01 * s11
    w0, w1 = a10 * s00 - m * s01, a10 * s01 - m * s11
    den = ((m * t0 + a01 * t1) * gg + t0 * gd2 + s00 * dd, (a10 * w0 - m * w1) * gg + w1 * gd2 + s11 * dd)
    u = a10 * l00 - m * l10
    num = {(0, 1): (a01 * l11) ** 2 * gg, (1, 0): u * u * gg + u * l10 * gd2 + l10 * l10 * dd}
    if diagonal:
        v = m * l00 + a01 * l10
        num[0, 0] = v * v * gg + v * l00 * gd2 + l00 * l00 * dd
        num[1, 1] = l11 * l11 * (m * m * gg - m * gd2 + dd)
    # A1's eigenvalues are c +- sqrt(e).  A pair with one outside the unit
    # circle sums its squared responses and sigma_u's quadratic form over
    # Phi_s = A1^s, formed one product at a time, so nothing cancels.
    root = np.sqrt(np.abs(e))
    grows = np.where(e >= 0.0, np.abs(c) + root, np.hypot(c, root)) > 1.0
    if grows.any():
        stepped, var = dict.fromkeys([(0, 0), (0, 1), (1, 0), (1, 1)], 0.0), [0.0, 0.0]
        rows = ((1.0, 0.0), (0.0, 1.0))  # Phi_0 = I
        for step in range(horizon):
            if step:
                rows = tuple((q0 * a00 + q1 * a10, q0 * a01 + q1 * a11) for q0, q1 in rows)
            for r, (q0, q1) in enumerate(rows):
                m0, m1 = q0 * l00 + q1 * l10, q1 * l11
                stepped[r, 0], stepped[r, 1] = stepped[r, 0] + m0 * m0, stepped[r, 1] + m1 * m1
                var[r] = var[r] + (q0 * q0 * s00 + 2.0 * q0 * q1 * s01 + q1 * q1 * s11)
        num = {key: np.where(grows, stepped[key], total) for key, total in num.items()}
        den = tuple(np.where(grows, v, closed) for v, closed in zip(var, den))
    shares = {}
    for (r, col), total in num.items():
        share = total / np.where(den[r] > 0.0, den[r], 1.0)
        # A zero denominator means the variable has no forecast error
        # variance; attribute everything to the variable itself.
        shares[r, col] = np.clip(np.where(den[r] <= 0.0, float(r == col), share), 0.0, 1.0)
    return shares, fallback


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
        (a[0, 0], a[0, 1], a[1, 0], a[1, 1]), (s[0, 0], s[0, 1], s[1, 1]), horizon, mode, diagonal=True
    )
    if fallback[0]:
        log.debug("sigma_u not positive definite; fevd fell back to %s", MODE_AS_WRITTEN)
    table = np.array([[shares[0, 0], shares[0, 1]], [shares[1, 0], shares[1, 1]]])
    return FevdResult(shares=table[:, :, 0], fallback=bool(fallback[0]))


@functools.lru_cache(maxsize=8)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of n tickers, read-only: ``(i, j)`` with i < j, then the
    flat indices ``i * n + j`` and ``j * n + i`` of each pair's two cells.
    """
    i, j = np.triu_indices(n, k=1)
    index = (i, j, i * n + j, j * n + i)
    for arr in index:
        arr.flags.writeable = False
    return index


def influence_matrix(win: ReturnMatrix, horizon: int, mode: str = MODE_ORTHOGONALIZED) -> InfluenceMatrix:
    """All-pairs influence shares over one return window.

    Each pair is ordered by ticker name, so the result does not depend on
    the column order.  Pairs with a masked member contribute zero
    influence and are not counted; pairs with constant or collinear
    series contribute zero influence in both directions and are counted
    as ``degenerate``.  Raises :class:`EstimationError` if no pair can be
    estimated.  The Grams are formed whole, then pairs are estimated in
    blocks of at most ``PAIR_BLOCK``; the block size moves no bit.
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
    usable = ~win.mask.any(axis=0)[order]
    # The reorder copies even sorted columns: the copy is Fortran-ordered,
    # and _centered_lags' column means sum pairwise along that layout, so
    # the row-major window itself would move theta in its last bits.
    y = win.returns[:, order]
    # Unmasked returns are finite, so zeroing the unusable columns leaves
    # no NaN behind.  The pair cut below already keeps those columns out of
    # theta; the zeros also keep them out if their pairs ever reach the rank
    # test.  A zeroed column's Gram row is zero, so its pairs fail the test,
    # but a column masked only on the window's last row has finite lags:
    # with its NaN left in place its pairs would pass and put NaN into theta.
    all_usable = bool(usable.all())
    if not all_usable:
        y = np.where(usable[None, :], y, 0.0)
    lc, fc, _, _ = _centered_lags(y)
    i, j, ij, ji = _pair_index(n)
    if not all_usable:
        pair_ok = usable[i] & usable[j]
        i, j, ij, ji = i[pair_ok], j[pair_ok], ij[pair_ok], ji[pair_ok]
    if i.size == 0:
        raise EstimationError("no estimable pairs in window")
    gram = lc.T @ lc
    cross = lc.T @ fc  # rows: lag variable, cols: lead variable
    lead = fc.T @ fc
    g_diag, c_diag, h_diag = np.diag(gram), np.diag(cross), np.diag(lead)
    dof = lc.shape[0] - 3
    theta = np.zeros((n, n))
    degenerate = fallbacks = 0
    for start in range(0, i.size, PAIR_BLOCK):
        bi, bj, bij, bji = (arr[start : start + PAIR_BLOCK] for arr in (i, j, ij, ji))
        g00, g01, g11 = g_diag.take(bi), gram.take(bij), g_diag.take(bj)
        lam_min, lam_max = _min_max_eig2(g00, g01, g11)
        ok = (lam_max > 0.0) & (lam_min > _RANK_RTOL * lam_max)
        failed = bi.size - int(np.count_nonzero(ok))
        degenerate += failed
        if failed:
            bi, bj, bij, bji, g00, g01, g11 = bi[ok], bj[ok], bij[ok], bji[ok], g00[ok], g01[ok], g11[ok]
        c00, c01, c10, c11 = c_diag.take(bi), cross.take(bij), cross.take(bji), c_diag.take(bj)
        # B = G^-1 C by the adjugate (the rank test keeps det > 0); A1 = B'.
        det = g00 * g11 - g01 * g01
        b00 = (g11 * c00 - g01 * c10) / det
        b01 = (g11 * c01 - g01 * c11) / det
        b10 = (g00 * c10 - g01 * c00) / det
        b11 = (g00 * c11 - g01 * c01) / det
        # Residual covariance from the SSE F'F - C'B, symmetrised, diagonal >= 0.
        s00 = np.maximum((h_diag.take(bi) - (c00 * b00 + c10 * b10)) / dof, 0.0)
        s11 = np.maximum((h_diag.take(bj) - (c01 * b01 + c11 * b11)) / dof, 0.0)
        s01 = (lead.take(bij) - (c00 * b01 + c10 * b11)) / dof + (lead.take(bji) - (c01 * b00 + c11 * b10)) / dof
        s01 = s01 / 2.0
        shares, fallback = _fevd_shares((b00, b10, b01, b11), (s00, s01, s11), horizon, mode)
        fallbacks += int(np.count_nonzero(fallback))
        bi, bj = order[bi], order[bj]
        theta.put(bj * n + bi, shares[1, 0])  # influence of i on j
        theta.put(bi * n + bj, shares[0, 1])  # influence of j on i
    if degenerate == i.size:
        raise EstimationError("every pair estimation failed in window")
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
    the lesser of the two directions, ``1 - max(theta[i, j], theta[j, i])``.
    Diagonals are +inf sentinels.  Every share must lie in [0, 1], so NaN
    and +-inf are rejected and every off-diagonal cost is finite.
    """
    theta = influence.theta
    if not np.all((theta >= 0.0) & (theta <= 1.0)):
        raise DataError("influence shares must lie in [0, 1]")
    symmetric = 1.0 - np.maximum(theta, theta.T)
    np.fill_diagonal(symmetric, np.inf)
    return CostMatrix(tickers=influence.tickers, symmetric=symmetric)


def cost_records(cost: CostMatrix) -> list[list[float]]:
    """The audit dump's upper triangle: row i's costs to every later ticker.

    Block i is ``costs[i, i+1:]`` as Python floats, whose ``repr`` is the
    dump's text; the blocks in order give the pairs in source-major order.
    """
    return [cost.symmetric[i, i + 1 :].tolist() for i in range(len(cost.tickers) - 1)]
