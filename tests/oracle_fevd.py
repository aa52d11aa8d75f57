"""The variance decomposition in extended precision, the accuracy oracle of ``var_fevd``.

Everything here runs in ``np.longdouble`` and forms each impulse response
Phi_s = A1^s by the plain product recursion, the form the engine's closed
form replaces.  It means something only where ``np.longdouble`` carries
more digits than float64 (x86-64 Linux: 64 against 53 bits), so every test
that reads it first asserts ``np.finfo(np.longdouble).eps`` is below
float64's.

- :func:`kernel_shares` decomposes a batch of models, member by member, with
  the engine's Cholesky, fallback, zero-denominator and clip rules.
- :func:`influence_matrix` is the window entry: it fits every pair's VAR(1)
  by its explicit residuals, one pair at a time, and decomposes it.
- :func:`rounding_bound` bounds the float64 error of the engine's closed
  form on one batch from the absolute values of the terms that it sums.
"""

from __future__ import annotations

import numpy as np

from mstport.errors import DataError, EstimationError, InsufficientHistory
from mstport.market_data import ReturnMatrix
from mstport.var_fevd import MODE_AS_WRITTEN, MODE_ORTHOGONALIZED, InfluenceMatrix

LD = np.longdouble
_MODES = (MODE_ORTHOGONALIZED, MODE_AS_WRITTEN)
_RANK_RTOL = 1e-12
U = np.finfo(float).eps / 2  # float64's unit roundoff


def kernel_sums(a: tuple, s: tuple, horizon: int, mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(num, den, fallback)`` of float64 members, computed in long double.

    ``a`` is ``(a00, a01, a10, a11)`` and ``s`` is ``(s00, s01, s11)``, each
    a (P,) array.  ``num[j, i]`` is the (P,) long-double sum over the
    horizon of the squared responses of j to shock i, ``den[j]`` that of
    j's forecast error variance, and ``fallback`` marks the members whose
    orthogonalized request used the raw numerator.
    """
    a00, a01, a10, a11 = (np.asarray(x, dtype=LD) for x in a)
    s00, s01, s11 = (np.asarray(x, dtype=LD) for x in s)
    if mode == MODE_ORTHOGONALIZED:
        l00 = np.sqrt(np.maximum(s00, 0))
        l10 = np.where(l00 > 0, s01 / np.where(l00 > 0, l00, 1), 0)
        rem = s11 - l10 * l10
        fallback = ~((s00 > 0) & (rem > 0))
        l00 = np.where(fallback, 1, l00)
        l10 = np.where(fallback, 0, l10)
        l11 = np.where(fallback, 1, np.sqrt(np.maximum(rem, 0)))
    else:
        l00, l10, l11 = LD(1), LD(0), LD(1)
        fallback = np.zeros(np.shape(a00), dtype=bool)
    num = np.zeros((2, 2) + np.shape(a00), dtype=LD)
    den = np.zeros((2,) + np.shape(a00), dtype=LD)
    p00, p01, p10, p11 = LD(1), LD(0), LD(0), LD(1)  # Phi_0 = I
    for step in range(horizon):
        if step:  # Phi_s = Phi_{s-1} A1
            p00, p01, p10, p11 = (
                p00 * a00 + p01 * a10,
                p00 * a01 + p01 * a11,
                p10 * a00 + p11 * a10,
                p10 * a01 + p11 * a11,
            )
        for r, (q0, q1) in enumerate(((p00, p01), (p10, p11))):
            num[r, 0] += (q0 * l00 + q1 * l10) ** 2
            num[r, 1] += (q1 * l11) ** 2
            den[r] += q0 * q0 * s00 + 2 * q0 * q1 * s01 + q1 * q1 * s11
    return num, den, fallback


def kernel_shares(a: tuple, s: tuple, horizon: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """``(shares, fallback)``: ``shares[j, i]`` is the (P,) long-double array of j's shares due to i."""
    num, den, fallback = kernel_sums(a, s, horizon, mode)
    shares = num / np.where(den > 0, den, 1)[:, None]
    shares = np.where((den <= 0)[:, None], np.eye(2, dtype=LD)[:, :, None], shares)
    return np.clip(shares, 0, 1), fallback


def pair_model(y: np.ndarray) -> tuple[tuple, tuple] | None:
    """A (w, 2) pair's VAR(1) in long double, by explicit residuals.

    Returns ``((a00, a01, a10, a11), (s00, s01, s11))`` as (1,) arrays, the
    batch of one that :func:`kernel_shares` takes, or None when the centred
    lags are constant or collinear.
    """
    y = np.asarray(y, dtype=LD)
    lc = y[:-1] - y[:-1].mean(axis=0)
    fc = y[1:] - y[1:].mean(axis=0)
    g = lc.T @ lc
    tr = g[0, 0] + g[1, 1]
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[0, 1]
    disc = np.sqrt(np.maximum(tr * tr - 4 * det, 0))
    lam_min, lam_max = (tr - disc) / 2, (tr + disc) / 2
    if not (lam_max > 0 and lam_min > _RANK_RTOL * lam_max):
        return None
    b = np.array([[g[1, 1], -g[0, 1]], [-g[0, 1], g[0, 0]]], dtype=LD) @ (lc.T @ fc) / det
    resid = fc - lc @ b
    sigma = resid.T @ resid / (len(lc) - 3)
    s01 = (sigma[0, 1] + sigma[1, 0]) / 2
    a, s = (b[0, 0], b[1, 0], b[0, 1], b[1, 1]), (max(sigma[0, 0], 0), s01, max(sigma[1, 1], 0))
    return tuple(np.reshape(x, 1) for x in a), tuple(np.reshape(x, 1) for x in s)


def influence_matrix(win: ReturnMatrix, horizon: int, mode: str = MODE_ORTHOGONALIZED) -> InfluenceMatrix:
    """All-pairs influence shares, one long-double pair fit at a time.

    The rules are the engine's: pairs are ordered by ticker name, a pair
    with a masked member is left out, one with constant or collinear lags
    counts as degenerate, and both get zero influence.  ``theta`` is
    long double.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown fevd mode {mode!r}")
    n = len(win.tickers)
    if n < 2:
        raise DataError("influence matrix needs at least two tickers")
    if win.returns.shape[0] < 5:
        raise InsufficientHistory("window too short for VAR estimation")
    usable = ~win.mask.any(axis=0)
    theta = np.zeros((n, n), dtype=LD)
    pairs = degenerate = fallbacks = 0
    for i in range(n):
        for j in range(n):
            if not (usable[i] and usable[j] and win.tickers[i] < win.tickers[j]):
                continue
            pairs += 1
            model = pair_model(win.returns[:, [i, j]])
            if model is None:
                degenerate += 1
                continue
            shares, fallback = kernel_shares(*model, horizon, mode)
            theta[j, i] = shares[1, 0, 0]  # influence of i on j
            theta[i, j] = shares[0, 1, 0]
            fallbacks += int(fallback[0])
    if pairs == 0:
        raise EstimationError("no estimable pairs in window")
    if degenerate == pairs:
        raise EstimationError("every pair estimation failed in window")
    return InfluenceMatrix(tickers=win.tickers, theta=theta, degenerate=degenerate, fallbacks=fallbacks)



def rounding_bound(a: tuple, s: tuple, horizon: int, mode: str) -> np.ndarray:
    """A bound on the float64 error of each share that ``var_fevd._fevd_shares`` returns.

    The kernel's numerators N and denominators D are sums of products of
    its inputs.  Its arithmetic, run once more on the absolute values of
    those inputs with every subtraction made an addition, gives N_abs and
    D_abs.  By the standard bound for a dot product, fl(N) is within
    gamma_K N_abs of N, with gamma_K = K u / (1 - K u), u float64's unit
    roundoff, and K = 8 * horizon + 16, which counts the roundings along
    the longest chain into any product (the three horizon sums hold about
    7 * horizon of them), and the same holds for D.  Each of those errors
    is padded by K times the smallest normal float for what gradual
    underflow loses.  With N and D taken from :func:`kernel_sums`, a share
    is then within

        (err_N + (N / D) err_D) / (D - err_D) + u

    of its exact value, and clipping both to [0, 1] does not widen that.
    A member whose A1 has spectral radius above one is summed by the
    product recursion instead; each entry of its A1^s is at most the
    absolute-value closed form's, along shorter chains, so the bound holds.
    The bound is 1 (the share is undetermined in float64) where D -
    err_D is not positive, where an orthogonalized member's Cholesky
    remainder lies within its own error of zero, so that its fallback flag
    is undetermined, and where anything overflows.  ``a`` and ``s`` are
    float64 (P,) arrays; returns a (2, 2, P) float64 array.
    """
    k = 8 * horizon + 16
    gamma = k * U / (1 - k * U)
    floor = k * np.finfo(float).tiny
    a00, a01, a10, a11 = (np.abs(np.asarray(x, dtype=float)) for x in a)
    s00, s01, s11 = (np.asarray(x, dtype=float) for x in s)
    undetermined = np.zeros(np.shape(a00), dtype=bool)
    if mode == MODE_ORTHOGONALIZED:
        l00 = np.sqrt(np.maximum(s00, 0.0))
        l10 = np.where(l00 > 0.0, s01 / np.where(l00 > 0.0, l00, 1.0), 0.0)
        rem, rem_abs = s11 - l10 * l10, np.abs(s11) + l10 * l10
        fallback = ~((s00 > 0.0) & (rem > 0.0))
        undetermined = (s00 > 0.0) & (np.abs(rem) <= gamma * rem_abs + floor)
        # l11 enters only squared, and its square is off by gamma * rem_abs.
        l00 = np.where(fallback, 1.0, l00)
        l10 = np.where(fallback, 0.0, np.abs(l10))
        l11 = np.where(fallback, 1.0, np.sqrt(rem_abs))
    else:
        l00, l10, l11 = 1.0, 0.0, 1.0
    s00, s01, s11 = np.abs(s00), np.abs(s01), np.abs(s11)
    c = m = (a00 + a11) / 2.0  # |c| and |m| are both at most (|a00| + |a11|) / 2
    e = m * m + a01 * a10
    gg, gd, dd = 0.0, 0.0, 1.0
    g, d = 1.0, c
    for step in range(1, horizon):
        if step > 1:
            g, d = c * g + d, c * d + e * g
        gg, gd, dd = gg + g * g, gd + g * d, dd + d * d
    t0, t1 = m * s00 + a01 * s01, m * s01 + a01 * s11
    w0, w1 = a10 * s00 + m * s01, a10 * s01 + m * s11
    u = a10 * l00 + m * l10
    v = m * l00 + a01 * l10
    num_abs = np.array(
        [
            [v * v * gg + 2 * v * l00 * gd + l00 * l00 * dd, (a01 * l11) ** 2 * gg],
            [u * u * gg + 2 * u * l10 * gd + l10 * l10 * dd, l11 * l11 * (m * m * gg + 2 * m * gd + dd)],
        ]
    )
    den_abs = np.array(
        [(m * t0 + a01 * t1) * gg + 2 * t0 * gd + s00 * dd, (a10 * w0 + m * w1) * gg + 2 * w1 * gd + s11 * dd]
    )
    num, den, _ = kernel_sums(a, s, horizon, mode)
    num, den = num.astype(float), den.astype(float)
    err_num, err_den = gamma * num_abs + floor, (gamma * den_abs + floor)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.abs(num) / np.abs(den)[:, None]
        bound = (err_num + ratio * err_den) / (den[:, None] - err_den) + U
    settled = (den[:, None] - err_den > 0.0) & np.isfinite(bound) & ~undetermined
    return np.where(settled, np.minimum(bound, 1.0), 1.0)
