"""The t(h) solver and grid behind the shipped ``trunc_table.csv``.

The samplers read the paste point t(h) from the package file and never
solve for it.  The tests hold that file to this solver, bit for bit, on
both columns.  The right kernel is written out here with scipy's
``gammaln``, in the operations and order of
``pgrv.density._log_kernel_r_unit``: the package's ``math.lgamma``
differs from it in the last bit at most of the grid's nodes, and the
shipped rows carry ``gammaln``'s bits.
"""

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln

from pgrv.density import (
    TRUNC_H_MAX,
    TRUNC_H_MIN,
    _LOG_HALF_PI,
    _log_kernel_ell_unit,
    tilt_rate,
)
from pgrv.errors import ConvergenceError

# the t(h) grid: TRUNC_H_MIN + _TRUNC_STEP * i, i < _TRUNC_ROWS, up to 4,
# then _TRUNC_LOG_ROWS nodes log-spaced on (4, TRUNC_H_MAX]
_TRUNC_STEP = 0.0025
_TRUNC_ROWS = 1201
_TRUNC_LOG_ROWS = 32


def solve_trunc_point(h):
    """Paste point t(h): the root of ell(x|h) = r(x|h) at zero tilt.

    The same point minimizes the total envelope mass p + q, and it does
    not depend on the tilt (the tilt factor multiplies both kernels).
    The log-difference is strictly increasing on (0, inf) for h >= 1, so
    the root is unique; it is bracketed by [0.05, 10] over h in [1, 4]
    and, as t(h) ~ 1.03 h, by [0.05, 2h] above.
    """
    h = float(h)
    if not (TRUNC_H_MIN <= h <= TRUNC_H_MAX):
        raise ValueError("solve_trunc_point: h must lie in [1, 64]")
    lam0 = tilt_rate(0.0)

    def log_diff(x):
        log_r = (h * _LOG_HALF_PI - gammaln(h) + (h - 1.0) * np.log(x)
                 - lam0 * x)
        return _log_kernel_ell_unit(x, h) - log_r

    try:
        return brentq(log_diff, 0.05, max(10.0, 2.0 * h), xtol=1e-13,
                      rtol=8.9e-16, maxiter=200)
    except RuntimeError as exc:  # pragma: no cover - brentq is reliable here
        raise ConvergenceError(f"solve_trunc_point failed for h={h}") from exc


def build_trunc_table():
    """Solve t(h) on the table's grid: [1, 4] by 0.0025 (1,201 points),
    then 32 points log-spaced on (4, 64], 8 per doubling, each rounded to
    a multiple of 1/1024 so that it is exact in binary.

    Returns the ``(h, t)`` arrays that ship as ``trunc_table.csv``.  t(h)
    curves hardest just above h = 1 (second derivative around -39); at
    these steps linear interpolation stays within 1e-4 of the direct
    solve everywhere.
    """
    hs = TRUNC_H_MIN + _TRUNC_STEP * np.arange(_TRUNC_ROWS)
    hs[-1] = min(hs[-1], 4.0)
    log_hs = np.geomspace(4.0, TRUNC_H_MAX, _TRUNC_LOG_ROWS + 1)[1:]
    hs = np.concatenate([hs, np.round(log_hs * 1024.0) / 1024.0])
    ts = np.array([solve_trunc_point(h) for h in hs])
    return hs, ts
