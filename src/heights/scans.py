"""Dequantization and Hilbert-Samuel scans of the P^1 / Fubini-Study
family, with the closed-form arithmetic degrees they read.

The module needs no numpy: a `scan` process loads only the exact core
and this file.  The tail fit is a Householder least-squares solve on
four columns kept as lists.  A model without a family id, or with one
outside `intersection.FAMILY_GEOMETRY`, is refused by the package's one
family check, `intersection._check_family`.
"""

from __future__ import annotations

import math
import operator

from ._frozen import FrozenValue
from .errors import NumericError, ValidationError, _check_limit
from .intersection import _check_family

VOL_OMEGA = "omega"
VOL_M_OMEGA = "m-omega"

# largest m_max of a scan or deg_hat table, which keeps a Python row per
# m (`scan --m-max 100000` takes 0.2 s and 56 MB of memory on 2 CPUs)
MAX_SCAN_M = 100_000
# smallest m_max of a dequantization scan: its tail m_max//2..m_max then
# has the four rows the four-column fit needs, and no m = 1, where both
# log columns vanish
MIN_FIT_M = 5


def _check_m(name: str, m: int, cap: int) -> None:
    """1 <= m <= cap, checked before anything of size m is allocated."""
    if m < 1:
        raise ValidationError(f"{name} must be >= 1")
    _check_limit(name, m, cap)


def p1_deg_hat_table(m_max: int) -> list:
    """-1/2 log det of the closed-form (m omega) Gram for m = 1..m_max.

    log det = 2 sum_{a<=m} log a! - (m+1) log (m+1)! + (m+1) log m; the
    first sum runs across m, while log (m+1)! comes from lgamma directly
    because a difference of two running sums loses ~1e-9 at m ~ 2000.
    """
    out = []
    log_fact_sum = 0.0
    lg_next = math.lgamma(2.0)
    for m in range(1, m_max + 1):
        # log m! is the previous row's log (m+1)!
        log_fact_sum += lg_next
        lg_next = math.lgamma(m + 2.0)
        s = (2.0 * log_fact_sum - (m + 1) * lg_next
             + (m + 1) * math.log(m))
        out.append(-0.5 * s)
    return out


def p1_deg_hat(m: int, volume_convention: str = VOL_M_OMEGA) -> float:
    """-1/2 log det of the closed-form Gram for one m."""
    _check_m("tensor power m", m, MAX_SCAN_M)
    dh = p1_deg_hat_table(m)[-1]
    if volume_convention != VOL_M_OMEGA:
        dh += 0.5 * (m + 1) * math.log(m)
    return dh


def _chow(model, m: int, top: float, ln: float, deg_hat: float,
          rank: int) -> float:
    """(L_m^{n+1})/((n+1)(L_m^n)[K:Q]) - deg_hat/(rank [K:Q]), L_m = m L,
    with top = (L^{n+1}) and ln = float((L^n))."""
    n, d = model.n, model.degree_KQ
    return (m ** (n + 1) * top / ((n + 1) * m ** n * ln * d)
            - deg_hat / (rank * d))


class ScanResult(FrozenValue):
    """Fit and table of a scan."""

    _fields = ("fitted_constant", "fitted_log_slope", "table", "columns")

    def __init__(self, fitted_constant: float, fitted_log_slope: float,
                 table: list | None = None, columns: tuple = ()):
        self.__dict__.update(
            fitted_constant=fitted_constant, fitted_log_slope=fitted_log_slope,
            table=[] if table is None else table, columns=columns)


def _deg_hat_table(model, m_max: int) -> list:
    """deg_hat(1..m_max) of the model's family, both checks first."""
    _check_family(model.family)
    _check_m("m_max", m_max, MAX_SCAN_M)
    return p1_deg_hat_table(m_max)


def hilbert_samuel_residual(model, m_max: int):
    """residual(m) = deg_hat(m) - [A m^{n+1}/(n+1)! - (L^n) m^n log m/(4 (n-1)!)
    - B m^n/(2 n!)] with A = (L^{n+1}), B = (L^n.K)."""
    table = _deg_hat_table(model, m_max)
    n = model.n
    A = model.top_power().evaluate()
    B = model.lnk().evaluate()
    Ln = float(model.deg_Ln)
    f_top = math.factorial(n + 1)
    f_log = 4.0 * math.factorial(n - 1)
    f_B = 2.0 * math.factorial(n)
    out = []
    for m, dh in enumerate(table, start=1):
        main = (A * m ** (n + 1) / f_top - Ln * m ** n * math.log(m) / f_log
                - B * m ** n / f_B)
        r = dh - main
        if not math.isfinite(r):
            raise NumericError(f"Hilbert-Samuel residual at m = {m} is "
                               f"outside the float range")
        out.append((m, r))
    return out


def _lstsq(cols: list, y: list) -> list:
    """x minimizing |sum_j x_j cols[j] - y|, by Householder QR.

    The columns are lists of equal length, at least as long as there are
    columns, and of full rank.  cols and y are overwritten: the
    reflections leave R in the upper triangle of the columns and Q^T y
    in y.  Inner products are correctly rounded (math.fsum).
    """
    k = len(cols)
    for j, a in enumerate(cols):
        v = a[j:]
        norm = math.sqrt(math.fsum(map(operator.mul, v, v)))
        # v = a - alpha e_j with the sign of alpha that does not cancel;
        # then |v|^2 = 2 norm (norm + |a_j|)
        alpha = -math.copysign(norm, v[0])
        half_vv = norm * (norm + abs(v[0]))
        v[0] -= alpha
        for c in cols[j + 1:] + [y]:
            s = math.fsum(map(operator.mul, v, c[j:])) / half_vv
            c[j:] = [q - s * p for p, q in zip(v, c[j:])]
        a[j] = alpha
    x = [0.0] * k
    for i in reversed(range(k)):
        x[i] = (y[i] - math.fsum(cols[j][i] * x[j]
                                 for j in range(i + 1, k))) / cols[i][i]
    return x


def dequantization_scan(model, m_max: int) -> ScanResult:
    """Chow heights of (X, L^m, h^m) for m = 1..m_max plus a tail fit.

    Fit model: a + s log m + (b1 + b2 log m)/m over m in [m_max/2, m_max].
    The 1/m absorber needs the log m/m companion to reach the stated
    tolerance on the constant; see docs/normalization.md.
    """
    if m_max < MIN_FIT_M:
        raise ValidationError(f"m_max must be >= {MIN_FIT_M} for the "
                              f"4-parameter tail fit")
    deg_hats = _deg_hat_table(model, m_max)
    n, A, Ln = model.n, model.top_power().evaluate(), float(model.deg_Ln)
    table = []
    for m, dh in enumerate(deg_hats, start=1):
        hc = _chow(model, m, A, Ln, dh, m + 1)
        if not math.isfinite(hc):
            raise NumericError(f"Chow height at m = {m} is outside the "
                               f"float range")
        table.append((m, dh, hc, hc - 0.25 * n * math.log(m)))

    tail = table[m_max // 2 - 1:]
    ms = [r[0] for r in tail]
    logs = [math.log(m) for m in ms]
    coef = _lstsq([[1.0] * len(ms), logs, [1.0 / m for m in ms],
                   [lg / m for lg, m in zip(logs, ms)]],
                  [r[2] for r in tail])
    return ScanResult(fitted_constant=coef[0],
                      fitted_log_slope=coef[1],
                      table=table,
                      columns=("m", "deg_hat", "h_C", "h_C_minus_log_term"))
