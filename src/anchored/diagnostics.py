"""Potential functions, theoretical bounds, and trace-level checks.

Everything here is a read-only consumer of run traces: potential values
are recomputed from snapshots, decrease and bound violations are
counted with explicit slack, and scheme-equivalence deviations are
measured pointwise. Decrease checks use a relative slack
``1e-10 * (1 + value)`` because potential values span many orders of
magnitude along a run.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, InputError

DECREASE_SLACK = 1e-10
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class LyapunovCoeffs:
    """Coefficients of the corrected-scheme potentials at one index."""

    a: float
    b: float
    t: float
    mu: float = 0.0
    p: Optional[float] = None
    q: Optional[float] = None


@dataclass
class BoundReport:
    """Outcome of comparing a per-iteration series against a bound."""

    name: str
    theory: np.ndarray
    observed: np.ndarray
    violations: int
    worst_excess: float
    first_violation: Optional[int]
    skipped: bool = False
    note: str = ""

    @property
    def ok(self):
        return self.skipped or self.violations == 0

    def to_text(self):
        if self.skipped:
            return f"{self.name}: SKIPPED ({self.note})"
        status = "ok" if self.violations == 0 else "FAIL"
        head = (f"{self.name}: {status} violations={self.violations} "
                f"worst_excess={self.worst_excess:.3e}")
        if self.first_violation is not None:
            head += f" first_k={self.first_violation}"
        return head


@dataclass
class RateReport:
    slope: float
    intercept: float
    k_lo: int
    k_hi: int
    residual: float

    def to_text(self):
        return (f"rate fit on [{self.k_lo}, {self.k_hi}]: slope={self.slope:.4f} "
                f"intercept={self.intercept:.4f} residual={self.residual:.3e}")


def _compare(name, observed, theory, ks=None, slack=BOUND_SLACK, note=""):
    observed = np.asarray(observed, dtype=float)
    theory = np.asarray(theory, dtype=float)
    bad = observed > theory * (1.0 + slack)
    viol = int(np.count_nonzero(bad))
    if viol:
        idx = int(np.argmax(bad))
        first = int(ks[idx]) if ks is not None else idx
        with np.errstate(divide="ignore", invalid="ignore"):
            excess = np.where(theory > 0, (observed - theory) / theory,
                              observed - theory)
        worst = float(np.max(excess[bad]))
    else:
        first, worst = None, 0.0
    return BoundReport(name=name, theory=theory, observed=observed,
                       violations=viol, worst_excess=worst,
                       first_violation=first, note=note)


# ---------------------------------------------------------------------------
# potential functions


def halpern_potential_coeffs(k, q0=1.0):
    """Weights p_k = q0*k*(k+1), q_k = q0*(k+1) of the anchored potential."""
    return q0 * k * (k + 1.0), q0 * (k + 1.0)


def halpern_potential(g_y, y, y0, p_k, q_k, L):
    """(p_k/L)|G y_k|^2 + q_k <G y_k, y_k - y0>."""
    if g_y is None:
        raise DataError("snapshot lacks the operator value at y_k")
    return (p_k / L) * float(g_y @ g_y) + q_k * float(g_y @ (y - y0))


def nesterov_potential(g_y_prev, x, y, coeffs, y_star):
    """a|G y_{k-1}|^2 + b <G y_{k-1}, x_k - y_k> + |x_k + t(y_k - x_k) - y*|^2 + mu|x_k - y*|^2."""
    if g_y_prev is None:
        raise DataError("snapshot lacks the operator value at y_{k-1}")
    shifted = x + coeffs.t * (y - x) - y_star
    val = (coeffs.a * float(g_y_prev @ g_y_prev)
           + coeffs.b * float(g_y_prev @ (x - y))
           + float(shifted @ shifted))
    if coeffs.mu:
        d = x - y_star
        val += coeffs.mu * float(d @ d)
    return val


def peag_potential(g_y, y, z, k, L, sigma, y0, y_star, b0=1.0):
    """Past-extra potential with the probe-distance and offset terms.

    a_k|G y_k|^2 + b_k <G y_k, y_k - y0> + c_k|z_k - y_k|^2
    + b0*sqrt(2M)|y0 - y*|^2, with M = L^2 (1 + sigma),
    b_k = b0 (k+1), a_k = b0 (k+1)^2 / (2 sqrt(2M)) and
    c_k = L^2 b0 (k+1)^2 / (2 sqrt(2M)).
    """
    if g_y is None:
        raise DataError("need the operator value at y_k")
    root = math.sqrt(2.0 * L * L * (1.0 + sigma))
    b_k = b0 * (k + 1.0)
    a_k = b0 * (k + 1.0) ** 2 / (2.0 * root)
    c_k = L * L * b0 * (k + 1.0) ** 2 / (2.0 * root)
    d0 = y0 - y_star
    dzy = z - y
    return (a_k * float(g_y @ g_y) + b_k * float(g_y @ (y - y0))
            + c_k * float(dzy @ dzy) + b0 * root * float(d0 @ d0))


def omega_family_coeffs(k, gamma, omega, mu=1.0):
    """Coefficients a = gamma^2 t (t-1), b = 2 gamma t (t-1), t = (k+2w+1)/w."""
    t = (k + 2.0 * omega + 1.0) / omega
    return LyapunovCoeffs(a=gamma * gamma * t * (t - 1.0),
                          b=2.0 * gamma * t * (t - 1.0), t=t, mu=mu)


def eag_family_coeffs(k, L, b1=None):
    """Coefficients a = b1 k (k+2)/(4L), b = b1 k (k+1)/2, t = k+1, mu = 0."""
    if b1 is None:
        b1 = 2.0 / L
    return LyapunovCoeffs(a=b1 * k * (k + 2.0) / (4.0 * L),
                          b=b1 * k * (k + 1.0) / 2.0, t=k + 1.0, mu=0.0)


def anchor_to_corrected_coeffs(k, beta_k, eta_k, L, q0=1.0):
    """Index-(k+1) coefficients that tie the two potentials together.

    With p, q the anchored-potential weights at k, the corrected
    potential built from a = 4p^2/(L^2 q^2) + 4 p eta/(L q (1-beta)),
    b = 4p/(L q beta), t = 1/beta and mu = 0 satisfies

        V_{k+1} = (4 p / (L q^2)) * anchored_potential_k + |y0 - y*|^2.
    """
    p, q = halpern_potential_coeffs(k, q0)
    a = 4.0 * p * p / (L * L * q * q) + 4.0 * p * eta_k / (L * q * (1.0 - beta_k))
    b = 4.0 * p / (L * q * beta_k)
    return LyapunovCoeffs(a=a, b=b, t=1.0 / beta_k, mu=0.0, p=p, q=q)


# ---------------------------------------------------------------------------
# series along traces


def _snapshots(trace, need=()):
    snaps = trace.snapshots
    if not snaps:
        raise DataError("trace carries no snapshots")
    if any(s.k != i for i, s in enumerate(snaps)):
        raise DataError("potential evaluation needs snapshot stride 1")
    for name in need:
        if getattr(snaps[0], name) is None:
            raise DataError(f"snapshots lack field {name!r}")
    return snaps


def _g_prev(snaps, k):
    # y_{-1} = y_0 convention: the k = 0 slot reuses G(y_0)
    g = snaps[k - 1].g_y if k >= 1 else snaps[0].g_y
    if g is None:
        raise DataError(f"snapshot {max(k - 1, 0)} lacks g_y")
    return g


def halpern_potential_series(trace, L, q0=1.0):
    """Anchored potential along a trace; defined up to index K-1."""
    snaps = _snapshots(trace, need=("y", "g_y"))
    y0 = snaps[0].y
    out = []
    for s in snaps:
        if s.g_y is None:
            break
        p_k, q_k = halpern_potential_coeffs(s.k, q0)
        out.append(halpern_potential(s.g_y, s.y, y0, p_k, q_k, L))
    return np.array(out)


def corrected_potential_series(trace, coeffs_fn, y_star, field="y"):
    """Corrected-scheme potential with per-index coefficients.

    ``field`` names the snapshot iterate in the place of y_k in
    :func:`nesterov_potential`: "y" for the corrected schemes, "z" for
    the corrected extra-gradient scheme.
    """
    snaps = _snapshots(trace, need=("x", field))
    return np.array([
        nesterov_potential(_g_prev(snaps, k), s.x, getattr(s, field),
                           coeffs_fn(k), y_star)
        for k, s in enumerate(snaps)])


def nesterov_potential_series(trace, gamma, omega, y_star, mu=1.0):
    return corrected_potential_series(
        trace, lambda k: omega_family_coeffs(k, gamma, omega, mu), y_star)


def eag_potential_series(trace, L, y_star, b1=None):
    return corrected_potential_series(
        trace, lambda k: eag_family_coeffs(k, L, b1), y_star, field="z")


def peag_potential_series(trace, operator, L, sigma, y_star, b0=1.0):
    snaps = _snapshots(trace, need=("y", "z"))
    y0 = snaps[0].y
    return np.array([
        peag_potential(operator(s.y), s.y, s.z, s.k, L, sigma, y0, y_star, b0)
        for s in snaps])


def decrease_report(values, name="decrease", slack=DECREASE_SLACK):
    """Count indices where the series increases beyond the relative slack."""
    values = np.asarray(values, dtype=float)
    diffs = values[:-1] - values[1:]
    allowed = -slack * (1.0 + np.abs(values[:-1]))
    bad = diffs < allowed
    viol = int(np.count_nonzero(bad))
    first = int(np.argmax(bad)) if viol else None
    worst = float(np.min(diffs - allowed)) if len(diffs) else 0.0
    return BoundReport(name=name, theory=allowed, observed=diffs,
                       violations=viol, worst_excess=-worst if viol else 0.0,
                       first_violation=first)


# ---------------------------------------------------------------------------
# theoretical residual bounds

BOUND_KINDS = ("halpern_fast", "halpern_slow", "eag", "comono",
               "peag_residual", "peag_probe")


def bound_series(bound, ks, L, dist0, rho=None, sigma=None):
    """Closed-form right-hand side of one residual bound at indices ``ks``.

    dist0 is |y0 - y*|. ``halpern_fast`` bounds |G y_k|, the others a
    squared residual. The co-monotone bound holds from k = 1 on and is
    inf at k = 0; it needs rho, and the past-extra bounds need sigma.
    """
    if bound not in BOUND_KINDS:
        raise InputError(f"unknown bound kind {bound!r}")
    ks = np.asarray(ks, dtype=float)
    if bound == "halpern_fast":
        return L * dist0 / (ks + 1.0)
    scale = 4.0 * L * L * dist0 * dist0
    if bound == "halpern_slow":
        return scale / ((ks + 1.0) * (ks + 3.0))
    if bound == "eag":
        return scale / (ks + 1.0) ** 2
    if bound == "comono":
        if rho is None:
            raise InputError("comono bound needs rho")
        with np.errstate(divide="ignore"):
            return scale / ((1.0 + 2.0 * rho * L) * ks ** 2)
    if sigma is None:
        raise InputError("past-extra bounds need sigma")
    m_big = L * L * (1.0 + sigma)
    weight = 2.0 if bound == "peag_residual" else 3.0
    return weight * (1.0 + 4.0 * m_big) * dist0 * dist0 / (ks + 1.0) ** 2


def bound_check(trace, bound, L, dist0, rho=None, sigma=None, operator=None):
    """Compare a trace against one of the closed-form residual bounds.

    dist0 is |y0 - y*|. The co-monotone bound starts at k = 1; the
    past-extra bounds need snapshots (and ``operator`` for the bound on
    the y-iterate residual, which that scheme never evaluates itself).
    """
    if bound in ("peag_residual", "peag_probe"):
        theory = bound_series(bound, np.arange(len(trace.snapshots)), L,
                              dist0, sigma=sigma)
        snaps = _snapshots(trace, need=("y", "z"))
        if bound == "peag_residual":
            if operator is None:
                raise InputError("peag_residual needs the operator to evaluate G(y_k)")
            obs = [float(np.linalg.norm(operator(s.y)) ** 2)
                   + 2.0 * L * L * float(np.linalg.norm(s.z - s.y) ** 2)
                   for s in snaps]
            return _compare(bound, np.array(obs), theory)
        obs = []
        for s in snaps:
            if s.g_z is not None:
                obs.append(float(np.linalg.norm(s.g_z) ** 2))
            elif operator is not None:
                obs.append(float(np.linalg.norm(operator(s.z)) ** 2))
            else:
                raise InputError("snapshot lacks g_z and no operator was given")
        return _compare(bound, np.array(obs), theory)
    first = 1 if bound == "comono" else 0
    theory = bound_series(bound, trace.k, L, dist0, rho=rho)[first:]
    obs = trace.norm_g_y[first:]
    if bound != "halpern_fast":
        obs = obs ** 2
    if np.any(np.isnan(obs)):
        raise InputError("trace lacks |G y_k| values for this bound")
    return _compare(bound, obs, theory, trace.k[first:])


def eag_constant_rate_constant(eta, L):
    """Constant-stepsize rate constant 4(1 + eta L + eta^2 L^2)/(eta^2 (1 + eta L))."""
    el = eta * L
    return 4.0 * (1.0 + el + el * el) / (eta * eta * (1.0 + el))


def eag_varying_rate_constant(eta0, eta_star, L):
    """Varying-stepsize rate constant 4(1 + eta0 eta* L^2)/eta*^2.

    The true constant uses the limit stepsize; callers passing the last
    computed stepsize as a proxy should flag the check as approximate.
    """
    return 4.0 * (1.0 + eta0 * eta_star * L * L) / (eta_star * eta_star)


def residual_difference_budget(trace, L, dist0):
    """Partial sums of (k+1)(k+2)|G y_{k+1} - G y_k|^2 against 2 L^2 dist0^2."""
    snaps = _snapshots(trace, need=("g_y",))
    terms = []
    for k in range(len(snaps) - 1):
        if snaps[k + 1].g_y is None:
            break
        d = snaps[k + 1].g_y - snaps[k].g_y
        terms.append((k + 1.0) * (k + 2.0) * float(d @ d))
    sums = np.cumsum(terms)
    budget = 2.0 * L * L * dist0 * dist0
    return _compare("residual_difference_budget", sums,
                    np.full(len(sums), budget))


def summability_check(trace, gamma, omega, L, v0, mu=1.0):
    """The four partial-sum budgets of the omega-family decrease estimate.

    Budgets (all bounded by V_0): mu(2 t_k - 1 - mu)|x_{k+1}-x_k|^2;
    (gamma (w-1)/(L w)) |G y_k|^2; (2 gamma (1 - L gamma)/L)
    t_k(t_k-1)|G y_k - G y_{k-1}|^2; gamma^2 t_k(t_k-1)
    |x_{k+1}-x_k-theta_{k-1}(x_k-x_{k-1})|^2. A budget whose coefficient
    is nonpositive (e.g. gamma > 1/L for the third) is skipped with a
    flag rather than asserted.
    """
    if v0 is None:
        raise DataError("summability check needs V_0")
    snaps = _snapshots(trace, need=("x", "g_y"))
    n = len(snaps) - 1  # terms use the step k -> k+1
    t = np.array([(k + 2.0 * omega + 1.0) / omega for k in range(n)])
    theta = np.array([(k + 1.0) / (k + 2.0 * omega + 2.0) for k in range(n)])
    dx = np.array([np.linalg.norm(snaps[k + 1].x - snaps[k].x) for k in range(n)])
    g_norm = np.array([np.linalg.norm(snaps[k].g_y) for k in range(n)])
    dg = np.array([np.linalg.norm(snaps[k].g_y - _g_prev(snaps, k))
                   for k in range(n)])
    corr = np.empty(n)
    for k in range(n):
        prev = theta[k - 1] * (snaps[k].x - snaps[k - 1].x) if k >= 1 else 0.0
        corr[k] = np.linalg.norm(snaps[k + 1].x - snaps[k].x - prev)
    budget = np.full(n, float(v0))
    reports = []

    def add(name, coeff_terms, positive):
        if not positive:
            reports.append(BoundReport(
                name=name, theory=budget, observed=np.zeros(n), violations=0,
                worst_excess=0.0, first_violation=None, skipped=True,
                note="nonpositive coefficient, budget not asserted"))
            return
        sums = np.cumsum(coeff_terms)
        reports.append(_compare(name, sums, budget))

    add("anchor_distance_budget", mu * (2.0 * t - 1.0 - mu) * dx ** 2, mu > 0)
    add("residual_budget", (gamma * (omega - 1.0) / (L * omega)) * g_norm ** 2,
        omega > 1.0)
    add("residual_difference_budget",
        (2.0 * gamma * (1.0 - L * gamma) / L) * t * (t - 1.0) * dg ** 2,
        1.0 - L * gamma > 0.0)
    add("correction_budget", gamma * gamma * t * (t - 1.0) * corr ** 2, True)
    return reports


def peag_gap_budget(trace, L, sigma, e0, b0=1.0):
    """Weighted probe-gap sums of the past-extra potential, bounded by E_0.

    Partial sums of (L^2 (sigma-1) b0 / (2 sqrt(2M))) * (k+1)(k+2)
    |z_{k+1} - y_{k+1}|^2 stay below E_0; meaningful only for sigma > 1
    (smaller sigma gives a nonpositive weight and the check is skipped).
    """
    snaps = _snapshots(trace, need=("y", "z"))
    n = len(snaps) - 1
    if sigma <= 1.0:
        return BoundReport(name="probe_gap_budget", theory=np.full(n, e0),
                           observed=np.zeros(n), violations=0,
                           worst_excess=0.0, first_violation=None,
                           skipped=True, note="sigma <= 1, weight nonpositive")
    root = math.sqrt(2.0 * L * L * (1.0 + sigma))
    w = L * L * (sigma - 1.0) * b0 / (2.0 * root)
    terms = [w * (k + 1.0) * (k + 2.0)
             * float(np.linalg.norm(snaps[k + 1].z - snaps[k + 1].y) ** 2)
             for k in range(n)]
    return _compare("probe_gap_budget", np.cumsum(terms), np.full(n, e0))


def trend_check(norm_g_y, name="quadratic_trend"):
    """Late-window max of (k+1)^2 |G y_k|^2 must not exceed the early one.

    Windows are [K/10, K/5] and [K/2, K]; a falsifiable stand-in for the
    vanishing-rate claim, which finite runs cannot test directly.
    """
    r = np.asarray(norm_g_y, dtype=float)
    K = len(r) - 1
    ks = np.arange(K + 1, dtype=float)
    weighted = (ks + 1.0) ** 2 * r ** 2
    early = weighted[max(K // 10, 1):max(K // 5, 2)]
    late = weighted[K // 2:]
    ok = float(np.max(late)) <= float(np.max(early))
    return ok, float(np.max(early)), float(np.max(late))


def equivalence_report(trace_a, trace_b, field="y"):
    """max_k |a_k - b_k| / (1 + |a_k|) over snapshots of the given field."""
    sa = trace_a.snapshot_series(field)
    sb = trace_b.snapshot_series(field)
    if len(sa) != len(sb):
        raise InputError("traces have different lengths")
    if not sa:
        raise DataError("traces carry no snapshots")
    worst = 0.0
    for a, b in zip(sa, sb):
        worst = max(worst, float(np.linalg.norm(a - b))
                    / (1.0 + float(np.linalg.norm(a))))
    return worst


def rate_fit(series, window=None):
    """Least-squares slope of log(value) against log(k+1) on a window."""
    series = np.asarray(series, dtype=float)
    n = len(series)
    if window is None:
        window = (n // 4, n - 1)
    k_lo, k_hi = int(window[0]), int(window[1])
    if not 0 <= k_lo < k_hi < n:
        raise InputError("fit window outside the series")
    vals = series[k_lo:k_hi + 1]
    if np.any(~(vals > 0.0)):
        raise DataError("rate fit needs positive values on the window")
    xs = np.log(np.arange(k_lo, k_hi + 1, dtype=float) + 1.0)
    ys = np.log(vals)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return RateReport(slope=float(slope), intercept=float(intercept),
                      k_lo=k_lo, k_hi=k_hi, residual=resid)
