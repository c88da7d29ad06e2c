"""Potential functions, theoretical bounds, and trace-level checks.

Everything here is a read-only consumer of runs: potentials,
partial-sum budgets and iterate recordings are folds over the trace
points that ``run`` hands its observers as it goes, closed-form bounds
are compared with a trace's residual columns, violations are counted
with explicit slack, and scheme-equivalence deviations are measured
pointwise. Decrease checks use a relative slack
``1e-10 * (1 + value)`` because potential values span many orders of
magnitude along a run.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, InputError
from .schemes import _norm

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
        raise DataError("trace point lacks the operator value at y_k")
    return (p_k / L) * float(g_y @ g_y) + q_k * float(g_y @ (y - y0))


def nesterov_potential(g_y_prev, x, y, coeffs, y_star):
    """a|G y_{k-1}|^2 + b <G y_{k-1}, x_k - y_k> + |x_k + t(y_k - x_k) - y*|^2 + mu|x_k - y*|^2."""
    if g_y_prev is None:
        raise DataError("trace point lacks the operator value at y_{k-1}")
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
# folds: trace diagnostics as running functions of the trace points


class Fold:
    """A trace diagnostic computed one trace point at a time.

    ``run(..., observers=[fold])`` calls a fold with the
    :class:`~anchored.schemes.TracePoint` of every index 0, 1, 2, ... in
    order while the run goes, so a check keeps only its running terms
    and the point before. Subclasses name the point fields they read in
    ``need`` and implement ``term(point, prev)`` (``prev`` is the point
    before, None at k = 0), which returns the next entry of ``terms`` or
    None for no entry.
    """

    need = ()

    def __init__(self):
        self.terms = []
        self._prev = None

    def __call__(self, point):
        if point.k != (0 if self._prev is None else self._prev.k + 1):
            raise DataError("folds need every index from k = 0")
        if self._prev is None:
            for name in self.need:
                if getattr(point, name) is None:
                    raise DataError(f"trace points lack field {name!r}")
        term = self.term(point, self._prev)
        if term is not None:
            self.terms.append(term)
        self._prev = point

    def series(self):
        return np.array(self.terms)


class MapFold(Fold):
    """``fn(point)`` at every index."""

    def __init__(self, fn):
        super().__init__()
        self.term = lambda point, prev: fn(point)


class RecordFold(Fold):
    """The y and z iterates of every index, for lockstep comparisons.

    Iterates are never mutated after a run creates them, so the fold
    keeps references, not copies.
    """

    def term(self, point, prev):
        return point.y, point.z

    def iterates(self, name):
        """The recorded ``name`` ("y" or "z") iterates, in index order."""
        return [pair[("y", "z").index(name)] for pair in self.terms]


class AnchoredPotentialFold(Fold):
    """Anchored potential at every index whose point carries G y_k."""

    need = ("y", "g_y")

    def __init__(self, L, q0=1.0):
        super().__init__()
        self.L, self.q0 = L, q0
        self._y0 = None

    def term(self, point, prev):
        if prev is None:
            self._y0 = point.y
        if point.g_y is not None:
            p_k, q_k = halpern_potential_coeffs(point.k, self.q0)
            return halpern_potential(point.g_y, point.y, self._y0, p_k, q_k,
                                     self.L)
        return None


class CorrectedPotentialFold(Fold):
    """Corrected-scheme potential with per-index coefficients.

    ``field`` names the point iterate in the place of y_k in
    :func:`nesterov_potential`: "y" for the corrected schemes, "z" for
    the corrected extra-gradient scheme. G y_{-1} is taken as G y_0.
    """

    def __init__(self, coeffs_fn, y_star, field="y"):
        super().__init__()
        self.need = ("x", field)
        self.coeffs_fn, self.y_star, self.field = coeffs_fn, y_star, field

    def term(self, point, prev):
        g_prev = (point if prev is None else prev).g_y
        return nesterov_potential(g_prev, point.x, getattr(point, self.field),
                                  self.coeffs_fn(point.k), self.y_star)


def omega_potential_fold(gamma, omega, y_star, mu=1.0):
    """Corrected potential of the omega family (corrected schemes, at y)."""
    return CorrectedPotentialFold(
        lambda k: omega_family_coeffs(k, gamma, omega, mu), y_star)


def eag_potential_fold(L, y_star, b1=None):
    """Extra-gradient potential: the corrected one read at z."""
    return CorrectedPotentialFold(lambda k: eag_family_coeffs(k, L, b1),
                                  y_star, field="z")


class ResidualDifferenceFold(Fold):
    """Partial sums of (k+1)(k+2)|G y_{k+1} - G y_k|^2 against 2 L^2 dist0^2."""

    need = ("g_y",)

    def __init__(self, L, dist0):
        super().__init__()
        self.L, self.dist0 = L, dist0

    def term(self, point, prev):
        if prev is None or point.g_y is None:
            return None
        d = point.g_y - prev.g_y
        return (prev.k + 1.0) * (prev.k + 2.0) * float(d @ d)

    def report(self):
        sums = np.cumsum(self.terms)
        budget = 2.0 * self.L * self.L * self.dist0 * self.dist0
        return _compare("residual_difference_budget", sums,
                        np.full(len(sums), budget))


class SummabilityFold(Fold):
    """The four partial-sum budgets of the omega-family decrease estimate.

    Budgets (all bounded by V_0): mu(2 t_k - 1 - mu)|x_{k+1}-x_k|^2;
    (gamma (w-1)/(L w)) |G y_k|^2; (2 gamma (1 - L gamma)/L)
    t_k(t_k-1)|G y_k - G y_{k-1}|^2; gamma^2 t_k(t_k-1)
    |x_{k+1}-x_k-theta_{k-1}(x_k-x_{k-1})|^2. A budget whose coefficient
    is nonpositive (e.g. gamma > 1/L for the third) is skipped with a
    flag rather than asserted. Each term holds the four norms of the
    step k -> k+1.
    """

    need = ("x", "g_y")

    def __init__(self, gamma, omega, L, mu=1.0):
        super().__init__()
        self.gamma, self.omega, self.L, self.mu = gamma, omega, L, mu
        self._step = None    # x_k - x_{k-1}
        self._g_back = None  # G y_{k-1}, with G y_{-1} = G y_0

    def term(self, point, prev):
        if prev is None:
            self._g_back = point.g_y
            return None
        k = prev.k
        step, g_k = point.x - prev.x, prev.g_y
        carry = 0.0
        if k >= 1:
            i = k - 1  # theta_{k-1} of the omega family
            carry = ((i + 1.0) / (i + 2.0 * self.omega + 2.0)) * self._step
        out = (_norm(step), _norm(g_k), _norm(g_k - self._g_back),
               _norm(step - carry))
        self._step, self._g_back = step, g_k
        return out

    def reports(self, v0):
        if v0 is None:
            raise DataError("summability check needs V_0")
        gamma, omega, L, mu = self.gamma, self.omega, self.L, self.mu
        n = len(self.terms)
        dx, g_norm, dg, corr = np.array(self.terms).reshape(n, 4).T
        t = np.array([(k + 2.0 * omega + 1.0) / omega for k in range(n)])
        budget = np.full(n, float(v0))
        reports = []

        def add(name, coeff_terms, positive):
            if not positive:
                reports.append(BoundReport(
                    name=name, theory=budget, observed=np.zeros(n),
                    violations=0, worst_excess=0.0, first_violation=None,
                    skipped=True,
                    note="nonpositive coefficient, budget not asserted"))
                return
            reports.append(_compare(name, np.cumsum(coeff_terms), budget))

        add("anchor_distance_budget", mu * (2.0 * t - 1.0 - mu) * dx ** 2,
            mu > 0)
        add("residual_budget",
            (gamma * (omega - 1.0) / (L * omega)) * g_norm ** 2, omega > 1.0)
        add("residual_difference_budget",
            (2.0 * gamma * (1.0 - L * gamma) / L) * t * (t - 1.0) * dg ** 2,
            1.0 - L * gamma > 0.0)
        add("correction_budget", gamma * gamma * t * (t - 1.0) * corr ** 2,
            True)
        return reports


class PeagGapFold(Fold):
    """Weighted probe-gap sums of the past-extra potential, bounded by E_0.

    Partial sums of (L^2 (sigma-1) b0 / (2 sqrt(2M))) * (k+1)(k+2)
    |z_{k+1} - y_{k+1}|^2 stay below E_0; meaningful only for sigma > 1
    (smaller sigma gives a nonpositive weight and the check is skipped).
    """

    need = ("y", "z")

    def __init__(self, L, sigma, b0=1.0):
        super().__init__()
        self.L, self.sigma, self.b0 = L, sigma, b0

    def term(self, point, prev):
        if prev is None:
            return None
        return _norm(point.z - point.y) ** 2

    def report(self, e0):
        n = len(self.terms)
        if self.sigma <= 1.0:
            return BoundReport(name="probe_gap_budget", theory=np.full(n, e0),
                               observed=np.zeros(n), violations=0,
                               worst_excess=0.0, first_violation=None,
                               skipped=True,
                               note="sigma <= 1, weight nonpositive")
        L = self.L
        root = math.sqrt(2.0 * L * L * (1.0 + self.sigma))
        w = L * L * (self.sigma - 1.0) * self.b0 / (2.0 * root)
        ks = np.arange(n, dtype=float)
        terms = w * (ks + 1.0) * (ks + 2.0) * np.array(self.terms)
        return _compare("probe_gap_budget", np.cumsum(terms), np.full(n, e0))


class PeagPotentialFold(Fold):
    """Past-extra potential (:func:`peag_potential`) at every index.

    Reads G y_k from ``g_x``: a ``peag`` run with ``track_x_residual``
    evaluates G at its x slot, which is y_k.
    """

    need = ("y", "z", "g_x")

    def __init__(self, L, sigma, y_star, b0=1.0):
        super().__init__()
        self.L, self.sigma, self.y_star, self.b0 = L, sigma, y_star, b0
        self._y0 = None

    def term(self, point, prev):
        if prev is None:
            self._y0 = point.y
        return peag_potential(point.g_x, point.y, point.z, point.k, self.L,
                              self.sigma, self._y0, self.y_star, self.b0)


class PeagResidualFold(Fold):
    """|G y_k|^2 + 2 L^2 |z_k - y_k|^2 against the past-extra residual bound.

    Reads G y_k from ``g_x``, as :class:`PeagPotentialFold` does.
    """

    need = ("y", "z", "g_x")

    def __init__(self, L, dist0, sigma):
        super().__init__()
        self.L, self.dist0, self.sigma = L, dist0, sigma

    def term(self, point, prev):
        return (_norm(point.g_x) ** 2
                + 2.0 * self.L * self.L * _norm(point.z - point.y) ** 2)

    def report(self):
        theory = bound_series("peag_residual", np.arange(len(self.terms)),
                              self.L, self.dist0, sigma=self.sigma)
        return _compare("peag_residual", self.series(), theory)


class CouplingIdentityFold(Fold):
    """Relative deviation of the potential coupling identity, step by step.

    Along the slow corrected run (beta_k = 1/(k+2), eta_k = (1-beta_k)/L)
    the corrected potential with :func:`anchor_to_corrected_coeffs` at
    k+1 equals (4 p_k/(L q_k^2)) times the anchored potential at k plus
    |y0 - y*|^2. Each term is |lhs - rhs|/(1 + |rhs|) for one step
    k -> k+1.
    """

    need = ("x", "y", "g_y")

    def __init__(self, L, y_star):
        super().__init__()
        self.L, self.y_star = L, y_star
        self._y0 = self._d0sq = None

    def term(self, point, prev):
        if prev is None:
            self._y0 = point.y
            self._d0sq = float(np.linalg.norm(point.y - self.y_star) ** 2)
            return None
        k, L = prev.k, self.L
        beta = 1.0 / (k + 2)
        eta = (1.0 - beta) / L
        p_k, q_k = halpern_potential_coeffs(k)
        l_val = halpern_potential(prev.g_y, prev.y, self._y0, p_k, q_k, L)
        coeffs = anchor_to_corrected_coeffs(k, beta, eta, L)
        v_next = nesterov_potential(prev.g_y, point.x, point.y, coeffs,
                                    self.y_star)
        rhs = (4.0 * p_k / (L * q_k * q_k)) * l_val + self._d0sq
        return abs(v_next - rhs) / (1.0 + abs(rhs))

    def max_deviation(self):
        """Largest term, 0 for no terms; NaN when any term is NaN."""
        return float(np.max(self.terms, initial=0.0))


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


def bound_check(trace, bound, L, dist0, rho=None, sigma=None):
    """Compare a trace against one of the closed-form residual bounds.

    dist0 is |y0 - y*|. The co-monotone bound starts at k = 1. The
    past-extra probe bound reads the trace's |G z_k| column, the other
    column bounds |G y_k|. A run that stopped on a numeric error, or
    kept no final residual, has no residual at its last index, and the
    comparison ends one index earlier. The past-extra residual bound is
    on |G y_k| and |z_k - y_k|, which no trace column holds: a ``peag``
    run with ``track_x_residual`` feeds :class:`PeagResidualFold`
    instead.
    """
    if bound == "peag_residual":
        raise InputError("the peag_residual bound reads iterates: feed "
                         "PeagResidualFold to a run with track_x_residual")
    first = 1 if bound == "comono" else 0
    column = trace.norm_g_z if bound == "peag_probe" else trace.norm_g_y
    obs, ks = column[first:], trace.k[first:]
    if len(obs) and np.isnan(obs[-1]):
        obs, ks = obs[:-1], ks[:-1]
    if bound != "halpern_fast":
        obs = obs ** 2
    if np.any(np.isnan(obs)):
        raise InputError("trace lacks the residual values this bound reads")
    theory = bound_series(bound, ks, L, dist0, rho=rho, sigma=sigma)
    return _compare(bound, obs, theory, ks)


def eag_constant_rate_constant(eta, L):
    """Constant-stepsize rate constant 4(1 + eta L + eta^2 L^2)/(eta^2 (1 + eta L))."""
    el = eta * L
    return 4.0 * (1.0 + el + el * el) / (eta * eta * (1.0 + el))


def eag_varying_rate_constant(eta0, eta_star, L):
    """Varying-stepsize rate constant 4(1 + eta0 eta* L^2)/eta*^2.

    It decreases in eta*, so a lower bound on the limit stepsize eta*
    (:func:`eag_varying_limit_lower_bound`) gives an upper bound on it.
    """
    return 4.0 * (1.0 + eta0 * eta_star * L * L) / (eta_star * eta_star)


_LIMIT_FACTORS = 1000


def eag_varying_limit_lower_bound(eta0, L):
    """Certified lower bound on the limit eta* of the varying stepsize rule.

    The rule eta_{j+1} = (1 - c_j/((j+1)(j+3))) eta_j has
    c_j = L^2 eta_j^2/(1 - L^2 eta_j^2) <= c = L^2 eta0^2/(1 - L^2 eta0^2)
    because the stepsizes decrease, so
    eta* >= eta0 prod_{j>=0} (1 - c/((j+1)(j+3))). The first
    J = ``_LIMIT_FACTORS`` factors are multiplied out; the tail product is at least
    1 - sum_{j>=J} c/((j+1)(j+3)) = 1 - (c/2)(1/(J+1) + 1/(J+2)), since
    the sum telescopes. Every factor is positive only for c < 3, that is
    L eta0 < sqrt(3)/2.
    """
    le2 = (L * eta0) ** 2
    if not 0.0 < le2 < 0.75:
        raise InputError("certified limit stepsize needs 0 < L eta0 < sqrt(3)/2")
    c = le2 / (1.0 - le2)
    prod = 1.0
    for j in range(_LIMIT_FACTORS):
        prod *= 1.0 - c / ((j + 1.0) * (j + 3.0))
    tail = 1.0 - 0.5 * c * (1.0 / (_LIMIT_FACTORS + 1.0)
                            + 1.0 / (_LIMIT_FACTORS + 2.0))
    return eta0 * prod * tail


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


def equivalence_report(record_a, record_b, field="y"):
    """max_k |a_k - b_k| / (1 + |a_k|) over one field of two runs.

    Each argument is a :class:`RecordFold` fed by its run.
    """
    sa = record_a.iterates(field)
    sb = record_b.iterates(field)
    if len(sa) != len(sb):
        raise InputError("recordings have different lengths")
    if not sa:
        raise DataError("recordings are empty")
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
