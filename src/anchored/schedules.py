"""Per-iteration parameter rules for every scheme in the package.

Most rules are pure functions of the iteration index and a handful of
constants. The two stepsize recursions (varying-step EAG and the legacy
past-extragradient rule) and the anchored-to-corrected transform carry
the previous step's values forward in a short generator. A stream picks
its rule once, when it is built.

Index-0 convention for transform-derived parameter sets: the previous
anchor weight is formally zero, which would leave theta_0, nu_0 and
kappa_0 undefined. We set theta_0 = kappa_0 = 0 and
nu_0 = 1 - eta_0 / gamma_0, the unique assignment under which the first
corrected step reproduces the first anchored step when all histories
start equal.
"""

import itertools
import math
from typing import NamedTuple, Optional

from .errors import InputError

#: named parameter rules addressable from the CLI and config files
SCHEDULE_KINDS = (
    "halpern_fast",
    "halpern_slow",
    "halpern_omega",
    "nesterov_slow",
    "nesterov_fast",
    "nesterov_omega",
    "eag_constant",
    "eag_varying",
    "comono_eag",
    "peag",
    "peag_legacy",
    "nag_eag",
    "nag_comono",
    "nag_peag",
)


class ScheduleParams(NamedTuple):
    """One iteration's parameters; fields a scheme does not use stay None."""

    k: int
    beta: Optional[float] = None
    eta: Optional[float] = None
    eta_hat: Optional[float] = None
    gamma: Optional[float] = None
    gamma_hat: Optional[float] = None
    theta: Optional[float] = None
    nu: Optional[float] = None
    kappa: Optional[float] = None
    zeta: Optional[float] = None
    rho: Optional[float] = None
    # the co-monotone steps check rho against it
    L: Optional[float] = None


def halpern_params(k, L, variant="fast"):
    """Anchored-scheme weights beta = 1/(k+2) with the fast or slow stepsize."""
    if k < 0 or L <= 0:
        raise InputError("need k >= 0 and L > 0")
    beta = 1.0 / (k + 2)
    if variant == "fast":
        eta = 2.0 * (1.0 - beta) / L
    elif variant == "slow":
        eta = (1.0 - beta) / L
    else:
        raise InputError(f"unknown variant {variant!r}")
    return beta, eta


def halpern_omega_params(k, L, gamma, omega):
    """Interior-stepsize anchored rule: beta = (w+1)/(k+2w+2), eta = gamma(1-beta).

    Requires gamma strictly inside (0, 1/L) and omega > 2.
    """
    if not 0.0 < gamma < 1.0 / L:
        raise InputError("gamma must lie strictly inside (0, 1/L)")
    if omega <= 2:
        raise InputError("omega must exceed 2")
    beta = (omega + 1.0) / (k + 2.0 * omega + 2.0)
    return beta, gamma * (1.0 - beta)


def nesterov_omega_params(k, omega, mu=1.0):
    """Omega-family corrected-scheme parameters.

    theta = (k+1)/(k+2w+2), nu = (k+w+2)/(k+2w+2), t = (k+2w+1)/w, with
    mu fixed to 1. omega > 2 gives the full guarantees; smaller omega is
    accepted (the rules stay well defined) but offers none.
    """
    if omega < 1:
        raise InputError("omega must be at least 1")
    t = (k + 2.0 * omega + 1.0) / omega
    theta = (k + 1.0) / (k + 2.0 * omega + 2.0)
    nu = (k + omega + 2.0) / (k + 2.0 * omega + 2.0)
    return theta, nu, t


def eag_schedule(k, L, mode="constant", eta=None, eta0=None, eta_prev=None):
    """Extra-anchored stepsize rules.

    constant: eta = eta_hat in (0, 1/(8L)].
    varying: eta_0 in (0, 1/L) and
        eta_{k+1} = (1 - L^2 eta_k^2 / ((1 - L^2 eta_k^2)(k+1)(k+3))) eta_k,
    where ``eta_prev`` is eta_{k-1} for k >= 1.
    """
    beta = 1.0 / (k + 2)
    if mode == "constant":
        if eta is None or not 0.0 < eta <= 1.0 / (8.0 * L):
            raise InputError("constant mode needs eta in (0, 1/(8L)]")
        return beta, eta, eta
    if mode == "varying":
        if eta0 is None or not 0.0 < eta0 < 1.0 / L:
            raise InputError("varying mode needs eta0 in (0, 1/L)")
        if k == 0:
            return beta, eta0, eta0
        if eta_prev is None:
            raise InputError("varying mode needs eta_prev for k >= 1")
        j = k - 1  # recursion index producing eta_k from eta_{k-1}
        le2 = (L * eta_prev) ** 2
        eta_k = (1.0 - le2 / ((1.0 - le2) * (j + 1) * (j + 3))) * eta_prev
        return beta, eta_k, eta_k
    raise InputError(f"unknown mode {mode!r}")


def nag_eag_schedule(k, L):
    """Corrected extra-anchored parameters with closed-form coefficients.

    gamma = eta_hat = 1/L, eta = (k+1)/(L(k+2)), theta = k/(k+2),
    nu = (k+1)/(k+2), t = k+1, and the potential coefficients
    b_k = k(k+1)/L, a_k = k(k+2)/(2 L^2) (the b_1 = 2/L normalization).
    """
    if k < 0:
        raise InputError("k must be nonnegative")
    gamma = 1.0 / L
    eta_hat = 1.0 / L
    eta = (k + 1.0) / (L * (k + 2.0))
    theta = k / (k + 2.0)
    nu = (k + 1.0) / (k + 2.0)
    t = k + 1.0
    b = k * (k + 1.0) / L
    a = k * (k + 2.0) / (2.0 * L * L)
    return gamma, eta, eta_hat, theta, nu, t, a, b


def comono_schedule(k, L, rho):
    """Anchored extra-gradient rule for rho-co-monotone operators.

    beta = 1/(k+1) (so beta_0 = 1), eta = 1/L, and the convex-combination
    weight tau = eta / (eta + 2 rho) = 1/(1 + 2 rho L). Admissible range:
    -1/(2L) < rho <= 1/L.
    """
    if rho is None or not -1.0 / (2.0 * L) < rho <= 1.0 / L:
        raise InputError("rho must lie in (-1/(2L), 1/L]")
    beta = 1.0 / (k + 1)
    eta = 1.0 / L
    tau = eta / (eta + 2.0 * rho)
    return beta, eta, tau


def nag_comono_transform(k, L, rho):
    """Corrected-scheme coefficients matching :func:`comono_schedule`.

    With beta_k = 1/(k+1): theta_k = (k-1)/(k+1) and nu_k = k/(k+1) for
    k >= 1; at k = 0 only nu - theta matters (the histories coincide)
    and we use theta_0 = 0, nu_0 = 1.
    """
    beta, eta, tau = comono_schedule(k, L, rho)
    if k == 0:
        return beta, eta, tau, 0.0, 1.0
    theta = (k - 1.0) / (k + 1.0)
    nu = k / (k + 1.0)
    return beta, eta, tau, theta, nu


def peag_schedule(k, L, sigma=1.0, mode="two_step", eta0=None, eta_prev=None):
    """Past-extra-anchored stepsizes.

    two_step: with M = L^2 (1 + sigma), eta = (1 - beta)/sqrt(2M) and
    eta_hat = 1/sqrt(2M). legacy: the single-stepsize recursion
        eta_{k+1} = (1 - beta_k^2 - 2 L^2 eta_k^2) beta_{k+1} eta_k
                    / ((1 - 2 L^2 eta_k^2)(1 - beta_k) beta_k)
    with eta_0 in (0, 1/(2L)) and eta_hat = eta.
    """
    beta = 1.0 / (k + 2)
    if mode == "two_step":
        if sigma <= 0:
            raise InputError("sigma must be positive")
        root = math.sqrt(2.0 * L * L * (1.0 + sigma))
        return beta, (1.0 - beta) / root, 1.0 / root
    if mode == "legacy":
        if eta0 is None or not 0.0 < eta0 < 1.0 / (2.0 * L):
            raise InputError("legacy mode needs eta0 in (0, 1/(2L))")
        if k == 0:
            return beta, eta0, eta0
        if eta_prev is None:
            raise InputError("legacy mode needs eta_prev for k >= 1")
        j = k - 1
        bj = 1.0 / (j + 2)
        bj1 = 1.0 / (j + 3)
        le2 = 2.0 * (L * eta_prev) ** 2
        eta_k = (1.0 - bj * bj - le2) * bj1 * eta_prev / ((1.0 - le2) * (1.0 - bj) * bj)
        return beta, eta_k, eta_k
    raise InputError(f"unknown mode {mode!r}")


def nag_peag_schedule(k, L, sigma=1.0):
    """Three-correction scheme coefficients for the past-extra variant.

    Closed forms (independent of sigma): gamma_hat = 2/sqrt(2M),
    theta = k/(k+2), nu = (k+1)/(k+2), kappa = k/(2(k+2)), and
    zeta = (k-1)/(2(k+2)) for k >= 1, zero otherwise. With sigma = 1
    gamma_hat reduces to 1/L.
    """
    if k < 0:
        raise InputError("k must be nonnegative")
    root = math.sqrt(2.0 * L * L * (1.0 + sigma))
    gamma_hat = 2.0 / root
    theta = k / (k + 2.0)
    nu = (k + 1.0) / (k + 2.0)
    kappa = k / (2.0 * (k + 2.0))
    zeta = (k - 1.0) / (2.0 * (k + 2.0)) if k >= 1 else 0.0
    return gamma_hat, theta, nu, kappa, zeta


def transformed_nesterov_stream(beta_eta_fn, gamma_fn, L):
    """Two-correction parameters reproducing an anchored rule's y-iterates.

    ``beta_eta_fn(k) -> (beta, eta)`` and ``gamma_fn(k) -> gamma`` define
    the anchored rule and the corrected stepsizes. For k >= 1:

        theta_k = beta_k (1 - beta_{k-1}) / beta_{k-1}
        nu_k    = beta_k / beta_{k-1} + 1 - beta_k - eta_k / gamma_k
        kappa_k = (beta_k / beta_{k-1}) (eta_{k-1} / gamma_{k-1} - 1 + beta_{k-1})

    and the index-0 convention from the module docstring applies. The
    step k-1 values are carried forward, not recomputed. A beta_k outside
    (0, 1) or a nonpositive or NaN gamma_k raises :class:`InputError` when
    that step is drawn.
    """
    prev = None
    for k in itertools.count():
        beta, et = beta_eta_fn(k)
        g = gamma_fn(k)
        if not 0.0 < beta < 1.0:
            raise InputError(f"beta_{k} must lie in (0, 1)")
        if not g > 0.0:
            raise InputError(f"gamma_{k} must be positive")
        if prev is None:
            th, nuv, kap = 0.0, 1.0 - et / g, 0.0
        else:
            bp, ep, gp = prev
            th = beta * (1.0 - bp) / bp
            nuv = beta / bp + 1.0 - beta - et / g
            kap = (beta / bp) * (ep / gp - 1.0 + bp)
        prev = beta, et, g
        yield ScheduleParams(k=k, beta=beta, eta=et, gamma=g, theta=th,
                             nu=nuv, kappa=kap, L=L)


def _recursion_stream(rule, L):
    """Stream of a stepsize recursion ``rule(k, eta_{k-1}) -> (beta, eta, eta_hat)``."""
    eta = None
    for k in itertools.count():
        beta, eta, eta_hat = rule(k, eta)
        yield ScheduleParams(k=k, beta=beta, eta=eta, eta_hat=eta_hat, L=L)


def _closed_form_rule(kind, L, gamma, omega, mu, sigma, rho, eta):
    """The map k -> :class:`ScheduleParams` of a rule that is closed form in k."""
    if kind in ("halpern_fast", "halpern_slow"):
        variant = kind.split("_")[1]

        def rule(k):
            beta, et = halpern_params(k, L, variant)
            return ScheduleParams(k=k, beta=beta, eta=et, L=L)
    elif kind == "halpern_omega":
        g = 0.9 / L if gamma is None else gamma

        def rule(k):
            beta, et = halpern_omega_params(k, L, g, omega)
            return ScheduleParams(k=k, beta=beta, eta=et, gamma=g, L=L)
    elif kind == "nesterov_omega":
        g = 0.9 / L if gamma is None else gamma
        if not g > 0.0:
            raise InputError("gamma must be positive")

        def rule(k):
            th, nuv, _ = nesterov_omega_params(k, omega, mu)
            return ScheduleParams(k=k, gamma=g, theta=th, nu=nuv, kappa=0.0,
                                  L=L)
    elif kind == "eag_constant":
        e = 1.0 / (8.0 * L) if eta is None else eta

        def rule(k):
            beta, et, eh = eag_schedule(k, L, "constant", eta=e)
            return ScheduleParams(k=k, beta=beta, eta=et, eta_hat=eh, L=L)
    elif kind == "comono_eag":
        def rule(k):
            beta, et, _ = comono_schedule(k, L, rho)
            return ScheduleParams(k=k, beta=beta, eta=et, rho=rho, L=L)
    elif kind == "nag_comono":
        def rule(k):
            beta, et, _, th, nuv = nag_comono_transform(k, L, rho)
            return ScheduleParams(k=k, beta=beta, eta=et, rho=rho, theta=th,
                                  nu=nuv, L=L)
    elif kind == "nag_eag":
        def rule(k):
            g, et, eh, th, nuv = nag_eag_schedule(k, L)[:5]
            return ScheduleParams(k=k, beta=1.0 / (k + 2), gamma=g, eta=et,
                                  eta_hat=eh, theta=th, nu=nuv, L=L)
    elif kind == "peag":
        def rule(k):
            beta, et, eh = peag_schedule(k, L, sigma=sigma, mode="two_step")
            return ScheduleParams(k=k, beta=beta, eta=et, eta_hat=eh, L=L)
    else:  # nag_peag
        def rule(k):
            gh, th, nuv, kap, zet = nag_peag_schedule(k, L, sigma=sigma)
            beta, et, eh = peag_schedule(k, L, sigma=sigma, mode="two_step")
            return ScheduleParams(k=k, beta=beta, eta=et, eta_hat=eh,
                                  gamma_hat=gh, theta=th, nu=nuv, kappa=kap,
                                  zeta=zet, L=L)
    return rule


def schedule_stream(kind, L, gamma=None, omega=3.0, mu=1.0, sigma=1.0,
                    rho=None, eta=None, eta0=None):
    """Iterator of :class:`ScheduleParams` for k = 0, 1, 2, ... of a named rule.

    Defaults follow the package conventions: omega = 3, sigma = 1,
    gamma = 0.9/L for the interior rules and 1/L for the classic ones.
    The rule is chosen here, once; each ``next`` evaluates only that rule.
    """
    if kind not in SCHEDULE_KINDS:
        raise InputError(f"unknown schedule kind {kind!r}")
    if L is None or L <= 0:
        raise InputError("schedules need L > 0")
    if kind in ("nesterov_slow", "nesterov_fast"):
        variant = kind.split("_")[1]
        g = 1.0 / L if gamma is None else gamma
        return transformed_nesterov_stream(
            lambda k: halpern_params(k, L, variant), lambda k: g, L)
    if kind == "eag_varying":
        return _recursion_stream(
            lambda k, prev: eag_schedule(k, L, "varying", eta0=eta0,
                                         eta_prev=prev), L)
    if kind == "peag_legacy":
        return _recursion_stream(
            lambda k, prev: peag_schedule(k, L, mode="legacy", eta0=eta0,
                                          eta_prev=prev), L)
    return map(_closed_form_rule(kind, L, gamma, omega, mu, sigma, rho, eta),
               itertools.count())
