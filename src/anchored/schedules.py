"""Per-iteration parameter rules for every scheme in the package.

Each schedule kind is one row of :data:`SCHEDULES`: its rule, the
keywords the rule reads with their defaults, its closed-form residual
bound and, for a corrected kind, the anchored kind whose iterates it
reproduces. A rule checks the :func:`constants` of its row once,
when :func:`schedule_stream` builds the stream, and then yields
:class:`ScheduleParams` with no further checks.
"""

import math
from inspect import Parameter, Signature, signature
from itertools import accumulate, count
from typing import Callable, NamedTuple, Optional

from .errors import InputError, in_range


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


class Schedule(NamedTuple):
    """Everything :func:`schedule_stream` knows about one schedule kind."""

    rule: Callable  # rule(L, **constants) -> iterator of ScheduleParams
    defaults: dict  # keyword -> its default(L), or None for no default
    bound: Optional[str]  # its diagnostics.BOUNDS kind, if any
    # a corrected kind: the anchored kind whose iterates it reproduces
    corrects: Optional[str] = None

    @property
    def keywords(self):
        return tuple(self.defaults)


def _need(ok, message):  # membership only: a range is in_range's
    if not ok:
        raise InputError(message)


def halpern_params(k, L, variant="fast"):
    """beta = 1/(k+2) and eta = 2(1-beta)/L (fast) or (1-beta)/L (slow).

    With ``k=None`` the result is the map k -> (beta, eta) at ``L``
    instead, the variant checked once, for a stream to call per step.
    """
    _need(variant in ("fast", "slow"), f"unknown variant {variant!r}")
    scale = 2.0 if variant == "fast" else 1.0

    def params(k):
        beta = 1.0 / (k + 2)
        return beta, scale * (1.0 - beta) / L
    return params if k is None else params(k)


def transformed_nesterov_stream(anchored, family="anchored", gamma=None):
    """The corrected (Nesterov-form) parameters of an anchored stream.

    ``anchored`` yields an anchored rule's :class:`ScheduleParams`; each is
    yielded again with its corrected fields. Before the start beta_{-1} =
    1 and every other value is 0. Every family shares theta_k = beta_k
    (1 - beta_{k-1}) / beta_{k-1} and nu_k = beta_k / beta_{k-1} (so
    theta_0 = 0, nu_0 = beta_0), and adds the corrections of its step:

    * "anchored": nu_k += 1 - beta_k - eta_k / gamma_k and kappa_k =
      (beta_k / beta_{k-1}) (eta_{k-1} / gamma_{k-1} - 1 + beta_{k-1});
    * "extra-gradient": none, the stream's gamma, eta, eta_hat are the
      step's; a co-monotone one (rho set) has gamma = eta + 2 rho, eta_hat
      = eta, and (1 - beta) eta, the weight of G(y_k), for eta;
    * "past-extra": gamma_hat_k = eta_hat_{k-1} + eta_k / (1 - beta_k),
      kappa_k = (1 - beta_k) eta_{k-1} / gamma_hat_{k-1} and zeta_k =
      theta_k eta_{k-2} / gamma_hat_{k-2}.

    The past-extra fields come from ``peag``'s y_k = z_k - eta_hat_{k-1}
    G z_k + eta_{k-1} G z_{k-1} (y_0 = z_0). Put in z_{k+1} = beta_k y0 +
    (1 - beta_k) y_k - eta_k G z_k, with xhat_{k+1} = z_k - gamma_hat_k
    G z_k and G z_{k-1} = (z_{k-1} - xhat_k) / gamma_hat_{k-1}, it gives

        z_{k+1} = beta_k y0 + (1 - beta_k) xhat_{k+1}
                  + kappa_k (z_{k-1} - xhat_k).

    Eliminating beta_k y0 with beta_k / beta_{k-1} times this relation
    one index back gives ``nag_peag_step``'s z update, at every k = 0, 1,
    ... and for any varying (eta, eta_hat). Step k-1 values are carried
    as the ratios eta / gamma and eta / gamma_hat; none is range checked.
    A given ``gamma`` is the anchored family's gamma_k at every k.
    """
    _need(family in ("anchored", "extra-gradient", "past-extra"),
          f"unknown transform family {family!r}")
    b1 = 1.0  # beta_{k-1}
    eh1 = 0.0  # eta_hat_{k-1}
    r1 = r2 = 0.0  # eta / gamma (or gamma_hat) at k-1, at k-2
    # one positional build per step: every corrected run's hot loop reads it
    for k, beta, eta, eta_hat, g, gamma_hat, _, _, kappa, zeta, rho \
            in anchored:
        theta = beta * (1.0 - b1) / b1
        nu = beta / b1
        if family == "anchored":
            g = g if gamma is None else gamma
            yield ScheduleParams(k, beta, eta, eta_hat, g, gamma_hat,
                                 theta, nu + 1.0 - beta - eta / g,
                                 nu * (r1 - 1.0 + b1), zeta, rho)
            r1 = eta / g
        elif family == "extra-gradient":
            if rho is not None:
                eta, eta_hat, g = (1.0 - beta) * eta, eta, eta + 2.0 * rho
            yield ScheduleParams(k, beta, eta, eta_hat, g, gamma_hat,
                                 theta, nu, kappa, zeta, rho)
        else:
            gh = eh1 + eta / (1.0 - beta)
            yield ScheduleParams(k, beta, eta, eta_hat, g, gh, theta, nu,
                                 (1.0 - beta) * r1, theta * r2, rho)
            eh1, r1, r2 = eta_hat, eta / gh, r1
        b1 = beta


def _betas(shift):
    """(k, 1/(k + shift)) for k = 0, 1, 2, ..."""
    return ((k, 1.0 / (k + shift)) for k in count())


def _anchored(variant):
    """halpern_fast/slow by :func:`halpern_params`."""
    def rule(L):
        params = halpern_params(None, L, variant)
        return (ScheduleParams(k, *params(k)) for k in count())
    return rule


def _corrected(anchored, family):
    """The rule of every corrected row: the ``family`` transform of the
    stream of ``anchored``, the rule of the steps the row ``corrects``.

    It reads the keywords of ``anchored`` and, in the anchored family,
    the corrected step's own gamma, any positive finite value.
    """
    def rule(L, gamma=None, **keywords):
        if gamma is not None:
            in_range("gamma", gamma, 0.0, math.inf)
        return transformed_nesterov_stream(anchored(L, **keywords), family,
                                           gamma)

    # the signature names the keywords read, as rows declare them
    reads = list(signature(anchored).parameters.values())
    if family == "anchored":
        reads.append(Parameter("gamma", Parameter.KEYWORD_ONLY))
    rule.__signature__ = Signature(reads)
    return rule


def _halpern_omega(L, gamma, omega):
    """beta = (w+1)/(k+2w+2), eta = gamma (1-beta); gamma < 1/L, omega > 2."""
    in_range("gamma", gamma, 0.0, 1.0 / L)
    in_range("omega", omega, 2.0, math.inf)
    betas = ((omega + 1.0) / (k + 2.0 * omega + 2.0) for k in count())
    return (ScheduleParams(k, b, gamma * (1.0 - b), gamma=gamma)
            for k, b in enumerate(betas))


def _nesterov_omega(L, gamma, omega):
    """Omega family theta = (k+1)/(k+2w+2), nu = (k+w+2)/(k+2w+2), kappa = 0.

    The potential is ``diagnostics.omega_family_coeffs`` with mu = 1.
    omega > 2 gives the full guarantees; omega >= 1 keeps the rule well
    defined but offers none.
    """
    in_range("gamma", gamma, 0.0, math.inf)
    in_range("omega", omega, 1.0, math.inf, "[)")

    def params(k):
        d = k + 2.0 * omega + 2.0
        return ScheduleParams(k, gamma=gamma, theta=(k + 1.0) / d,
                              nu=(k + omega + 2.0) / d, kappa=0.0)
    return map(params, count())


def _eag_constant(L, eta):
    """Constant EAG step eta = eta_hat in (0, 1/(8L)]."""
    in_range("eta", eta, 0.0, 1.0 / (8.0 * L), "(]")
    return (ScheduleParams(k, b, eta, eta) for k, b in _betas(2))


def _recursion(eta0, update):
    """beta = 1/(k+2) and eta = eta_hat = eta_0, update(eta_0, 1), ..."""
    etas = accumulate(count(1), update, initial=eta0)
    return (ScheduleParams(k, b, e, e) for (k, b), e in zip(_betas(2), etas))


def _eag_varying(L, eta0):
    """Varying EAG step: eta_0 in (0, 1/L) and, with e = L eta_{k-1},

        eta_k = (1 - e^2 / ((1 - e^2) k (k+2))) eta_{k-1}.
    """
    in_range("eta0", eta0, 0.0, 1.0 / L)

    def update(eta, k):
        le2 = (L * eta) ** 2
        return (1.0 - le2 / ((1.0 - le2) * k * (k + 2))) * eta
    return _recursion(eta0, update)


def _peag_legacy(L, eta0):
    """Legacy past-extra step: eta_0 in (0, 1/(2L)) and, with e = L eta_{k-1},

        eta_k = (1 - b^2 - 2 e^2) b' eta_{k-1} / ((1 - 2 e^2)(1 - b) b)

    where b = beta_{k-1} = 1/(k+1) and b' = beta_k = 1/(k+2).
    """
    in_range("eta0", eta0, 0.0, 1.0 / (2.0 * L))

    def update(eta, k):
        b, b1 = 1.0 / (k + 1), 1.0 / (k + 2)
        le2 = 2.0 * (L * eta) ** 2
        return (1.0 - b * b - le2) * b1 * eta / ((1.0 - le2) * (1.0 - b) * b)
    return _recursion(eta0, update)


def _comono_eag(L, rho):
    """Co-monotone EAG: beta = 1/(k+1), eta = 1/L, rho in (-1/(2L), 1/L]."""
    in_range("rho", rho, -1.0 / (2.0 * L), 1.0 / L, "(]")
    return (ScheduleParams(k, b, 1.0 / L, rho=rho) for k, b in _betas(1))


def _nag_eag(L):
    """EAG steps beta = 1/(k+2), eta = (k+1)/(L(k+2)), gamma = eta_hat =
    1/L. Potential: ``diagnostics.eag_family_coeffs``."""
    return (ScheduleParams(k, b, (k + 1.0) / (L * (k + 2.0)), 1.0 / L,
                           gamma=1.0 / L) for k, b in _betas(2))


def peag_root(L, sigma):
    """The past-extra constant sqrt(2M), M = L^2 (1 + sigma)."""
    return math.sqrt(2.0 * L * L * (1.0 + sigma))


def _peag(L, sigma):
    """Past-extra steps eta = (1-beta)/sqrt(2M), eta_hat = 1/sqrt(2M).

    M = L^2 (1 + sigma), for sigma > 0.
    """
    in_range("sigma", sigma, 0.0, math.inf)
    root = peag_root(L, sigma)
    return (ScheduleParams(k, b, (1.0 - b) / root, 1.0 / root)
            for k, b in _betas(2))


_GAMMA = {"gamma": lambda L: 1.0 / L}
_OMEGA = {"gamma": lambda L: 0.9 / L, "omega": lambda L: 3.0}
_SIGMA = {"sigma": lambda L: 1.0}
_ETA = {"eta": lambda L: 1.0 / (8.0 * L)}

#: every named parameter rule, in ``list-schemes`` order. The bound is the
#: closed-form residual bound that fills the ``bound_value`` column; a
#: corrected row's runs reproduce the iterates of the kind it corrects.
SCHEDULES = {
    "halpern_fast": Schedule(_anchored("fast"), {}, "halpern_fast"),
    "halpern_slow": Schedule(_anchored("slow"), {}, "halpern_slow"),
    "halpern_omega": Schedule(_halpern_omega, _OMEGA, None),
    "nesterov_slow": Schedule(_corrected(_anchored("slow"), "anchored"),
                              _GAMMA, "halpern_slow", "halpern_slow"),
    "nesterov_fast": Schedule(_corrected(_anchored("fast"), "anchored"),
                              _GAMMA, "halpern_fast", "halpern_fast"),
    "nesterov_omega": Schedule(_nesterov_omega, _OMEGA, None),
    "eag_constant": Schedule(_eag_constant, _ETA, "eag_constant"),
    "eag_varying": Schedule(_eag_varying, {"eta0": None}, "eag_varying"),
    "comono_eag": Schedule(_comono_eag, {"rho": None}, "comono"),
    "peag": Schedule(_peag, _SIGMA, "peag_probe"),
    "peag_legacy": Schedule(_peag_legacy, {"eta0": None}, None),
    # eag runs this kind too: the transform keeps its beta, eta, eta_hat
    "nag_eag": Schedule(_corrected(_nag_eag, "extra-gradient"), {}, "eag",
                        "nag_eag"),
    "nag_comono": Schedule(_corrected(_comono_eag, "extra-gradient"),
                           {"rho": None}, "comono", "comono_eag"),
    # the peag steps, transformed: theta = k/(k+2), nu = (k+1)/(k+2);
    # gamma_hat = eta_hat at k = 0, then 2 eta_hat; kappa = 0, 1/3, then
    # k/(2(k+2)) from k = 2; zeta = 0, 0, 1/4, then (k-1)/(2(k+2)) from
    # k = 3; each to rounding
    "nag_peag": Schedule(_corrected(_peag, "past-extra"), _SIGMA,
                         "peag_probe", "peag"),
}

SCHEDULE_KINDS = tuple(SCHEDULES)


def constants(kind, L, **keywords):
    """The constants of ``kind`` at ``L``: ``keywords``, else row defaults.

    ``keywords`` may set only the keywords of the row. ``eta0`` and
    ``rho`` have no default and stay None; the rule checks every range.
    """
    _need(kind in SCHEDULES, f"unknown schedule kind {kind!r}")
    in_range("L", L, 0.0, math.inf)
    row = SCHEDULES[kind]
    unread = [key for key in keywords if key not in row.defaults]
    _need(not unread, f"schedule {kind!r} does not read {', '.join(unread)} "
          f"(it reads: {', '.join(row.keywords) or 'no keywords'})")
    return {key: default(L) if keywords.get(key) is None and default
            else keywords.get(key) for key, default in row.defaults.items()}


def schedule_stream(kind, L, **keywords):
    """Iterator of :class:`ScheduleParams` for k = 0, 1, ... of a named rule.

    The rule runs with :func:`constants` and checks every one here, once:
    a NaN or out-of-range value raises :class:`InputError`.
    """
    resolved = constants(kind, L, **keywords)
    return SCHEDULES[kind].rule(L, **resolved)
