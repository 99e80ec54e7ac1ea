"""Green function, capacity, hitting and occupation bounds.

Capacity, hitting and occupation bounds are bound *shapes* in closed form,
set by the volume profile V and the walk scale phi with constants 1 ("unit"
mode): shapes, orderings and scalings hold, absolute levels do not.  The
Green function integrates the two-sided envelope over time and scales it
by the declared comparability constants ("derived" mode), or the exact
density (quadrature mode), by one fixed Gauss-Legendre rule in log t.
Every value is a log-sum-exp or a sum of ell_V(s) = log V(e^s) and ell_phi
terms, exponentiated once: one that is not a positive float raises
PreconditionError naming its arguments.

Transient-case shapes (volume exponent strictly above the walk exponent):

    green function      u(d)        ~ phi(d) / V(d)
    ball capacity       Cap(B_r)    >~ V(r) / phi(r)
    hit ball ever       P(hit B(x0,r) from distance D)
                                    ~ (V(r)/phi(r)) * phi(D +- r)/V(D +- r)
    late visit          Q(x, r, t)  ~ (V(r)/phi(r)) * t / V(phi^-1(t))

Critical-case (all four exponents equal) occupation sandwich for the
probability of approaching the start point within r during (a, b].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, UnsupportedRegimeError
from .integral_tests import _gauss_legendre, _piece_ends
from .kernels import TRANSIENT, KernelModel, _log_envelope, density
from .scaling import _S_HI, _S_LO, log_inverse

UNIT = "unit"
DERIVED = "derived"


@dataclass(frozen=True)
class BoundPair:
    lower: float
    upper: float
    formula_id: str
    constants_source: str

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise PreconditionError(f"{self.formula_id}: non-finite bound")
        if self.lower < 0 or self.lower > self.upper * (1 + 1e-12):
            raise PreconditionError(
                f"{self.formula_id}: bounds out of order ({self.lower}, {self.upper})"
            )

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def _require_transient(model: KernelModel) -> None:
    if model.long_run != TRANSIENT:
        raise DomainError(
            f"{model.model_id} is {model.long_run}: Green function infinite"
        )


# ---------------------------------------------------------------------------
# green function
# ---------------------------------------------------------------------------

ENVELOPE = "envelope"
QUADRATURE = "quadrature"

#: the time integral's rule in log t: knots at log phi(d) plus these offsets
#: (at 0 the envelope's min(.,.) has its kink), pieces at most _GREEN_STEP
#: wide, up to log t_big = _LOG_GREEN_REACH + max(log phi(2d), 0)
_GREEN_KNOTS = np.array([-35.0, -6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0])
_GREEN_STEP = 2.0
_LOG_GREEN_REACH = math.log(1e9)


def _exp(log_value: float, what: str, **args: float) -> float:
    """exp(log_value), a positive float; else a PreconditionError naming what and its args."""
    if not _S_LO <= log_value <= _S_HI:  # false for NaN too
        named = ", ".join(f"{name}={x:g}" for name, x in args.items())
        raise PreconditionError(f"{what} at {named}: e^{log_value:.6g} is not a positive float")
    return math.exp(log_value)


def green_function(model: KernelModel, d: float, mode: str = ENVELOPE):
    """Time-integrated transition density at distance d.

    Both modes integrate p(t, d) over t by one composite 16-point
    Gauss-Legendre rule in u = log t, from phi(d) e^-35 to t_big, and add
    the tail t_big p(t_big, 0) / (d1/d4 - 1) of the on-diagonal decay beyond
    it, all in logs: log G is the log-sum-exp of log weight + u + log p and
    of the tail's log.  ENVELOPE mode takes the envelope's log p and returns
    a BoundPair, G times the declared comparability constants; QUADRATURE
    mode (exact-law models) takes log density(e^u, d) and returns G.
    Requires a transient model and 0 < d < inf; raises PreconditionError
    naming d where G is not a positive float, or where a node e^u or the
    density leaves the float range (QUADRATURE mode).
    """
    if not 0 < d < math.inf:  # false for NaN too
        raise PreconditionError(f"green function at d={d:g}: the distance must be positive and finite")
    _require_transient(model)
    if mode not in (ENVELOPE, QUADRATURE):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == QUADRATURE and not model.has_density:
        raise UnsupportedRegimeError("quadrature mode needs an exact law")
    log_d = math.log(d)
    log_t_big = _LOG_GREEN_REACH + max(model.phi.ell(log_d + math.log(2.0)), 0.0)
    knots = np.append(model.phi.ell(log_d) + _GREEN_KNOTS, log_t_big)
    u, weight = _gauss_legendre(_piece_ends(knots, _GREEN_STEP), 16)
    if mode == ENVELOPE:
        log_p, log_p_big = _log_envelope(model, u, log_d), _log_envelope(model, log_t_big, -math.inf)
    else:
        try:
            with np.errstate(over="raise", under="raise"):
                t, t_big = np.exp(u), np.exp(log_t_big)
            with np.errstate(over="raise", invalid="raise", divide="ignore"):  # log 0 = -inf is a term 0
                log_p, log_p_big = np.log(density(model, t, d)), np.log(density(model, t_big, 0.0))
        except FloatingPointError:
            raise PreconditionError(f"green function at d={d:g}: the integrand passes the float range") from None
    terms = np.append(np.log(weight) + u + log_p, log_t_big + log_p_big - math.log(model.d1 / model.d4 - 1.0))
    top = terms.max()
    value = _exp(top + math.log(np.exp(terms - top).sum()), "green function", d=d)
    if mode == QUADRATURE:
        return value
    return BoundPair(model.c_lo * value, model.c_hi * value, "green-envelope", DERIVED)


# ---------------------------------------------------------------------------
# capacity and hitting
# ---------------------------------------------------------------------------


def _log_cap_shape(model: KernelModel, log_r: float) -> float:
    """log V(r)/phi(r) = ell_V(log r) - ell_phi(log r)."""
    return model.V.ell(log_r) - model.phi.ell(log_r)


def capacity_bound(model: KernelModel, r: float) -> BoundPair:
    """Two-sided capacity bound c * V(r)/phi(r) for the closed ball B(x0, r).

    The headline guarantee is the lower member; the matching upper member
    carries the same shape with its own constant.
    """
    if not r > 0:  # false for NaN too
        raise PreconditionError("radius must be positive")
    _require_transient(model)
    shape = _exp(_log_cap_shape(model, math.log(r)), "capacity", r=r)
    return BoundPair(shape, shape, "capacity", UNIT)


def hit_ball_from_distance(model: KernelModel, r: float, D: float) -> BoundPair:
    """Probability of ever entering B(x0, r) from a start at distance D >= r.

    lower ~ (V(r)/phi(r)) * phi(D+r)/V(D+r),
    upper ~ (V(r)/phi(r)) * phi(D-r)/V(D-r); r must be at least the walk
    scale's domain floor, and a D - r below it (D = r, say) is raised to it
    for the upper argument (the lower side already uses D + r >= 2r).
    """
    floor = model.phi.domain_floor
    if not r >= floor:  # false for NaN too
        raise PreconditionError(f"hit-ball needs r >= phi's domain floor {floor:g}, got r = {r:g}")
    if not D >= r:
        raise PreconditionError("start distance must satisfy D >= r")
    _require_transient(model)
    log_cap = _log_cap_shape(model, math.log(r))
    near = max(D - r, floor)
    lower = _exp(log_cap - _log_cap_shape(model, math.log(D + r)), "hit-ball", r=r, D=D)
    upper = _exp(log_cap - _log_cap_shape(model, math.log(near)), "hit-ball", r=r, D=D)
    return BoundPair(lower, upper, "hit-ball", UNIT)


def q_bound(model: KernelModel, r: float, t: float, side: str) -> float:
    """Bound on P(the process visits B(x0, r) at some time after t).

    Valid for t >= phi(r) and start points within distance r of the center;
    also covers the closed-time variant (visits at some time >= t).  Values
    are clamped to 1 from above.  With unit constants both sides are the
    shape.
    """
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    if not r > 0:  # false for NaN too
        raise PreconditionError("radius must be positive")
    if not t >= model.phi(r) * (1 - 1e-12):
        raise PreconditionError(
            f"q bound needs t >= phi(r) = {model.phi(r):g}, got t = {t:g}"
        )
    _require_transient(model)
    log_t = math.log(t)
    log_shape = _log_cap_shape(model, math.log(r)) + log_t - model.V.ell(log_inverse(model.phi, log_t))
    return min(_exp(log_shape, "q bound", r=r, t=t), 1.0)


# ---------------------------------------------------------------------------
# critical-case occupation sandwich
# ---------------------------------------------------------------------------


def _require_critical(model: KernelModel) -> None:
    exps = (model.d1, model.d2, model.d3, model.d4)
    if max(exps) - min(exps) > 1e-9:
        raise UnsupportedRegimeError(
            f"occupation sandwich needs d1=d2=d3=d4, got {exps}"
        )


def occupation_sandwich(model: KernelModel, r: float, a: float, b: float) -> BoundPair:
    """Bounds on P(d(X_s, x0) <= r for some s in (a, b]) in the critical case.

    Requires phi(r) <= b - a.  Members are raw bound values (an upper
    member above 1 is vacuous but kept, so scalings remain visible).

        lower ~ [(phi(r)-a)_+ + phi(r) log((b-a)/(a v phi(r)))] / den
        upper ~ [(phi(r)-a)_+ + phi(r) log((2b-a)/(a v phi(r)))] / den
        den    = phi(r) (1 + log((b-a)/phi(r)))
    """
    if not (0 < a < b):
        raise PreconditionError("need 0 < a < b")
    if not r > 0:  # false for NaN too
        raise PreconditionError("radius must be positive")
    _require_critical(model)
    pr = model.phi(r)
    if pr > b - a:
        raise UnsupportedRegimeError(
            f"occupation sandwich needs phi(r) <= b - a, got phi(r) = {pr:g}"
        )
    excess = max(pr - a, 0.0)
    floor = max(a, pr)
    den = pr * (1.0 + math.log((b - a) / pr))
    lower = (excess + pr * math.log((b - a) / floor)) / den
    upper = (excess + pr * math.log((2.0 * b - a) / floor)) / den
    return BoundPair(lower, upper, "occupation", UNIT)
