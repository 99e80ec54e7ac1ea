"""Green function, capacity, hitting and occupation bounds.

Capacity, hitting and occupation bounds are bound *shapes* in closed form,
set by the volume profile V and the walk scale phi with constants 1 ("unit"
mode): shapes, orderings and scalings hold, absolute levels do not.  The
Green function integrates the two-sided envelope over time and scales it
by the declared comparability constants ("derived" mode), or the exact
density (quadrature mode), by one fixed Gauss-Legendre rule.

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
from .kernels import TRANSIENT, KernelModel, density, envelope_density
from .scaling import inverse

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
#: wide, up to t_big = _GREEN_REACH * max(phi(2d), 1)
_GREEN_KNOTS = np.array([-35.0, -6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0])
_GREEN_STEP = 2.0
_GREEN_REACH = 1e9


def _finite_integrand(p, model: KernelModel, t: np.ndarray, d: float) -> np.ndarray:
    """p(model, t, d), where no value passes the float range; else a
    PreconditionError naming d.  An overflow or invalid value is looked at
    again with numpy's warnings muted: one that leaves a value non-finite is
    raised, one that does not is evaluated as before, with its warning."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return p(model, t, d)
    except FloatingPointError:
        with np.errstate(over="ignore", invalid="ignore"):  # raised below, or shown again
            finite = np.isfinite(p(model, t, d)).all()
    if not finite:
        raise PreconditionError(f"green function at d={d:g}: the integrand passes the float range")
    return p(model, t, d)


def green_function(model: KernelModel, d: float, mode: str = ENVELOPE):
    """Time-integrated transition density at distance d.

    Both modes integrate p(t, d) over t by one composite 16-point
    Gauss-Legendre rule in log t (one array call), from phi(d) e^-35 to
    t_big, and add the tail t_big p(t_big, 0) / (d1/d4 - 1) of the
    on-diagonal decay beyond it.  ENVELOPE mode takes p = envelope_density
    and returns a BoundPair, the integral times the declared comparability
    constants; QUADRATURE mode (exact-law models) takes p = density and
    returns the value.  Requires a transient model, a finite t_big, phi(d)
    e^-35 above 0 and a finite integrand; a tiny d loses the last two, as p's
    on-diagonal factor overflows at the rule's smallest t.
    """
    if not d > 0:  # false for NaN too
        raise PreconditionError("distance must be positive")
    _require_transient(model)
    p = {ENVELOPE: envelope_density, QUADRATURE: density}.get(mode)
    if p is None:
        raise ValueError(f"unknown mode {mode!r}")
    if p is density and not model.has_density:
        raise UnsupportedRegimeError("quadrature mode needs an exact law")
    t_big = _GREEN_REACH * max(model.phi(2.0 * d), 1.0)
    if not t_big < math.inf:  # true for d = inf too
        raise PreconditionError(f"green function at d={d:g}: t_big = {_GREEN_REACH:g} phi(2d) is not finite")
    phi_d = model.phi(d)
    if not phi_d * math.exp(_GREEN_KNOTS[0]) > 0:  # where the rule starts
        raise PreconditionError(f"green function at d={d:g}: phi(d) e^{_GREEN_KNOTS[0]:g} underflows to 0")
    knots = np.append(math.log(phi_d) + _GREEN_KNOTS, math.log(t_big))
    u, weight = _gauss_legendre(_piece_ends(knots, _GREEN_STEP), 16)
    t = np.exp(u)
    body = float((weight * t) @ _finite_integrand(p, model, t, d))
    value = body + t_big * p(model, t_big, 0.0) / (model.d1 / model.d4 - 1.0)
    if mode == QUADRATURE:
        return value
    return BoundPair(model.c_lo * value, model.c_hi * value, "green-envelope", DERIVED)


# ---------------------------------------------------------------------------
# capacity and hitting
# ---------------------------------------------------------------------------


def capacity_bound(model: KernelModel, r: float) -> BoundPair:
    """Two-sided capacity bound c * V(r)/phi(r) for the closed ball B(x0, r).

    The headline guarantee is the lower member; the matching upper member
    carries the same shape with its own constant.
    """
    if not r > 0:  # false for NaN too
        raise PreconditionError("radius must be positive")
    _require_transient(model)
    shape = model.V(r) / model.phi(r)
    return BoundPair(shape, shape, "capacity", UNIT)


def hit_ball_from_distance(model: KernelModel, r: float, D: float) -> BoundPair:
    """Probability of ever entering B(x0, r) from a start at distance D >= r.

    lower ~ (V(r)/phi(r)) * phi(D+r)/V(D+r),
    upper ~ (V(r)/phi(r)) * phi(D-r)/V(D-r); at D = r the upper argument is
    clamped to the walk scale's domain floor (the lower side already uses
    the 2r argument).
    """
    if not r > 0:  # false for NaN too
        raise PreconditionError("radius must be positive")
    if not D >= r:
        raise PreconditionError("start distance must satisfy D >= r")
    _require_transient(model)
    cap_shape = model.V(r) / model.phi(r)
    far = D + r
    near = max(D - r, model.phi.domain_floor)
    lower = cap_shape * model.phi(far) / model.V(far)
    upper = cap_shape * model.phi(near) / model.V(near)
    return BoundPair(lower, upper, "hit-ball", UNIT)


def q_bound(model: KernelModel, r: float, t: float, side: str) -> float:
    """Bound on P(the process visits B(x0, r) at some time after t).

    Valid for t >= phi(r) and start points within distance r of the center;
    also covers the closed-time variant (visits at some time >= t).  Values
    are clamped to [0, 1].  With unit constants both sides are the shape.
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
    shape = (model.V(r) / model.phi(r)) * t / model.V(inverse(model.phi, t))
    return min(max(shape, 0.0), 1.0)


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
