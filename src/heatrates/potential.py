"""Green function, capacity, hitting and occupation bounds in closed form.

Every operation evaluates a bound *shape* determined by the volume profile
V and the walk scale phi, with its constants set to 1 ("unit" mode), which
preserves all shapes, orderings and scalings but not absolute levels.  The
Green function envelope is the exception: it integrates the two-sided
envelope exactly and scales it by the model's declared comparability
constants ("derived" mode).

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
from .kernels import TRANSIENT, KernelModel, density
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

    @property
    def center(self) -> float:
        return math.sqrt(self.lower * self.upper) if self.lower > 0 else 0.5 * self.upper

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= value <= self.upper + slack


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

#: QUADRATURE mode's rule in log t: Gauss-Legendre pieces at most this wide
_GREEN_STEP = 2.0
_GREEN_U, _GREEN_W = np.polynomial.legendre.leggauss(16)


def _envelope_time_integral(model: KernelModel, d: float) -> float:
    """Exact time integral of the two-sided envelope at distance d.

    int_0^phi(d) t/(V(d) phi(d)) dt + int_phi(d)^inf dt/V(phi^-1(t));
    the tail is integrated numerically and extended by its power-law decay.
    """
    t_star = model.phi(d)
    head = t_star / (2.0 * model.V(d))
    ratio = model.d1 / model.d4
    t_big = t_star * 1e9

    from scipy import integrate as _integrate

    body, _ = _integrate.quad(
        lambda u: math.exp(u) / model.V(inverse(model.phi, math.exp(u))),
        math.log(t_star),
        math.log(t_big),
        limit=200,
    )
    tail = t_big / (model.V(inverse(model.phi, t_big)) * (ratio - 1.0))
    return head + body + tail


def green_function(model: KernelModel, d: float, mode: str = ENVELOPE):
    """Time-integrated transition density at distance d.

    ENVELOPE mode returns a BoundPair, the exact time integral of the
    two-sided envelope times the declared comparability constants;
    QUADRATURE mode (exact-law models) integrates the density by one fixed
    composite Gauss-Legendre rule in log t (one array density call), with
    the tail beyond 1e4 * phi(2d) supplied by on-diagonal power decay.
    Requires a transient model.
    """
    if d <= 0:
        raise PreconditionError("distance must be positive")
    _require_transient(model)
    if mode == ENVELOPE:
        a_val = _envelope_time_integral(model, d)
        return BoundPair(
            lower=model.c_lo * a_val,
            upper=model.c_hi * a_val,
            formula_id="green-envelope",
            constants_source=DERIVED,
        )
    if mode == QUADRATURE:
        if not model.has_density:
            raise UnsupportedRegimeError("quadrature mode needs an exact law")
        t_big = 1e4 * max(model.phi(2.0 * d), 1.0)
        center = math.log(model.phi(d))
        knots = [center + o for o in (-35.0, -6.0, -3.0, -1.0, 1.0, 3.0, 6.0)]
        knots = np.array([k for k in knots if k < math.log(t_big)] + [math.log(t_big)])
        # each knot interval cut into pieces at most _GREEN_STEP wide
        pieces = np.ceil(np.diff(knots) / _GREEN_STEP).astype(int)
        ends = np.concatenate(
            [np.linspace(a, b, n, endpoint=False) for a, b, n in zip(knots, knots[1:], pieces)]
            + [knots[-1:]]
        )
        half = 0.5 * np.diff(ends)[:, None]
        u = (ends[:-1, None] + half * (_GREEN_U + 1.0)).ravel()
        t = np.exp(u)
        body = float(((half * _GREEN_W).ravel() * t) @ density(model, t, d))
        # on-diagonal tail: density(t, d) ~ density(t, 0) = psi0 t^(-dim/alpha)
        p = model.dim / model.alpha
        psi0 = density(model, 1.0, 0.0)
        tail = psi0 * t_big ** (1.0 - p) / (p - 1.0)
        return body + tail
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# capacity and hitting
# ---------------------------------------------------------------------------


def capacity_bound(model: KernelModel, r: float) -> BoundPair:
    """Two-sided capacity bound c * V(r)/phi(r) for the closed ball B(x0, r).

    The headline guarantee is the lower member; the matching upper member
    carries the same shape with its own constant.
    """
    if r <= 0:
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
    if r <= 0:
        raise PreconditionError("radius must be positive")
    if D < r:
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
    if r <= 0:
        raise PreconditionError("radius must be positive")
    if t < model.phi(r) * (1 - 1e-12):
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
    if r <= 0:
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
