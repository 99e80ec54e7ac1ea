"""Kernel models: transition-density envelopes, exact laws, and tail bounds.

A KernelModel packages the comparability class of a symmetric transition
density p(t, x, y) together with an optional exact law.  Three envelope
forms are supported:

    stable-like      p ~ t^(-a/b) AND t / d^(a+b)            (jump kernels)
    sub-gaussian     p ~ t^(-a/b) exp(-c0 (d/t^(1/b))^(b/(b-1)))
    two-sided-jump   p ~ 1/V(phi^-1(t)) AND t/(V(d) phi(d))  (general V, phi)

The exact law, when a model has one, is one law object (GaussianLaw,
CauchyLaw or StableLaw) with the same four methods: density(t, d),
cdf(t, r), sf(t, r) and increments(dts, rng).  The public functions
density, radial_cdf and radial_sf check their preconditions and then hand
over to it; simulate.sample_increments draws from it.

Convention fixed across the package: the isotropic alpha-stable law has
characteristic function exp(-t |xi|^alpha).  Hence alpha = 2 is Gaussian
with per-coordinate variance 2t and heat kernel
(4 pi t)^(-d/2) exp(-|x-y|^2 / (4t)); alpha = 1 in one dimension is the
Cauchy law with density t / (pi (x^2 + t^2)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np
from scipy import integrate, special, stats

from .errors import PreconditionError, UnsupportedModelError
from .integral_tests import CONVERGENT, DIVERGENT, Verdict, classify_tail_integral
from .scaling import (
    DECREASING,
    INCREASING,
    UPPER_DECAY,
    Envelope,
    ScalingFunction,
    check_h_conditions,
    exp_decay,
    from_id as scaling_from_id,
    inverse,
    power,
)

STABLE_LIKE = "stable-like"
SUB_GAUSSIAN = "sub-gaussian"
TWO_SIDED_JUMP = "two-sided-jump"

TRANSIENT = "transient"
RECURRENT = "recurrent"
INCONCLUSIVE_CLASS = "inconclusive"

#: Lebesgue measure of the unit ball, used to convert between mu(B(x, r))
#: and the volume profile V(r) = r^dim for the Euclidean presets.
_UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


@dataclass(frozen=True)
class KernelModel:
    """Immutable heat-kernel specification.

    ``c_lo``/``c_hi`` are the declared comparability constants bracketing
    density/envelope; ``with_comparability`` returns a copy with others.
    ``exact_law`` is the model's law object, or None for an envelope-only
    model; ``dim`` and ``alpha`` are read from it.
    """

    model_id: str
    form: str
    V: ScalingFunction
    phi: ScalingFunction
    exact_law: Optional[GaussianLaw | CauchyLaw | StableLaw] = None
    c0: Optional[float] = None     # sub-gaussian decay constant
    c_lo: float = 0.01
    c_hi: float = 100.0
    mu_ball: float = 1.0           # mu(B(x,1)) / V(1)

    # -- envelope exponents (from the verified scaling envelopes) ------

    @property
    def d1(self) -> float:
        return self.V.envelope.d_lo

    @property
    def d2(self) -> float:
        return self.V.envelope.d_hi

    @property
    def d3(self) -> float:
        return self.phi.envelope.d_lo

    @property
    def d4(self) -> float:
        return self.phi.envelope.d_hi

    @property
    def dim(self) -> Optional[int]:
        return None if self.exact_law is None else self.exact_law.dim

    @property
    def alpha(self) -> Optional[float]:
        """Stable index of the exact law."""
        return None if self.exact_law is None else self.exact_law.alpha

    @property
    def has_density(self) -> bool:
        return self.exact_law is not None and self.exact_law.dim <= 3

    @cached_property
    def long_run(self) -> str:
        """TRANSIENT, RECURRENT or INCONCLUSIVE_CLASS, classified once per model."""
        return classify_long_run(self)[0]

    def with_comparability(self, c_lo: float, c_hi: float) -> "KernelModel":
        return replace(self, c_lo=c_lo, c_hi=c_hi)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _stable_like(dv: float, dw: float, **kw) -> KernelModel:
    return KernelModel(
        form=STABLE_LIKE, V=power(dv), phi=power(dw), **kw
    )


def from_id(spec: str) -> KernelModel:
    """Model presets by string id.

    Grammar:
        cauchy1d                  1-d Cauchy law (stable-like dv=1, dw=1)
        gaussian:DIM              Brownian law (sub-gaussian dv=DIM, dw=2, c0=1/4)
        stable:ALPHA,DIM          isotropic stable law (stable-like dv=DIM, dw=ALPHA)
        stablelike:DV,DW          envelope only
        subgaussian:DV,DW,C0      envelope only
        jump:V_ID,PHI_ID          two-sided-jump envelope from scaling presets
    """
    head, _, tail = spec.partition(":")
    head = head.strip().lower()
    if head == "cauchy1d":
        return _stable_like(
            1.0, 1.0, model_id="cauchy1d", exact_law=CauchyLaw(),
            c_lo=1.0 / (2.0 * math.pi), c_hi=1.0 / math.pi,
            mu_ball=_UNIT_BALL_VOLUME[1],
        )
    if head == "gaussian":
        dim = int(float(tail))
        if dim not in (1, 2, 3):
            raise UnsupportedModelError("gaussian presets support dim 1..3")
        c = (4.0 * math.pi) ** (-dim / 2.0)
        return KernelModel(
            model_id=f"gaussian:{dim}", form=SUB_GAUSSIAN, V=power(float(dim)),
            phi=power(2.0), exact_law=GaussianLaw(dim), c0=0.25, c_lo=c, c_hi=c,
            mu_ball=_UNIT_BALL_VOLUME[dim],
        )
    if head == "stable":
        a_s, d_s = tail.split(",")
        alpha, dim = float(a_s), int(float(d_s))
        if not 0 < alpha < 2:
            raise UnsupportedModelError("stable presets need 0 < alpha < 2")
        if dim < 1:
            raise UnsupportedModelError("stable presets need dim >= 1")
        return _stable_like(
            float(dim), alpha, model_id=f"stable:{alpha:g},{dim}",
            exact_law=StableLaw(alpha, dim), mu_ball=_UNIT_BALL_VOLUME.get(dim, 1.0),
        )
    if head == "stablelike":
        dv_s, dw_s = tail.split(",")
        dv, dw = float(dv_s), float(dw_s)
        return _stable_like(dv, dw, model_id=f"stablelike:{dv:g},{dw:g}")
    if head == "subgaussian":
        dv_s, dw_s, c0_s = tail.split(",")
        dv, dw, c0 = float(dv_s), float(dw_s), float(c0_s)
        if dw <= 1:
            raise UnsupportedModelError("sub-gaussian form needs dw > 1")
        return KernelModel(
            model_id=f"subgaussian:{dv:g},{dw:g},{c0:g}", form=SUB_GAUSSIAN,
            V=power(dv), phi=power(dw), c0=c0,
        )
    if head == "jump":
        # the two function ids may themselves contain commas
        v_id, _, phi_id = tail.partition(";")
        if not phi_id:
            raise ValueError("jump preset syntax is jump:V_ID;PHI_ID")
        V = scaling_from_id(v_id.strip())
        phi = scaling_from_id(phi_id.strip())
        if V.monotonicity != INCREASING or phi.monotonicity != INCREASING:
            raise PreconditionError("jump models need increasing V and phi")
        return KernelModel(
            model_id=f"jump:{v_id.strip()};{phi_id.strip()}",
            form=TWO_SIDED_JUMP, V=V, phi=phi,
        )
    raise ValueError(f"unknown kernel preset {spec!r}")


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def envelope_density(model: KernelModel, t: float, d: float) -> float:
    """Comparison-class representative of p(t, x, y) at distance d.

    Constants are folded to one; the true density sits inside
    [c_lo, c_hi] times this value.  d = 0 returns the on-diagonal branch.
    """
    if t <= 0:
        raise PreconditionError("t must be positive")
    if d < 0:
        raise PreconditionError("distance must be nonnegative")
    if model.form == STABLE_LIKE:
        a, b = model.V.envelope.d_lo, model.phi.envelope.d_lo
        on_diag = t ** (-a / b)
        if d == 0.0:
            return on_diag
        return min(on_diag, t * d ** -(a + b))
    if model.form == SUB_GAUSSIAN:
        a, b = model.V.envelope.d_lo, model.phi.envelope.d_lo
        on_diag = t ** (-a / b)
        if d == 0.0:
            return on_diag
        x = -model.c0 * (d / t ** (1.0 / b)) ** (b / (b - 1.0))
        return on_diag * (math.exp(x) if x > -745.0 else 0.0)
    # two-sided-jump
    on_diag = 1.0 / model.V(inverse(model.phi, t))
    if d == 0.0:
        return on_diag
    return min(on_diag, t / (model.V(d) * model.phi(d)))


def tail_profile(model: KernelModel) -> tuple[ScalingFunction, ScalingFunction]:
    """(h, rho) such that p(t,x,y) <~ h(d/rho(t)) / V(d) off-diagonal."""
    b = model.phi.envelope.d_lo
    rho = power(1.0 / b)
    if model.form == STABLE_LIKE:
        return power(-b), rho
    if model.form == SUB_GAUSSIAN:
        return exp_decay(model.c0, b / (b - 1.0)), rho
    raise UnsupportedModelError(
        "two-sided-jump models have no factored (h, rho) tail profile"
    )


# ---------------------------------------------------------------------------
# exact laws
# ---------------------------------------------------------------------------


def _law(model: KernelModel):
    """The model's law object, if it has a density to evaluate."""
    if not model.has_density:
        raise UnsupportedModelError(
            f"{model.model_id} has no exact law with a density (dim 1..3)"
        )
    return model.exact_law


def density(model: KernelModel, t: float, d: float) -> float:
    """Exact transition density at time t and distance d."""
    if t <= 0:
        raise PreconditionError("t must be positive")
    return _law(model).density(t, d)


def radial_cdf(model: KernelModel, t: float, r: float) -> float:
    """P(d(X_t, x) <= r) under the exact law."""
    if r < 0:
        raise PreconditionError("radius must be nonnegative")
    if r == 0.0:
        return 0.0
    return _law(model).cdf(t, r)


def radial_sf(model: KernelModel, t: float, r: float) -> float:
    """P(d(X_t, x) > r); complementary to radial_cdf, accurate at large r."""
    if r < 0:
        raise PreconditionError("radius must be nonnegative")
    if r == 0.0:
        return 1.0
    return _law(model).sf(t, r)


@dataclass(frozen=True)
class GaussianLaw:
    """Brownian motion with per-coordinate variance 2t (alpha = 2)."""

    dim: int
    alpha = 2.0

    def density(self, t: float, d: float) -> float:
        return (4.0 * math.pi * t) ** (-self.dim / 2.0) * math.exp(-d * d / (4.0 * t))

    def cdf(self, t: float, r: float) -> float:
        return float(stats.chi2.cdf(r * r / (2.0 * t), df=self.dim))

    def sf(self, t: float, r: float) -> float:
        return float(stats.chi2.sf(r * r / (2.0 * t), df=self.dim))

    def increments(self, dts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.sqrt(2.0 * dts)[:, None] * rng.standard_normal((dts.shape[0], self.dim))


@dataclass(frozen=True)
class CauchyLaw:
    """The 1-d Cauchy law, density t / (pi (x^2 + t^2)) (alpha = 1)."""

    dim = 1
    alpha = 1.0

    def density(self, t: float, d: float) -> float:
        return t / (math.pi * (d * d + t * t))

    def cdf(self, t: float, r: float) -> float:
        return (2.0 / math.pi) * math.atan(r / t)

    def sf(self, t: float, r: float) -> float:
        return (2.0 / math.pi) * math.atan(t / r)

    def increments(self, dts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return (dts * symmetric_stable(rng, 1.0, dts.shape[0]))[:, None]


@dataclass(frozen=True)
class StableLaw:
    """The isotropic alpha-stable law in dim dimensions, exp(-t |xi|^alpha).

    Within _FOURIER_REACH envelope lengths t^(1/alpha) of the origin the
    density and the ball probability come from Fourier inversion, beyond
    it from the subordination mixture over the (alpha/2)-stable clock.
    """

    alpha: float
    dim: int

    def _far(self, t: float, r: float) -> bool:
        return r > _FOURIER_REACH * t ** (1.0 / self.alpha)

    def density(self, t: float, d: float) -> float:
        if self._far(t, d):
            return _stable_density_subordination(self.alpha, self.dim, t, d)
        return _stable_density_radial(self.alpha, self.dim, t, d)

    def cdf(self, t: float, r: float) -> float:
        if self._far(t, r):
            return 1.0 - _stable_sf_subordination(self.alpha, self.dim, t, r)
        return _stable_ball_radial(self.alpha, self.dim, t, r)

    def sf(self, t: float, r: float) -> float:
        if self._far(t, r):
            return _stable_sf_subordination(self.alpha, self.dim, t, r)
        return 1.0 - _stable_ball_radial(self.alpha, self.dim, t, r)

    def increments(self, dts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        m = dts.shape[0]
        if self.dim == 1:
            return (dts ** (1.0 / self.alpha) * symmetric_stable(rng, self.alpha, m))[:, None]
        s = dts ** (2.0 / self.alpha) * positive_stable(rng, 0.5 * self.alpha, m)
        return np.sqrt(2.0 * s)[:, None] * rng.standard_normal((m, self.dim))


def _quad(f, a, b, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(f, a, b, **kw)
    return val


# -- one-sided stable subordinator density ----------------------------------
#
# S with Laplace transform exp(-lambda^gamma), 0 < gamma < 1.  _log_eta1
# returns log eta over an array of w (Nolan 1997), in two regimes:
#   * w < 4: Kanter's integral over u in (0, pi) on 384 Gauss-Legendre nodes,
#     eta(w) = gamma / (2 (1-gamma) w) sum_j W_j exp(L_j - e^L_j) with
#     L_j = log a(u_j) - gamma/(1-gamma) log w: one (w x 384) matrix product,
#     each row shifted by its largest exponent, so no term overflows and a
#     density below the float range (near alpha = 2 and small w it falls
#     under exp(-9000)) comes out as exp(-huge) = 0;
#   * w >= 4: the convergent tail series
#     eta(w) = sum_k (-1)^(k+1) Gamma(k g + 1)/k! sin(pi k g) w^(-k g - 1) / pi
#     over 21 terms: one (w x 21) matrix product with w^(-1-g) factored out.
# The subordination integrals over v (density and sf) share one fixed
# composite Gauss-Legendre rule in x = log v, 32 nodes per window.  Its
# knots are center + (-40, -6, -3, -1, 1, 3, 6, 40), short windows at the
# peak of the integrand, plus log scale - 1 and log scale, which bracket the
# steep left flank of eta_t (its width in x shrinks like 1 - gamma; without
# these two knots the rule is 2e-3 off at alpha = 1.9 near the switch).
# 32 nodes per window suffice: the density matches the Cauchy closed forms
# (alpha = 1, d = 1..3) to 1e-14, the term-by-term far-tail series
# (alpha = 1.5, 1.9) to 3e-13, and adaptive quadrature of the same integrand
# to 3e-11 up to alpha = 1.8 and 2e-5 at alpha = 1.9 (4e-3 at alpha = 1.95,
# where the flank outruns both rules).  Beyond the last knot the sf takes the
# subordinator's own mass P(S_t > v), the tail series integrated term by
# term: without it the sf was low by about exp(-40 gamma) (6e-5 at
# alpha = 0.5); with it it matches Cauchy to 3e-15 and a rule reaching
# center + 200 to 2e-15 at alpha = 0.5.  The array eta matches the Levy law
# (gamma = 1/2) to 1e-13 on both sides of the switch.

_GL_U, _GL_W = np.polynomial.legendre.leggauss(384)
_ETA_SERIES_FROM = 4.0
_ETA_SERIES_K = np.arange(1.0, 22.0)
_SUB_KNOTS = np.array([-40.0, -6.0, -3.0, -1.0, 1.0, 3.0, 6.0, 40.0])
_SUB_PEAK_KNOTS = np.array([-1.0, 0.0])
_SUB_U, _SUB_U_W = np.polynomial.legendre.leggauss(32)


def _eta_series_coef(gamma: float) -> np.ndarray:
    """c_k of the tail series eta(w) = sum_k c_k w^(-k gamma - 1), k = 1..21."""
    k = _ETA_SERIES_K
    coef = (-1.0) ** (k + 1) * special.gamma(k * gamma + 1.0) / special.gamma(k + 1.0)
    return coef * np.sin(math.pi * k * gamma) / math.pi


def _log_eta1(gamma: float, w: np.ndarray) -> np.ndarray:
    """Log density at each w > 0 of the standard positive gamma-stable law."""
    g1 = 1.0 - gamma
    log_w = np.log(np.asarray(w, dtype=float))
    out = np.empty_like(log_w)
    tail = log_w >= math.log(_ETA_SERIES_FROM)
    k = _ETA_SERIES_K
    lw = log_w[tail]
    out[tail] = -(1.0 + gamma) * lw + np.log(
        np.exp(np.outer(lw, -(k - 1.0) * gamma)) @ _eta_series_coef(gamma)
    )
    u = 0.5 * math.pi * (_GL_U + 1.0)
    log_a = (gamma * np.log(np.sin(gamma * u)) + g1 * np.log(np.sin(g1 * u)) - np.log(np.sin(u))) / g1
    lw = log_w[~tail]
    big_l = log_a - (gamma / g1) * lw[:, None]
    h = big_l - np.exp(np.minimum(big_l, 700.0))
    top = h.max(axis=1)
    out[~tail] = math.log(0.5 * gamma / g1) - lw + top + np.log(np.exp(h - top[:, None]) @ _GL_W)
    return out


# -- exact increment samplers -----------------------------------------------
#
# A law's increments(dts, rng) draws the increment over each step of length
# dt exactly from the law at time dt, so sampled paths carry no
# discretization error in their marginals:
#   * Gaussian: sqrt(2 dt) Z per coordinate (variance-2t convention);
#   * symmetric 1-d alpha-stable: Chambers-Mallows-Stuck transform, scaled
#     by dt^(1/alpha);
#   * isotropic d-dim alpha-stable: a positive (alpha/2)-stable subordinator
#     increment (Kanter representation), then a Gaussian at that random time.


def symmetric_stable(rng: np.random.Generator, alpha: float, size) -> np.ndarray:
    """Standard symmetric alpha-stable draws, char. function exp(-|xi|^alpha).

    Chambers-Mallows-Stuck transform; alpha = 1 reduces to tan(U) (Cauchy)
    and alpha = 2 to a centered normal with variance 2.
    """
    if not 0 < alpha <= 2:
        raise PreconditionError("alpha must lie in (0, 2]")
    u = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size)
    if alpha == 1.0:
        return np.tan(u)
    w = rng.exponential(1.0, size)
    return (
        np.sin(alpha * u)
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    )


def positive_stable(rng: np.random.Generator, gamma: float, size) -> np.ndarray:
    """One-sided gamma-stable draws with Laplace transform exp(-lambda^gamma).

    Kanter representation; non-finite transforms (underflow at the interval
    endpoints) are redrawn, in index order, so only the indices still to
    draw are tracked and a batch without a bad draw takes one pass.
    """
    if not 0 < gamma < 1:
        raise PreconditionError("gamma must lie in (0, 1)")
    g1 = 1.0 - gamma

    def draw(n):
        u = rng.uniform(0.0, math.pi, n)
        w = rng.exponential(1.0, n)
        with np.errstate(all="ignore"):
            a = (np.sin(gamma * u) / np.sin(u) ** (1.0 / gamma)) * (
                np.sin(g1 * u) / w
            ) ** (g1 / gamma)
        return a, np.isfinite(a) & (a > 0)

    flat, good = draw(math.prod(np.atleast_1d(size)))
    todo = np.flatnonzero(~good)
    while todo.size:
        a, good = draw(todo.size)
        flat[todo[good]] = a[good]
        todo = todo[~good]
    return flat.reshape(size)


def _subordination_rule(alpha: float, dim: int, t: float, r: float):
    """Nodes v of the log-v rule, weights W_i eta_t(v_i) v_i (dv = v dx), and
    log w = log(v / t^(1/gamma)) at the rule's upper end (at least 40)."""
    gamma = 0.5 * alpha
    log_scale = math.log(t) / gamma
    center = max(math.log(r * r / (2.0 * dim)), log_scale)
    knots = np.sort(np.concatenate([center + _SUB_KNOTS, log_scale + _SUB_PEAK_KNOTS]))
    half = 0.5 * np.diff(knots)[:, None]
    x = (knots[:-1, None] + half * (_SUB_U + 1.0)).ravel()
    weights = (half * _SUB_U_W).ravel()
    eta_v = np.exp(_log_eta1(gamma, np.exp(x - log_scale)) + x - log_scale)
    return np.exp(x), weights * eta_v, knots[-1] - log_scale


def _stable_density_subordination(alpha: float, dim: int, t: float, r: float) -> float:
    """p_t(r) = int (4 pi v)^(-d/2) exp(-r^2/4v) eta_t(v) dv (far-tail safe)."""
    v, w, _ = _subordination_rule(alpha, dim, t, r)
    return float(w @ np.exp(-0.5 * dim * np.log(4.0 * math.pi * v) - r * r / (4.0 * v)))


def _stable_sf_subordination(alpha: float, dim: int, t: float, r: float) -> float:
    """P(|X_t| > r) through the subordination mixture (positive integrand).

    Beyond the rule's end chdtrc(dim, r^2 / 2v) is 1 to within e^(-20 dim),
    so that part of the mixture is the subordinator's own survival
    P(S_1 > w) = sum_k c_k w^(-k gamma) / (k gamma), the tail series of eta
    integrated term by term.
    """
    v, w, log_w_end = _subordination_rule(alpha, dim, t, r)
    k_gamma = _ETA_SERIES_K * (0.5 * alpha)
    beyond = float(np.exp(-k_gamma * log_w_end) @ (_eta_series_coef(0.5 * alpha) / k_gamma))
    return min(max(float(w @ special.chdtrc(dim, r * r / (2.0 * v))) + beyond, 0.0), 1.0)


#: beyond this many envelope lengths the Fourier inversion cancels badly
#: and the subordination route takes over
_FOURIER_REACH = 3.0


def _stable_density_radial(alpha: float, dim: int, t: float, r: float) -> float:
    """Fourier inversion of exp(-t s^alpha), radial part, dim 1..3."""
    decay = lambda s: math.exp(-t * s**alpha)
    if r == 0.0:
        # closed forms of int s^(dim-1) e^(-t s^alpha) ds
        g = special.gamma(dim / alpha) / (alpha * t ** (dim / alpha))
        if dim == 1:
            return g / math.pi
        if dim == 2:
            return g / (2.0 * math.pi)
        return g / (2.0 * math.pi**2)
    if dim == 1:
        val = _quad(decay, 0, np.inf, weight="cos", wvar=r, limit=400)
        return val / math.pi
    if dim == 2:
        f = lambda s: s * special.j0(r * s) * decay(s)
        s_max = (745.0 / t) ** (1.0 / alpha)
        return _quad(f, 0, s_max, limit=2000) / (2.0 * math.pi)
    f3 = lambda s: s * decay(s)
    val = _quad(f3, 0, np.inf, weight="sin", wvar=r, limit=400)
    return val / (2.0 * math.pi**2 * r)


def _stable_ball_radial(alpha: float, dim: int, t: float, r: float) -> float:
    """P(|X_t| <= r) by Fourier inversion of the ball indicator."""
    decay = lambda s: math.exp(-t * s**alpha)
    s0 = min(1.0, 1.0 / r)  # keep the unweighted head free of oscillation
    if dim == 1:
        # (2/pi) int sin(rs)/s e^(-t s^alpha) ds
        head = _quad(lambda s: math.sin(r * s) / s * decay(s) if s > 0 else r, 0, s0)
        tail = _quad(lambda s: decay(s) / s, s0, np.inf, weight="sin", wvar=r, limit=400)
        return min(max((head + tail) * 2.0 / math.pi, 0.0), 1.0)
    if dim == 2:
        # r int J1(rs) e^(-t s^alpha) ds
        s_max = (745.0 / t) ** (1.0 / alpha)
        val = r * _quad(lambda s: special.j1(r * s) * decay(s), 0, s_max, limit=2000)
        return min(max(val, 0.0), 1.0)
    # (2/pi) int (sin(rs) - rs cos(rs)) / s e^(-t s^alpha) ds
    head = _quad(
        lambda s: (math.sin(r * s) - r * s * math.cos(r * s)) / s * decay(s)
        if s > 0
        else 0.0,
        0,
        s0,
    )
    tail_sin = _quad(lambda s: decay(s) / s, s0, np.inf, weight="sin", wvar=r, limit=400)
    tail_cos = _quad(decay, s0, np.inf, weight="cos", wvar=r, limit=400)
    val = (head + tail_sin - r * tail_cos) * 2.0 / math.pi
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# probability operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailEstimate:
    estimate: float
    upper_bound: float
    c1: float


def tail_constant(model: KernelModel) -> float:
    """Tail-bound constant from the annulus summation.

    Summing the off-diagonal envelope over annuli theta^k r <= d < theta^(k+1) r
    gives P(d(X_t, x) >= r) <= c1 h(r / rho(t)) with

        c1 = max(1/h(1),  C_hi * mu_ball * sup_r V(theta r)/V(r) / (1 - c0))

    where (theta, c0) witness the geometric decay of h.
    """
    h, _rho = tail_profile(model)
    rep = check_h_conditions(h, UPPER_DECAY, grid=np.geomspace(1.0 + 1e-9, 1e4, 64))
    if not rep.ok:
        raise UnsupportedModelError(f"{model.model_id}: no geometric tail decay found")
    theta, c0 = rep.theta, rep.c0
    grid = model.V.grid()
    c_v = max(model.V(theta * r) / model.V(r) for r in grid)
    return max(1.0 / h(1.0), model.c_hi * model.mu_ball * c_v / (1.0 - c0))


def tail_probability(
    model: KernelModel, t: float, r: float, c1: Optional[float] = None
) -> TailEstimate:
    """Exceedance probability P(d(X_t, x) >= r) with its theoretical bound.

    The estimate comes from the exact law when the model has one, otherwise
    from the midpoint of the envelope annulus integral.  The bound holds for
    t >= 1 (the large-time envelope regime).
    """
    if t < 1.0:
        raise PreconditionError("the tail bound is asserted for t >= 1")
    if r < 0:
        raise PreconditionError("radius must be nonnegative")
    h, rho = tail_profile(model)
    if c1 is None:
        c1 = tail_constant(model)
    if r == 0.0:
        return TailEstimate(estimate=1.0, upper_bound=math.inf, c1=c1)
    bound = c1 * h(r / rho(t))
    if model.has_density:
        est = radial_sf(model, t, r)
    else:
        est = _envelope_tail_midpoint(model, t, r)
    return TailEstimate(estimate=est, upper_bound=bound, c1=c1)


def _envelope_tail_midpoint(model: KernelModel, t: float, r: float) -> float:
    """Midpoint of the envelope bracket for the tail mass beyond r."""

    def integrand(s: float) -> float:
        # d(mu)(s) ~ mu_ball * dV(s); integrate in log s
        dv = model.V.envelope.d_hi
        return envelope_density(model, t, s) * model.mu_ball * dv * model.V(s)

    lo = math.log(r)
    hi = math.log(max(10.0 * r, 10.0 * inverse(model.phi, t))) + 40.0
    val = _quad(lambda u: integrand(math.exp(u)), lo, hi, limit=400)
    mid = 0.5 * (model.c_lo + model.c_hi) * val
    return min(max(mid, 0.0), 1.0)


@dataclass(frozen=True)
class BallProbability:
    probability: Optional[float]
    envelope: float


def ball_probability(model: KernelModel, t: float, r: float) -> BallProbability:
    """P(d(X_t, x) <= r) and its envelope 1 AND V(r)/V(phi^-1(t))."""
    if t <= 0 or r <= 0:
        raise PreconditionError("t and r must be positive")
    env = min(1.0, model.V(r) / model.V(inverse(model.phi, t)))
    prob = radial_cdf(model, t, r) if model.has_density else None
    return BallProbability(probability=prob, envelope=env)


def classify_long_run(model: KernelModel) -> tuple[str, Verdict]:
    """Transience/recurrence from the on-diagonal decay integral.

    Convergence of int dt / V(phi^-1(t)) certifies transience (the
    sup-density criterion); divergence certifies recurrence for the whole
    comparability class.  The classifier may abstain.  The integrand goes
    through log V, so it underflows towards 0 where V itself would overflow.
    """

    def f(t: float) -> float:
        return math.exp(-model.V.log_value(inverse(model.phi, t)))

    verdict = classify_tail_integral(f, 16.0)
    if verdict.label == CONVERGENT:
        return TRANSIENT, verdict
    if verdict.label == DIVERGENT:
        return RECURRENT, verdict
    return INCONCLUSIVE_CLASS, verdict


@dataclass(frozen=True)
class CompHeatReport:
    ratio: float
    k_bound: float

    @property
    def ok(self) -> bool:
        return (1.0 - 1e-9) / self.k_bound <= self.ratio <= self.k_bound * (1.0 + 1e-9)


def comp_heat_bound(model: KernelModel) -> float:
    """Uniform contract constant K for polynomial-envelope models.

    Valid for stable-like and two-sided-jump forms, where doubling the
    off-diagonal distance moves the envelope by at most a constant; the
    sub-gaussian envelope has no uniform constant (its comparison contract
    depends on the configuration, see comp_heat_check).
    """
    if model.form == SUB_GAUSSIAN:
        raise UnsupportedModelError(
            "sub-gaussian envelopes admit no uniform comparison constant"
        )
    env_v, env_p = model.V.envelope, model.phi.envelope
    move = env_v.c_hi * 2.0**env_v.d_hi * env_p.c_hi * 2.0**env_p.d_hi
    return (model.c_hi / model.c_lo) * move


def comp_heat_check(model: KernelModel, t: float, x, y, z) -> CompHeatReport:
    """Ratio p(t,x,z) / p(t,y,z) for nearby x, y.

    Requires d(x, y) <= phi^-1(t).  For polynomial envelopes (stable-like,
    two-sided-jump) the contract constant is uniform in the configuration;
    for sub-gaussian envelopes it carries the exponential displacement
    factor exp(c0 |w_x^gamma - w_y^gamma|), w_p = d(p, z)/t^(1/b).
    """
    if not model.has_density:
        raise UnsupportedModelError("comp-heat check needs an exact law")
    x, y, z = (np.atleast_1d(np.asarray(p, dtype=float)) for p in (x, y, z))
    dxy = float(np.linalg.norm(x - y))
    thr = inverse(model.phi, t)
    if dxy > thr:
        raise PreconditionError(
            f"d(x,y)={dxy:g} exceeds phi^-1(t)={thr:g}; no comparison contract"
        )
    dxz = float(np.linalg.norm(x - z))
    dyz = float(np.linalg.norm(y - z))
    num = density(model, t, dxz)
    den = density(model, t, dyz)
    if model.form == SUB_GAUSSIAN:
        b = model.phi.envelope.d_lo
        gamma = b / (b - 1.0)
        wx = dxz / t ** (1.0 / b)
        wy = dyz / t ** (1.0 / b)
        k = (model.c_hi / model.c_lo) * math.exp(
            model.c0 * abs(wx**gamma - wy**gamma)
        )
    else:
        k = comp_heat_bound(model)
    return CompHeatReport(ratio=num / den, k_bound=k)


def comparability_sweep(
    model: KernelModel,
    t_grid=None,
    n_dist: int = 24,
    d_max_factor: float = 10.0,
) -> tuple[float, float]:
    """Measure density/envelope bounds over a (t, d) grid.

    Returns (min_ratio, max_ratio); these are the calibrated (C_lo, C_hi)
    for exact-law presets.
    """
    if not model.has_density:
        raise UnsupportedModelError("comparability sweep needs an exact law")
    if t_grid is None:
        t_grid = np.geomspace(1.0, 1e3, 7)
    lo, hi = math.inf, -math.inf
    for t in t_grid:
        reach = d_max_factor * inverse(model.phi, float(t))
        for d in np.concatenate([[0.0], np.geomspace(1e-3 * reach, reach, n_dist)]):
            ratio = density(model, float(t), float(d)) / envelope_density(
                model, float(t), float(d)
            )
            lo, hi = min(lo, ratio), max(hi, ratio)
    return lo, hi
