"""Kernel models: transition-density envelopes, exact laws, and tail bounds.

A KernelModel packages the comparability class of a symmetric transition
density p(t, x, y) together with an optional exact law.  Three envelope
forms are supported:

    stable-like      p ~ t^(-a/b) AND t / d^(a+b)            (jump kernels)
    sub-gaussian     p ~ t^(-a/b) exp(-c0 (d/t^(1/b))^(b/(b-1)))
    two-sided-jump   p ~ 1/V(phi^-1(t)) AND t/(V(d) phi(d))  (general V, phi)

Each is built in logs (from ell_V and ell_phi) and exponentiated once.
Without an exact law, tail_probability's estimate is None.

The exact law, when a model has one, is one law object (GaussianLaw,
CauchyLaw or StableLaw) with the same four methods: density(t, d),
cdf(t, r), sf(t, r) and increments(dts, rng).  The public functions
density, radial_cdf and radial_sf take numbers or arrays (t and r
broadcast), check their preconditions and then hand over to it;
simulate.sample_increments draws from it.

What depends on a model alone is cached per instance on first use:
KernelModel.long_run, the tail profile (h, rho) and tail constant c1, and
StableLaw.table.  A copy by dataclasses.replace starts without them, and
one by pickle or copy.deepcopy carries them; a derivation that raises is
not cached.  Models are values: one id builds equal models, with equal
hashes, as their V and phi are equal presets.

scipy loads on the first special function a law calls (the chi-square
tails of GaussianLaw, the gamma functions of StableLaw's table), not at
import: the top-level package is bound lazily and every call site reads
scipy.special through it, so not even scipy's own __init__ runs before
then.  Only the laws' density, cdf and sf and StableLaw's table call one:
sampling paths and the whole classifier (the integral tests,
classify_long_run, and powerlog's inverse through scaling's numpy Wright
omega) never load it.

Convention fixed across the package: the isotropic alpha-stable law has
characteristic function exp(-t |xi|^alpha).  Hence alpha = 2 is Gaussian
with per-coordinate variance 2t and heat kernel
(4 pi t)^(-d/2) exp(-|x-y|^2 / (4t)); alpha = 1 in one dimension is the
Cauchy law with density t / (pi (x^2 + t^2)).
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import PreconditionError, UnsupportedModelError
from .integral_tests import CONVERGENT, DIVERGENT, Verdict
from .integral_tests import _LEGENDRE, _T0, _classify_log, _gauss_legendre
from .scaling import (
    INCREASING,
    ScalingFunction,
    check_h_conditions,
    _S_HI,
    _id_float,
    _parse_id,
    exp_decay,
    from_id as scaling_from_id,
    inverse,
    log_inverse,
    power,
)


def _lazy_import(name: str):
    """The module name, loaded on the first lookup of one of its attributes
    (importlib's LazyLoader recipe): no import cost until it is used, and
    then a plain module.  An imported module is returned as it is."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


scipy = _lazy_import("scipy")  # loaded by the first special function called

STABLE_LIKE = "stable-like"
SUB_GAUSSIAN = "sub-gaussian"
TWO_SIDED_JUMP = "two-sided-jump"

TRANSIENT = "transient"
RECURRENT = "recurrent"
INCONCLUSIVE_CLASS = "inconclusive"

#: the points r > 1 at which tail_constant looks for the geometric decay of h
_TAIL_DECAY_GRID = np.geomspace(1.0 + 1e-9, 1e4, 64)
_TAIL_DECAY_GRID.setflags(write=False)


@dataclass(frozen=True)
class KernelModel:
    """Immutable heat-kernel specification.

    ``c_lo``/``c_hi`` are the declared comparability constants bracketing
    density/envelope; ``dataclasses.replace`` gives a copy with others.
    ``exact_law`` is the model's law object, or None for an envelope-only
    model; ``dim``, ``alpha`` and ``mu_ball`` = mu(B(x, 1)) / V(1), the unit
    ball's volume in dim dimensions (1 without a law), are read from it.
    ``long_run``, the tail profile (h, rho) and c1 are cached on first read;
    a copy by ``dataclasses.replace`` starts empty.
    """

    model_id: str
    form: str
    V: ScalingFunction
    phi: ScalingFunction
    exact_law: Optional[GaussianLaw | CauchyLaw | StableLaw] = None
    c0: Optional[float] = None     # sub-gaussian decay constant
    c_lo: float = 0.01
    c_hi: float = 100.0

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
    def mu_ball(self) -> float:
        """mu(B(x, 1)) / V(1), the unit ball's volume w_d in d = dim dimensions:
        w_d = w_(d-2) 2 pi / d from w_0 = 1, w_1 = 2 (2, pi, 4 pi / 3 exactly),
        until w underflows to 0 (from d = 453 on, which from_id refuses)."""
        d = 0 if self.exact_law is None else self.exact_law.dim  # w_0 = 1 without a law
        w, k = (2.0, 3) if d % 2 else (1.0, 2)
        while k <= d and w:
            w, k = w * 2.0 * math.pi / k, k + 2
        return w

    @property
    def has_density(self) -> bool:
        return self.exact_law is not None and self.exact_law.dim <= 3

    @cached_property
    def long_run(self) -> str:
        """TRANSIENT, RECURRENT or INCONCLUSIVE_CLASS, classified once per model."""
        return classify_long_run(self)[0]

    @cached_property
    def _tail_profile(self) -> tuple[ScalingFunction, ScalingFunction]:
        """(h, rho) of tail_profile, from the form and phi's lower exponent."""
        b = self.phi.envelope.d_lo
        rho = power(1.0 / b)
        if self.form == STABLE_LIKE:
            return power(-b), rho
        if self.form == SUB_GAUSSIAN:
            return exp_decay(self.c0, b / (b - 1.0)), rho
        raise UnsupportedModelError("two-sided-jump models have no factored (h, rho) tail profile")

    @cached_property
    def _tail_c1(self) -> float:
        """c1 of tail_constant, from the cached h; V's doubling ratio is
        taken in logs, as V itself underflows on its grid in high dimension."""
        h = self._tail_profile[0]
        rep = check_h_conditions(h, grid=_TAIL_DECAY_GRID)
        if not rep.ok:
            raise UnsupportedModelError(f"{self.model_id}: no geometric tail decay found")
        grid = self.V.grid()
        log_c_v = float(np.max(self.V.log_value(rep.theta * grid) - self.V.log_value(grid)))
        c_v = math.exp(log_c_v) if log_c_v <= _S_HI else math.inf  # past the float range, raised below
        annuli = self.c_hi * self.mu_ball * c_v / (1.0 - rep.c0)
        if not annuli < math.inf:  # true for NaN too
            raise UnsupportedModelError(f"{self.model_id}: the tail constant c1 is not finite")
        return max(1.0 / h(1.0), annuli)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _stable_like(dv: float, dw: float, **kw) -> KernelModel:
    return KernelModel(
        form=STABLE_LIKE, V=power(dv), phi=power(dw), **kw
    )


def _require_positive(head: str, **params: float) -> None:
    """Name the first parameter that is not a finite positive number."""
    for name, value in params.items():
        if not 0 < value < math.inf:  # false for NaN too
            raise UnsupportedModelError(f"{head} presets need finite {name} > 0, got {value:g}")


def _dimension(head: str, dim: float) -> int:
    """The dimension a preset id names: a finite whole number, such as 3 or 3.0."""
    if not dim.is_integer():  # false for NaN and inf too
        raise UnsupportedModelError(f"{head} presets need a whole dimension, got {_id_float(dim)!r}")
    return int(dim)


#: the number of arguments of each id head but jump
_ARITY = {"cauchy1d": 0, "gaussian": 1, "stable": 2, "stablelike": 2, "subgaussian": 3}


def from_id(spec: str) -> KernelModel:
    """Model presets by string id, the ``model_id`` they carry.

    Grammar:
        cauchy1d                  1-d Cauchy law (stable-like dv=1, dw=1)
        gaussian:DIM              Brownian law (sub-gaussian dv=DIM, dw=2, c0=1/4)
        stable:ALPHA,DIM          isotropic stable law (stable-like dv=DIM, dw=ALPHA); DIM >= 4
                                  has no exact density, only envelope-level results, and
                                  DIM > 452 is refused (its unit ball's volume underflows)
        stablelike:DV,DW          envelope only; DV, DW finite and > 0
        subgaussian:DV,DW,C0      envelope only; DV, C0 finite and > 0, DW > 1
        jump:V_ID;PHI_ID          two-sided-jump envelope from scaling presets

    jump splits at ";" into two ``scaling.from_id`` ids; the others are read
    as those are, with the same three ValueErrors naming the id.
    """
    head, _, tail = spec.partition(":")
    if head.strip().lower() == "jump":
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
    head, args = _parse_id(spec, "kernel preset", _ARITY)
    if head == "cauchy1d":
        return _stable_like(
            1.0, 1.0, model_id="cauchy1d", exact_law=CauchyLaw(),
            c_lo=1.0 / (2.0 * math.pi), c_hi=1.0 / math.pi,
        )
    if head == "gaussian":
        dim = _dimension(head, args[0])
        if dim not in (1, 2, 3):
            raise UnsupportedModelError("gaussian presets support dim 1..3")
        c = (4.0 * math.pi) ** (-dim / 2.0)
        return KernelModel(
            model_id=f"gaussian:{dim}", form=SUB_GAUSSIAN, V=power(float(dim)),
            phi=power(2.0), exact_law=GaussianLaw(dim), c0=0.25, c_lo=c, c_hi=c,
        )
    if head == "stable":
        alpha, dim = args[0], _dimension(head, args[1])
        if not 0 < alpha < 2:
            raise UnsupportedModelError("stable presets need 0 < alpha < 2")
        if dim < 1:
            raise UnsupportedModelError("stable presets need dim >= 1")
        model = _stable_like(float(dim), alpha, model_id=f"stable:{_id_float(alpha)},{dim}",
                             exact_law=StableLaw(alpha, dim))
        if not model.mu_ball > 0:  # mu = mu_ball V would vanish
            raise UnsupportedModelError(f"stable presets need DIM <= 452, where the unit ball's volume is a "
                                        f"positive float, got DIM={_id_float(args[1])}")
        return model
    ids = ",".join(map(_id_float, args))
    if head == "stablelike":
        _require_positive(head, DV=args[0], DW=args[1])
        return _stable_like(*args, model_id=f"stablelike:{ids}")
    dv, dw, c0 = args
    _require_positive(head, DV=dv, DW=dw, C0=c0)
    if dw <= 1:
        raise UnsupportedModelError("sub-gaussian form needs DW > 1")
    return KernelModel(model_id=f"subgaussian:{ids}", form=SUB_GAUSSIAN, V=power(dv), phi=power(dw), c0=c0)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def _log_envelope(model: KernelModel, log_t, log_d):
    """log of envelope_density at log t and log d (they broadcast; log d =
    -inf is the diagonal), each form built in logs, so that no factor
    leaves the float range where the envelope does not."""
    a, b = model.V.envelope.d_lo, model.phi.envelope.d_lo
    if model.form == STABLE_LIKE:
        return np.minimum(-(a / b) * log_t, log_t - (a + b) * log_d)
    if model.form == SUB_GAUSSIAN:
        with np.errstate(over="ignore"):  # far off the diagonal the envelope is e^-inf = 0
            return -(a / b) * log_t - model.c0 * np.exp((b / (b - 1.0)) * (log_d - log_t / b))
    # two-sided-jump; V phi only off the diagonal (powerlog's V(0) is undefined)
    log_d = np.asarray(log_d, dtype=float)
    off = log_d > -math.inf
    log_v_phi = np.full(log_d.shape, -math.inf)
    log_v_phi[off] = model.V.ell(log_d[off]) + model.phi.ell(log_d[off])
    return np.minimum(-model.V.ell(log_inverse(model.phi, log_t)), log_t - log_v_phi)


def envelope_density(model: KernelModel, t, d):
    """Comparison-class representative of p(t, x, y) at distance d.

    t and d take numbers or arrays (they broadcast); floats stay floats.
    Constants are folded to one; the true density sits inside
    [c_lo, c_hi] times this value.  d = 0 gives the on-diagonal branch.
    It is the exp of the envelope's log, formed in logs by _log_envelope.
    """
    t, d = np.asarray(t, dtype=float), np.asarray(d, dtype=float)
    if not (t > 0).all():  # false for NaN too
        raise PreconditionError("t must be positive")
    if not (d >= 0).all():
        raise PreconditionError("distance must be nonnegative")
    with np.errstate(divide="ignore"):  # log 0 = -inf on the diagonal
        out = np.exp(_log_envelope(model, np.log(t), np.log(d)))
    return float(out) if out.ndim == 0 else out


def tail_profile(model: KernelModel) -> tuple[ScalingFunction, ScalingFunction]:
    """(h, rho) such that p(t,x,y) <~ h(d/rho(t)) / V(d) off-diagonal, built once per model."""
    return model._tail_profile


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


def _query(model: KernelModel, method: str, t, r, at_zero: Optional[float] = None):
    """One law method over t and r (they broadcast): a float for scalars.

    at_zero, when given, is the exact value at r = 0.
    """
    t, r = np.asarray(t, dtype=float), np.asarray(r, dtype=float)
    if not (t > 0).all():  # false for NaN too
        raise PreconditionError("t must be positive")
    if not (r >= 0).all():
        raise PreconditionError("distance must be nonnegative")
    out = getattr(_law(model), method)(t, r)
    if at_zero is not None and (r == 0.0).any():
        out = np.where(r == 0.0, at_zero, out)
    return float(out) if np.ndim(out) == 0 else out


def density(model: KernelModel, t, d):
    """Exact transition density at time t and distance d (arrays broadcast)."""
    return _query(model, "density", t, d)


def radial_cdf(model: KernelModel, t, r):
    """P(d(X_t, x) <= r) under the exact law (arrays broadcast)."""
    return _query(model, "cdf", t, r, at_zero=0.0)


def radial_sf(model: KernelModel, t, r):
    """P(d(X_t, x) > r); complementary to radial_cdf, accurate at large r."""
    return _query(model, "sf", t, r, at_zero=1.0)


@dataclass(frozen=True)
class GaussianLaw:
    """Brownian motion with per-coordinate variance 2t (alpha = 2)."""

    dim: int
    alpha = 2.0

    def density(self, t, d):
        return (4.0 * math.pi * t) ** (-self.dim / 2.0) * np.exp(-d * d / (4.0 * t))

    def cdf(self, t, r):
        return scipy.special.chdtr(self.dim, r * r / (2.0 * t))

    def sf(self, t, r):
        return scipy.special.chdtrc(self.dim, r * r / (2.0 * t))

    def increments(self, dts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.sqrt(2.0 * dts)[:, None] * rng.standard_normal((dts.shape[0], self.dim))


@dataclass(frozen=True)
class CauchyLaw:
    """The 1-d Cauchy law, density t / (pi (x^2 + t^2)) (alpha = 1)."""

    dim = 1
    alpha = 1.0

    def density(self, t, d):
        return t / (math.pi * (d * d + t * t))

    def cdf(self, t, r):
        return (2.0 / math.pi) * np.arctan2(r, t)

    def sf(self, t, r):
        return (2.0 / math.pi) * np.arctan2(t, r)

    def increments(self, dts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return (dts * symmetric_stable(rng, 1.0, dts.shape[0]))[:, None]


@dataclass(frozen=True)
class StableLaw:
    """The isotropic alpha-stable law in dim dimensions, exp(-t |xi|^alpha).

    Every query goes through one t = 1 subordination table, built on the
    first density, cdf or sf call and kept on this object: by
    self-similarity p_t(r) = t^(-dim/alpha) p_1(rho) and
    F_t(r) = F_1(rho) with rho = r t^(-1/alpha).  Arrays of rho are
    evaluated against it _BLOCK at a time; past the table's end the tail
    series of the subordinator density is integrated in closed form (see
    _MixtureTable).
    """

    alpha: float
    dim: int

    @cached_property
    def table(self) -> "_MixtureTable":
        return _MixtureTable(0.5 * self.alpha, self.dim)

    def _log_q(self, t, r):
        """log(rho^2 / 4); -inf at r = 0."""
        with np.errstate(divide="ignore"):
            return 2.0 * (np.log(r) - np.log(t) / self.alpha) - math.log(4.0)

    def density(self, t, d):
        return t ** (-self.dim / self.alpha) * self.table.density(self._log_q(t, d))

    def cdf(self, t, r):
        return self.table.ball(self._log_q(t, r), upper=False)

    def sf(self, t, r):
        return self.table.ball(self._log_q(t, r), upper=True)

    def increments(self, dts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        m = dts.shape[0]
        if self.dim == 1:
            return (dts ** (1.0 / self.alpha) * symmetric_stable(rng, self.alpha, m))[:, None]
        s = dts ** (2.0 / self.alpha) * positive_stable(rng, 0.5 * self.alpha, m)
        return np.sqrt(2.0 * s)[:, None] * rng.standard_normal((m, self.dim))


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
    if good.all():
        return flat.reshape(size)
    todo = np.flatnonzero(~good)
    while todo.size:
        a, good = draw(todo.size)
        flat[todo[good]] = a[good]
        todo = todo[~good]
    return flat.reshape(size)


# -- the stable law by subordination ------------------------------------------
#
# X_1 = B(S): Brownian motion of variance 2v per coordinate at the time S of
# the gamma-stable subordinator (Laplace transform exp(-lambda^gamma),
# gamma = alpha/2, density eta), so with z = rho^2 / 4v
#     p_1(rho) = int (4 pi v)^(-d/2) e^-z eta(v) dv,
#     P(|X_1| > rho) = int Q(d/2, z) eta(v) dv    (Q: upper incomplete gamma).
#
# _log_eta1 (Nolan 1997): below w = 4, Kanter's integral of exp(L - e^L) over
# u in (0, pi), L = log a(u) - gamma/(1-gamma) log w increasing in u; the
# integrand is above e^-41 of its peak only on a bracket of u that shrinks
# with 1 - gamma, so each w gets 16 windows between fixed levels of L and
# e^L, found from one monotone grid of log a by a few Newton steps, with 16
# nodes each (one fixed 384-node rule over (0, pi) was 6e-4 off in log eta
# at gamma = 0.95 and 18 at 0.995).  From w = 4 on, the 21-term convergent
# tail series eta(w) = sum_k c_k w^(-k gamma - 1).
#
# _MixtureTable: one fixed composite Gauss-Legendre rule in x = log v with
# weights W eta(v) v.  Windows are one unit wide (the flank of e^-z in x is),
# 1/c wide on the steep left flank exp(-C v^-c) of eta, c = gamma/(1-gamma),
# and doubling to the right of its mode; the rule runs from where the flank
# is exp(-1000) to x = 60.  A query sums node by node only the windows where
# some z lies in [1e-3, 100]: below them the kernels are under e^-100, above
# them five terms of their series in z stand in, through sums of the weights
# times v^-n from each window on.  Past x = 60 the tail series of eta is
# integrated against each kernel in closed form (incomplete gamma
# functions): it holds the mass the rule leaves out (2.5e-7 at alpha = 0.5)
# and all of it once rho^2 >> e^60 (Green quadrature reaches rho ~ e^70).
# Measured: Cauchy closed forms to 5e-15 (cdf 2e-13 in 3-d), mass 1 to
# 6e-13 over alpha in [0.1, 1.9999], and within 5e-12 of a 4000-node Kanter
# reference at alpha = 1.9, 1.95 and 1.99.

#: rows of every (rows x nodes) array, in the table build and in queries:
#: 64 rows keep each such array near 1 MB
_BLOCK = 64
_ETA_SERIES_FROM = 4.0
_ETA_SERIES_K = np.arange(1.0, 22.0)
#: Kanter window ends: levels of L left of the peak, of e^L - max(e^L(0), 1)
#: right of it (where exp(L - e^L) is e^-41 of its peak)
_KANTER_LEFT = np.array([-41.0, -30.0, -20.0, -12.0, -7.0, -4.0, -2.0, -1.0, 0.0])
_KANTER_RIGHT = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 45.0])
_KANTER_U, _KANTER_W = _LEGENDRE[16]
_KANTER_NEWTON = 3
#: grid of u for reading the window ends off log a, dense at both ends
_KANTER_GRID = 0.5 * math.pi * (1.0 - np.cos(math.pi * np.linspace(0.0, 1.0, 2049)[1:-1]))
_MIX_POINTS = 24
_MIX_END = 60.0
#: a query sums node by node the windows where z meets [1e-3, 100], and the
#: windows above them by the terms n = 0..4 of each kernel's expansion
_LOG_Z_MAX = math.log(100.0)
_LOG_Z_MIN = math.log(1e-3)
_TAIL_N = np.arange(5.0)
_LOG_END_SMALL = math.log(1e-6)


def _eta_series_coef(gamma: float) -> np.ndarray:
    """c_k of the tail series eta(w) = sum_k c_k w^(-k gamma - 1), k = 1..21."""
    k = _ETA_SERIES_K
    coef = (-1.0) ** (k + 1) * scipy.special.gamma(k * gamma + 1.0) / scipy.special.gamma(k + 1.0)
    return coef * np.sin(math.pi * k * gamma) / math.pi


def _log_kanter_a(gamma: float, u: np.ndarray) -> np.ndarray:
    g1 = 1.0 - gamma
    return (gamma * np.log(np.sin(gamma * u)) + g1 * np.log(np.sin(g1 * u)) - np.log(np.sin(u))) / g1


def _kanter_ends(gamma: float, levels: np.ndarray, grid_u: np.ndarray, grid_l: np.ndarray) -> np.ndarray:
    """u where log a(u) = level: Newton steps from the grid, each kept inside
    the bracket it has narrowed (one grid cell can span hundreds of units of
    L when 1 - gamma is small)."""
    k = np.clip(np.searchsorted(grid_l, levels), 1, grid_l.size - 1)
    lo, hi = grid_u[k - 1], grid_u[k]
    u = np.interp(levels, grid_l, grid_u)
    g1 = 1.0 - gamma
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_KANTER_NEWTON):
            f = _log_kanter_a(gamma, u) - levels
            lo, hi = np.where(f < 0, u, lo), np.where(f < 0, hi, u)
            slope = (gamma * gamma / np.tan(gamma * u) + g1 * g1 / np.tan(g1 * u) - 1.0 / np.tan(u)) / g1
            step = u - f / slope
            u = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
    return np.where(levels > grid_l[0], u, grid_u[0])


def _log_eta1(gamma: float, w: np.ndarray) -> np.ndarray:
    """Log density at each w > 0 of the standard positive gamma-stable law."""
    g1 = 1.0 - gamma
    c = gamma / g1
    log_w = np.log(np.asarray(w, dtype=float))
    out = np.empty_like(log_w)
    tail = log_w >= math.log(_ETA_SERIES_FROM)
    k = _ETA_SERIES_K
    lw = log_w[tail]
    out[tail] = -(1.0 + gamma) * lw + np.log(
        np.exp(np.outer(lw, -(k - 1.0) * gamma)) @ _eta_series_coef(gamma)
    )
    log_a0 = (gamma * math.log(gamma) + g1 * math.log(g1)) / g1  # log a(0+)
    grid_u = np.concatenate([[1e-300], _KANTER_GRID])
    grid_l = np.maximum.accumulate(np.concatenate([[log_a0], _log_kanter_a(gamma, _KANTER_GRID)]))
    head = np.flatnonzero(~tail)
    for i in range(0, head.size, _BLOCK):
        lw = log_w[head[i:i + _BLOCK]]
        shift = c * lw
        zeta0 = np.exp(np.minimum(log_a0 - shift, 700.0))  # e^L at u = 0
        levels = np.hstack([
            np.maximum(_KANTER_LEFT + shift[:, None], log_a0),
            np.log(np.maximum(zeta0, 1.0)[:, None] + _KANTER_RIGHT) + shift[:, None],
        ])
        ends = _kanter_ends(gamma, levels, grid_u, grid_l)
        half = 0.5 * np.diff(ends, axis=1)
        big_l = _log_kanter_a(gamma, ends[:, :-1, None] + half[:, :, None] * (_KANTER_U + 1.0))
        big_l -= shift[:, None, None]
        h = big_l - np.exp(np.minimum(big_l, 700.0))
        top = h.max(axis=(1, 2))
        total = np.einsum("bk,bkn,n->b", half, np.exp(h - top[:, None, None]), _KANTER_W)
        with np.errstate(divide="ignore"):
            out[head[i:i + _BLOCK]] = math.log(gamma / (g1 * math.pi)) - lw + top + np.log(total)
    return out


def _mixture_knots(gamma: float) -> np.ndarray:
    """Window ends in x = log v of the t = 1 mixture rule (see above)."""
    c = gamma / (1.0 - gamma)
    x_mode = math.log(2.0 * (1.0 - gamma) * gamma**c) / c  # mode of v eta(v) on the flank
    step = min(1.0, 1.0 / c)
    left = x_mode - step * np.arange(math.ceil(math.log(2000.0) / (c * step)), 0, -1)
    right = x_mode + step * (2.0 ** np.arange(math.ceil(-math.log2(step)) + 1) - 1.0)
    unit = np.arange(right[-1] + 1.0, _MIX_END, 1.0)
    return np.concatenate([left, right, unit, [_MIX_END]])


def _gamma_q(dim: int, log_z: np.ndarray) -> np.ndarray:
    """Q(dim/2, z) = P(chi2_dim > 2z) from log z, by the recursion
    Q(s + 1, z) = Q(s, z) + z^s e^-z / Gamma(s + 1) from s = 1/2 or 1."""
    z = np.exp(log_z)
    s = 0.5 if dim % 2 else 1.0
    q = scipy.special.erfc(np.sqrt(z)) if dim % 2 else np.exp(-z)
    while s < 0.5 * dim:
        q += np.exp(s * log_z - z - scipy.special.gammaln(s + 1.0))
        s += 1.0
    return q


class _EndSeries:
    """sum_k coef_k Gamma(a_k) P(a_k, z) z^(-p_k), a - p the same for every
    k: the tail series of eta integrated term by term past the rule's end
    against one kernel, at z = rho^2 / 4 e^60, from log z.  Below z = 1e-6
    it is the expansion z^(a-p) (1/a - z/(a+1)), within z^2/2 of it; z^-p
    is taken from log z, so no z overflows."""

    def __init__(self, a: np.ndarray, p: np.ndarray, coef: np.ndarray):
        self.a, self.p, self.coef = a, p, coef
        self.power = a[0] - p[0]
        self.small = (coef @ (1.0 / a), coef @ (1.0 / (a + 1.0)))

    def __call__(self, log_z: np.ndarray) -> np.ndarray:
        small = np.exp(np.minimum(log_z, _LOG_END_SMALL))
        out = self.small[0] - small * self.small[1]
        if self.power:
            out *= small**self.power
        big = log_z >= _LOG_END_SMALL
        if big.any():
            lz = log_z[big, None]
            p_a = scipy.special.gammainc(self.a, np.exp(np.minimum(lz, 700.0)))
            out[big] = (scipy.special.gamma(self.a) * p_a * np.exp(-self.p * lz)) @ self.coef
        return out


def _blockwise(f, log_q: np.ndarray) -> np.ndarray:
    """f over log_q, _BLOCK values at a time in increasing order (so each
    block's slice of windows stays narrow), in log_q's shape."""
    flat = log_q.ravel()
    if 0 < flat.size <= _BLOCK:
        return f(flat).reshape(log_q.shape)
    order = np.argsort(flat)
    out = np.empty_like(flat)
    for i in range(0, flat.size, _BLOCK):
        rows = order[i:i + _BLOCK]
        out[rows] = f(flat[rows])
    return out.reshape(log_q.shape)


def _suffix(per_window: np.ndarray) -> np.ndarray:
    """[..., k] = sum of the windows from k on, summed from the small end; [..., -1] = 0."""
    above = np.cumsum(per_window[..., ::-1], axis=-1)[..., ::-1]
    return np.concatenate([above, np.zeros(above.shape[:-1] + (1,))], axis=-1)


class _MixtureTable:
    """The t = 1 subordination mixture of one stable law (see above).

    density and ball take log(rho^2 / 4) as an array; ball returns
    P(|X_1| > rho) (upper) or P(|X_1| <= rho).
    """

    def __init__(self, gamma: float, dim: int):
        s = 0.5 * dim
        knots = _mixture_knots(gamma)
        x, weight = _gauss_legendre(knots, _MIX_POINTS)
        log_mix = np.log(weight) + _log_eta1(gamma, np.exp(x)) + x
        log_dens = log_mix - s * (x + math.log(4.0 * math.pi))
        mix, dens = np.exp(log_mix), np.exp(log_dens)
        self.dim, self.s = dim, s
        self.knots, self.x, self.mix, self.dens = knots, x, mix, dens
        # above the slice, per window from k on: the terms of
        # exp(-z) = sum_n (-z)^n / n! and of
        # P(s, z) = z^s / Gamma(s) sum_n (-z)^n / (n! (s + n))
        n = _TAIL_N[:, None]
        shape = (n.size, knots.size - 1, _MIX_POINTS)
        self.dens_above = _suffix(np.exp(log_dens - n * x).reshape(shape).sum(axis=2))
        self.ball_above = _suffix(np.exp(log_mix - (s + n) * x).reshape(shape).sum(axis=2))
        self.dens_terms = (-1.0) ** _TAIL_N / scipy.special.gamma(_TAIL_N + 1.0)
        self.ball_terms = self.dens_terms / ((s + _TAIL_N) * scipy.special.gamma(s))
        per_window = mix.reshape(shape[1:]).sum(axis=1)
        self.mass_below = np.insert(np.cumsum(per_window), 0, 0.0)
        self.mass_above = _suffix(per_window)
        # beyond x = 60: eta = sum_k c_k v^(-b-1), b = k gamma, a = b + s
        coef = _eta_series_coef(gamma)
        b = _ETA_SERIES_K * gamma
        a = b + s
        self.end_mass = float(coef @ (np.exp(-b * _MIX_END) / b))
        self.end_dens = _EndSeries(a, a, coef * np.exp(-a * _MIX_END - s * math.log(4.0 * math.pi)))
        self.end_ball = _EndSeries(a, b, coef * np.exp(-b * _MIX_END) / (b * scipy.special.gamma(s)))

    def density(self, log_q: np.ndarray) -> np.ndarray:
        return _blockwise(self._density, log_q)

    def ball(self, log_q: np.ndarray, upper: bool) -> np.ndarray:
        return _blockwise(lambda q: self._ball(q, upper), log_q)

    def _body(self, log_q: np.ndarray):
        """Windows summed node by node for this block: the index of the first
        one above them, the node slice, and log z there (capped at 700, where
        both kernels are 0 already)."""
        i, j = self.knots.searchsorted(np.array([log_q.min() - _LOG_Z_MAX, log_q.max() - _LOG_Z_MIN]))
        lo, hi = max(i - 1, 0), min(j, self.knots.size - 1)
        nodes = slice(lo * _MIX_POINTS, hi * _MIX_POINTS)
        return hi, nodes, np.minimum(np.subtract.outer(log_q, self.x[nodes]), 700.0)

    def _above(self, log_q, hi, power, terms, sums):
        """The windows from hi on, where z <= 1e-3: sum_n q^(power+n) terms_n sums_n."""
        if hi == self.knots.size - 1:
            return 0.0
        return (np.exp(log_q)[:, None] ** (power + _TAIL_N) * terms) @ sums[:, hi]

    def _density(self, log_q):
        hi, nodes, log_z = self._body(log_q)
        body = np.exp(-np.exp(log_z)) @ self.dens[nodes]
        above = self._above(log_q, hi, 0.0, self.dens_terms, self.dens_above)
        return body + above + self.end_dens(log_q - _MIX_END)

    def _ball(self, log_q, upper):
        hi, nodes, log_z = self._body(log_q)
        body = _gamma_q(self.dim, log_z) @ self.mix[nodes]
        p_above = self._above(log_q, hi, self.s, self.ball_terms, self.ball_above)
        swept = self.end_ball(log_q - _MIX_END)
        z_end = np.exp(np.minimum(log_q - _MIX_END, 700.0))
        if upper:
            beyond = scipy.special.gammaincc(self.s, z_end) * self.end_mass + swept
            return body + self.mass_above[hi] - p_above + beyond
        beyond = scipy.special.gammainc(self.s, z_end) * self.end_mass - swept
        return self.mass_below[hi] - body + p_above + beyond


# ---------------------------------------------------------------------------
# probability operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailEstimate:
    estimate: Optional[float]
    upper_bound: float
    c1: float


def tail_constant(model: KernelModel) -> float:
    """Tail-bound constant from the annulus summation.

    Summing the off-diagonal envelope over annuli theta^k r <= d < theta^(k+1) r
    gives P(d(X_t, x) >= r) <= c1 h(r / rho(t)) with

        c1 = max(1/h(1),  C_hi * mu_ball * sup_r V(theta r)/V(r) / (1 - c0))

    where (theta, c0) witness the geometric decay of h (found on
    _TAIL_DECAY_GRID).  Derived once per model from its cached h.
    """
    return model._tail_c1


def tail_probability(model: KernelModel, t: float, r: float) -> TailEstimate:
    """Exceedance probability P(d(X_t, x) >= r) with its theoretical bound.

    The estimate comes from the exact law, and is None for r > 0 without
    one.  The bound holds for t >= 1 (the large-time envelope regime).
    (h, rho) and c1 are the model's cached tail_profile and tail_constant.
    """
    if not t >= 1.0:  # false for NaN too
        raise PreconditionError("the tail bound is asserted for t >= 1")
    if not r >= 0:
        raise PreconditionError("radius must be nonnegative")
    h, rho = model._tail_profile
    c1 = model._tail_c1
    if r == 0.0:
        return TailEstimate(estimate=1.0, upper_bound=math.inf, c1=c1)
    est = radial_sf(model, t, r) if model.has_density else None
    return TailEstimate(estimate=est, upper_bound=c1 * h(r / rho(t)), c1=c1)


@dataclass(frozen=True)
class BallProbability:
    probability: Optional[float]
    envelope: float


def ball_probability(model: KernelModel, t: float, r: float) -> BallProbability:
    """P(d(X_t, x) <= r) and its envelope 1 AND V(r)/V(phi^-1(t)), taken in
    logs as exp(min(ell_V(log r) - ell_V(log phi^-1(t)), 0)), so neither V is
    formed."""
    if not (t > 0 and r > 0):  # false for NaN too
        raise PreconditionError("t and r must be positive")
    env = math.exp(min(model.V.ell(math.log(r)) - model.V.ell(log_inverse(model.phi, math.log(t))), 0.0))
    prob = radial_cdf(model, t, r) if model.has_density else None
    return BallProbability(probability=prob, envelope=env)


def classify_long_run(model: KernelModel) -> tuple[str, Verdict]:
    """Transience/recurrence from the on-diagonal decay integral.

    Convergence of int dt / V(phi^-1(t)) certifies transience (the
    sup-density criterion); divergence certifies recurrence for the whole
    comparability class.  The classifier may abstain.  The integrand goes
    to the classifier as its log, -ell_V(s) with s = log phi^-1(t) from
    phi's log-inverse, so neither phi^-1(t) nor V(phi^-1(t)) is formed: the
    integrand underflows towards 0 where either would overflow.
    """
    verdict = _classify_log(lambda t, log_t: -model.V.ell(log_inverse(model.phi, log_t)), _T0)
    if verdict.label == CONVERGENT:
        return TRANSIENT, verdict
    if verdict.label == DIVERGENT:
        return RECURRENT, verdict
    return INCONCLUSIVE_CLASS, verdict


#: the times of comparability_sweep's grid
_SWEEP_T = tuple(np.geomspace(1.0, 1e3, 7).tolist())


def comparability_sweep(model: KernelModel, n_dist: int = 24) -> tuple[float, float]:
    """Measure density/envelope bounds over a (t, d) grid: at each t of
    _SWEEP_T, n_dist distances up to 10 phi^-1(t), and 0.

    Returns (min_ratio, max_ratio), the range seen on that grid.  It is not
    the sharp (C_lo, C_hi): for a stable law the ratio is one profile in
    z = d t**(-1/alpha), and the grid misses its extremes (on stable:1,3
    its minimum is 21 % above the profile's).
    """
    if not model.has_density:
        raise UnsupportedModelError("comparability sweep needs an exact law")
    lo, hi = math.inf, -math.inf
    for t in _SWEEP_T:
        reach = 10.0 * inverse(model.phi, t)
        dists = np.concatenate([[0.0], np.geomspace(1e-3 * reach, reach, n_dist)])
        ratio = density(model, t, dists) / envelope_density(model, t, dists)
        lo, hi = min(lo, float(ratio.min())), max(hi, float(ratio.max()))
    return lo, hi
