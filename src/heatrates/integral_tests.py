"""Convergence classification of improper integrals on (t0, inf).

The decision engine computes dyadic block integrals

    s_k = integral of f over [2^k t0, 2^(k+1) t0]

by one 16-point Gauss-Legendre rule per block in the log-transformed
variable u = log t, then resolves the convergence class by iterated Cauchy
condensation: the raw block ratio settles the geometric scale; dividing out
the critical factor at each further scale (1/t, then 1/log t, then
1/log log t) turns the next logarithmic scale into a condensed series whose
implied term ratio is read off a least-squares exponent fit.  A ratio
within the margin band at one depth descends to the next; within the margin
at the deepest condensation the engine abstains.

The named tests at the bottom wrap the engine with the specific integrands
of the classical rate-function criteria (Kolmogorov, Dvoretzky-Erdos,
Spitzer-type) and their heat-kernel generalizations.  Each writes the log
of its integrand, log f, as one array expression in the log-log forms
ell(s) = log f(e**s) of its scaling functions; every phi^-1 in it is one
array ``log_inverse`` and every rate one ``log_rate``, so no power, ratio or
inverse that may pass the float range is formed.  The engine calls log f
once, on all 3840 block nodes, and exponentiates in one place: f is 0
where log f <= -745 (exp is 0 or subnormal there) or -inf, and a NaN or
+inf log f is an EvaluationError naming its block and t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import EvaluationError, PreconditionError
from .scaling import (
    DECREASING,
    INCREASING,
    RateCandidate,
    ScalingFunction,
    log_inverse,
    log_rate,
)

CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"

LOG2 = math.log(2.0)


#: Number of dyadic blocks; t reaches t0 * 2**K_MAX (~1e72 * t0).
K_MAX = 240
#: Ratio-test margin on condensed series (abstain inside 1 +/- margin).
RATIO_MARGIN = 0.05
#: Tight band around ratio 1 inside which a level is treated as exactly
#: critical and the decision descends one condensation step.  Between this
#: and RATIO_MARGIN the answer is honestly ambiguous -> inconclusive.
DESCEND_BAND_GEOMETRIC = 0.002
DESCEND_BAND = 0.02
#: Fitted-geometric decision threshold (the fit separates scales, so it is
#: sharper than the raw-ratio margin).
GEOMETRIC_DECISIVE = 0.005


# -- composite Gauss-Legendre rules (the classifier's blocks, the stable law's
# table, the tail midpoint, Green) ---------------------------------------------

#: nodes and weights on [-1, 1], by number of points
_LEGENDRE = {n: np.polynomial.legendre.leggauss(n) for n in (16, 24)}


def _piece_ends(knots, step: float) -> np.ndarray:
    """The knots, with every gap between them cut into equal pieces at most step wide."""
    pieces = np.ceil(np.diff(knots) / step).astype(int)
    ends = [np.linspace(a, b, n, endpoint=False) for a, b, n in zip(knots, knots[1:], pieces)]
    return np.concatenate(ends + [knots[-1:]])


def _gauss_legendre(ends: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on each piece between consecutive
    ends (along the last axis), window-major: the n nodes of the first piece,
    then those of the next."""
    u, w = _LEGENDRE[n]
    half = 0.5 * np.diff(ends)[..., None]
    shape = ends.shape[:-1] + (-1,)
    return (ends[..., :-1, None] + half * (u + 1.0)).reshape(shape), (half * w).reshape(shape)


def _positive_finite(name: str, x: float) -> None:
    if not 0 < x < math.inf:  # false for NaN too
        raise PreconditionError(f"{name} must be positive and finite, got {x!r}")


@dataclass
class Verdict:
    """Outcome of a convergence classification.

    ``tail_exponent_estimate`` is the deciding exponent: the local power of
    t (depth 0), log t (depth 1), log log t (depth 2) or log log log t
    (depth 3) in the integrand t**-1 * (scale)**-exponent normal form.
    """

    label: str
    partial_sum: float
    tail_exponent_estimate: Optional[float]
    depth_used: int
    block_table: list[tuple[int, float]] = field(default_factory=list)
    reason: str = ""

    def as_dict(self) -> dict:
        return {
            "class": self.label,
            "partial_sum": self.partial_sum,
            "tail_exponent_estimate": self.tail_exponent_estimate,
            "depth_used": self.depth_used,
            "reason": self.reason,
            "block_table": [[k, s] for k, s in self.block_table],
        }


def _block_nodes(t0: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t, in increasing order, and weights in dt of the dyadic blocks:
    the 16-point rule in u = log t on every block."""
    u, w = _gauss_legendre(math.log(t0) + LOG2 * np.arange(K_MAX + 1), 16)
    t = np.exp(u)
    return t, w * t


def _block_sums(t: np.ndarray, weight: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dyadic block integrals from the integrand's values v at the nodes t."""
    g = weight * v
    ok = np.isfinite(g) & (v >= 0)
    if not ok.all():
        i = int(np.argmin(ok))
        if not math.isfinite(g[i]):
            raise EvaluationError(f"block {i // 16}: integrand non-finite at t={t[i]:g}")
        raise PreconditionError(f"block {i // 16}: integrand negative at t={t[i]:g}")
    return g.reshape(K_MAX, 16).sum(axis=1)


def _lstsq_coeffs(y: np.ndarray, cols: Sequence[np.ndarray]) -> np.ndarray:
    X = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    return coef


def classify_tail_integral(f: Callable[[float], float], t0: float = 16.0) -> Verdict:
    """Classify the improper integral of a nonnegative f over (t0, inf).

    f must be finite and nonnegative on [t0, t0 * 2**K_MAX]; the block
    sequence must be eventually monotone (checked empirically), which rules
    out oscillating integrands the ratio machinery cannot speak about.
    f is called once per node, with a float, in increasing t; an error it
    raises is raised again with the block's number in front.
    """
    _positive_finite("t0 * 2**K_MAX", t0 * 2.0**K_MAX)
    t, weight = _block_nodes(t0)
    vals = []
    try:
        for x in t.tolist():
            vals.append(f(x))
    except (EvaluationError, PreconditionError) as exc:
        raise type(exc)(f"block {len(vals) // 16}: {exc}") from None
    return _classify_blocks(_block_sums(t, weight, np.array(vals, dtype=float)), t0)


def _classify_log(log_f: Callable[[np.ndarray], np.ndarray], t0: float) -> Verdict:
    """classify_tail_integral for an integrand given by its log as an array
    expression, called once on all block nodes (an error it raises names its
    argument, not the block), and exponentiated by the module docstring's rule."""
    _positive_finite("t0 * 2**K_MAX", t0 * 2.0**K_MAX)
    t, weight = _block_nodes(t0)
    x = log_f(t)
    with np.errstate(over="ignore"):  # +inf is reported with its block
        v = np.exp(x)
    v[x <= -745.0] = 0.0
    return _classify_blocks(_block_sums(t, weight, v), t0)


def _classify_blocks(s: np.ndarray, t0: float) -> Verdict:
    """The verdict on the block integrals s of the blocks from t0 on."""
    table = list(enumerate(s.tolist()))
    partial = float(np.sum(s))

    # vanishing tail: everything beyond some block is numerically zero
    tail_quarter = s[3 * K_MAX // 4 :]
    if np.all(tail_quarter == 0.0):
        return Verdict(CONVERGENT, partial, None, 0, table, "tail numerically zero")

    # fit on blocks with u = log t large enough that shift corrections
    # log(u + c) - log(u) are captured by the reciprocal absorber columns
    nz = np.nonzero(s > 0)[0]
    u0 = math.log(t0)
    u = u0 + (nz + 0.5) * LOG2
    usable = nz[u >= 8.0]
    if usable.size < 16:
        return Verdict(
            INCONCLUSIVE, partial, None, 0, table, "insufficient usable blocks"
        )

    # empirical monotonicity of the block tail
    tail = s[usable[usable >= usable[-1] // 2]]
    d = np.diff(tail)
    tol = 1e-6 * np.maximum(tail[:-1], tail[1:])
    if not (np.all(d <= tol) or np.all(d >= -tol)):
        return Verdict(
            INCONCLUSIVE, partial, None, 0, table, "blocks not eventually monotone"
        )

    # depth 0: raw ratio test on the block series (geometric scale)
    last = usable[usable >= usable[-1] - max(8, usable.size // 3)]
    ratios = s[last[1:]] / s[last[:-1]]
    steps = np.diff(last).astype(float)
    rates = np.sort(ratios ** (1.0 / steps)).tolist()  # their median, bit for bit np.median
    mid = len(rates) // 2
    l0 = rates[mid] if len(rates) % 2 else (rates[mid - 1] + rates[mid]) / 2
    if abs(l0 - 1.0) > RATIO_MARGIN:
        label = CONVERGENT if l0 < 1.0 else DIVERGENT
        return Verdict(label, partial, -math.log2(l0), 0, table, f"block ratio {l0:.4g}")

    # condensation fits on u = log t regressors; the reciprocal columns
    # absorb shift corrections like log(u + c) - log(u) ~ c/u that would
    # otherwise bias the exponents.  Depth 1, 2, 3 divides out 1/t,
    # 1/(t log t), 1/(t log t loglog t) and reads the exponent of log t,
    # loglog t, logloglog t off the third coefficient
    uk = u0 + (usable + 0.5) * LOG2
    y = np.log(s[usable])
    lu = np.log(uk)
    llu = np.log(lu)
    lllu = np.log(llu)
    one = np.ones_like(uk)
    levels = (
        (y, [one, uk, lu, llu, lllu, 1.0 / uk, 1.0 / uk**2]),
        (y + lu, [one, lu, llu, lllu, 1.0 / uk, 1.0 / (uk * lu)]),
        (y + lu + llu, [one, llu, lllu, 1.0 / lu, 1.0 / uk]),
    )
    for depth, (target, cols) in enumerate(levels, 1):
        coef = _lstsq_coeffs(target, cols)
        if depth == 1:  # the joint fit also carries the exponent of t
            delta = -coef[1]
            l0_fit = 2.0**-delta
            if abs(l0_fit - 1.0) > GEOMETRIC_DECISIVE:
                label = CONVERGENT if delta > 0 else DIVERGENT
                return Verdict(label, partial, float(delta), 0, table, f"fitted geometric rate {l0_fit:.5g}")
            if abs(l0_fit - 1.0) > DESCEND_BAND_GEOMETRIC:
                return Verdict(
                    INCONCLUSIVE, partial, float(delta), 0, table,
                    f"geometric rate {l0_fit:.5g} inside margin but not at boundary",
                )
        p_hat = -coef[2]
        ratio = 2.0 ** (1.0 - p_hat)
        if abs(ratio - 1.0) > RATIO_MARGIN:
            label = CONVERGENT if ratio < 1.0 else DIVERGENT
            return Verdict(label, partial, float(p_hat), depth, table, f"condensed ratio {ratio:.4g}")
        if depth < len(levels) and abs(ratio - 1.0) > DESCEND_BAND:
            return Verdict(
                INCONCLUSIVE, partial, float(p_hat), depth, table,
                f"condensed ratio {ratio:.5g} inside margin but not at boundary",
            )
    return Verdict(
        INCONCLUSIVE, partial, float(p_hat), depth, table,
        f"condensed ratio {ratio:.5g} within margin at depth {depth}",
    )


# ---------------------------------------------------------------------------
# named tests
# ---------------------------------------------------------------------------

ONE_PROB = "one-prob"
ZERO_PROB = "zero-prob"
UPPER = "upper"
LOWER = "lower"


def _start(t0: float, reached: Callable[[float], bool], what: str) -> float:
    """The first t0 2**k, k < 200, where reached holds: the integral starts
    there, and the part before it is finite and decides nothing."""
    _positive_finite("t0", t0)
    for k in range(200):
        if reached(t0 * 2.0**k):
            return t0 * 2.0**k
    raise PreconditionError(f"{what} on any reachable scale")


def kolmogorov_test(g: ScalingFunction, dim: int, t0: float = 16.0) -> Verdict:
    """Forefront test for Brownian-scale growth functions g increasing to inf.

    Classifies int_1^inf t^-1 g(t)^dim exp(-g(t)^2/2) dt.
    """
    if g.monotonicity != INCREASING:
        raise PreconditionError("kolmogorov test requires increasing g")

    def log_f(t: np.ndarray) -> np.ndarray:
        x = g(t)
        # the log is only kept where x > 0, and x * x past the float range
        # gives the -inf wanted, as it does for a Python float
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return np.where(x > 0, -0.5 * x * x + dim * np.log(x), -np.inf) - np.log(t)

    return _classify_log(log_f, t0)


def dvoretzky_erdos_test(h: ScalingFunction, dim: int, t0: float = 16.0) -> Verdict:
    """Rear-front test for transient Brownian motion, dim >= 3.

    Classifies int_1^inf t^-1 h(t)^(dim-2) dt for h decreasing to 0.
    """
    if dim < 3:
        raise PreconditionError("dvoretzky-erdos test requires dim >= 3")
    if h.monotonicity != DECREASING:
        raise PreconditionError("dvoretzky-erdos test requires decreasing h")
    return _classify_log(lambda t: (dim - 2) * h.log_value(t) - np.log(t), t0)


def upper_rate_test(
    h: ScalingFunction,
    rho: ScalingFunction,
    phi_candidate: RateCandidate,
    eps: float = 1.0,
    direction: str = ONE_PROB,
    t0: float = 16.0,
) -> Verdict:
    """Integral test behind the upper-rate zero-one law.

    ONE_PROB classifies int t^-1 h(phi(t) / (2 rho(2(1+eps)t))) dt; a
    convergent verdict certifies the hypothesis that makes phi an upper
    rate function.  ZERO_PROB classifies int t^-1 h(2 phi(4t) / rho(t)) dt;
    a divergent verdict certifies the zero-probability hypothesis.  The
    argument of h is taken in logs, log phi from ``log_rate``, so neither
    phi nor the argument is formed.
    """
    if direction not in (ONE_PROB, ZERO_PROB):
        raise ValueError(f"unknown direction {direction!r}")
    if h.monotonicity != DECREASING:
        raise PreconditionError("h must be decreasing")
    if rho.monotonicity != INCREASING:
        raise PreconditionError("rho must be increasing")
    _positive_finite("eps", eps)

    # log of the argument of h: log phi(a t) + sign log 2 - log rho(b t)
    a, sign, b = (1.0, -1.0, 2.0 * (1.0 + eps)) if direction == ONE_PROB else (4.0, 1.0, 1.0)

    def log_f(t: np.ndarray) -> np.ndarray:
        return h.ell(log_rate(phi_candidate, a * t) + sign * LOG2 - rho.log_value(b * t)) - np.log(t)

    return _classify_log(log_f, t0)


def subcritical_lower_rate_test(model, g: ScalingFunction, t0: float = 16.0) -> Verdict:
    """Lower-rate test when volume grows strictly faster than the walk scale.

    With varphi(t) = phi^{-1}(t) g(t), classifies

        int V(varphi(t)) / (phi(varphi(t)) V(phi^{-1}(t))) dt.

    Convergent certifies the rate's one-probability branch, divergent the
    zero-probability branch.  ``model`` must expose V and phi scaling
    functions with volume exponent d1 strictly above walk exponent d4.
    The integrand is taken in logs: with s_phi = log phi^-1(t) and s =
    s_phi + log g(t), log f = ell_V(s) - ell_phi(s) - ell_V(s_phi).  The
    integral starts at the first t0 2^k where varphi(t) reaches phi's
    domain floor.
    """
    V, phi = model.V, model.phi
    if V.envelope.d_lo <= phi.envelope.d_hi:
        raise PreconditionError(
            f"subcritical test needs d1 > d4, got d1={V.envelope.d_lo:g}, "
            f"d4={phi.envelope.d_hi:g}"
        )
    if g.monotonicity != DECREASING:
        raise PreconditionError("g must be nonincreasing")

    log_floor = math.log(phi.domain_floor)
    start = _start(
        t0, lambda t: log_inverse(phi, math.log(t)) + g.log_value(t) >= log_floor,
        "phi^-1(t) g(t) does not reach phi's domain",
    )

    def log_f(t: np.ndarray) -> np.ndarray:
        u = np.log(t)
        s_phi = log_inverse(phi, u)
        s = s_phi + g.ell(u)
        return V.ell(s) - phi.ell(s) - V.ell(s_phi)

    return _classify_log(log_f, start)


def critical_lower_rate_test(g: ScalingFunction, t0: float = 16.0) -> Verdict:
    """Spitzer-type closest-approach test in the critical (recurrent) case.

    Classifies int_1^inf dt / (t |log g(t)|) for g decreasing to 0, as log f
    = -log t - log |log g(t)|.  Evaluated through log g directly, so g may
    underflow to zero without corrupting the integrand.
    """
    if g.monotonicity != DECREASING:
        raise PreconditionError("g must be nonincreasing")
    start = _start(t0, lambda t: g.log_value(t) < -1e-12, "g does not drop below 1")
    return _classify_log(lambda t: -np.log(t) - np.log(np.abs(g.log_value(t))), start)
