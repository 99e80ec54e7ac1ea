"""Convergence classification of improper integrals on (t0, inf).

The decision engine computes dyadic block integrals

    s_k = integral of f over [2^k t0, 2^(k+1) t0]

by one 16-point Gauss-Legendre rule per block in u = log t, then resolves
the convergence class by iterated Cauchy condensation: the raw block ratio
settles the geometric scale; dividing out the critical factor at each
further scale (1/t, then 1/log t, then 1/log log t) turns the next
logarithmic scale into a condensed series whose implied term ratio is read
off a least-squares exponent fit.  A ratio within the margin band at one
depth descends to the next; within the margin at the deepest condensation
the engine abstains.  A fit's columns depend only on t0 and on which blocks
are positive, so each depth's fit is one linear map of the log block sums,
rows @ log s + c, from the columns' pseudo-inverse.  For the default t0 =
16 with every block positive the three depths' maps are built at import,
read-only; any other t0, or a zero block, builds them per call, one depth
at a time, for the depths the verdict reaches.  The rest of what a t0 = 16
verdict reads is one frame prebuilt as well, read-only: the nodes t,
weights and log t, the nodes as Python floats, and, for every block
positive, the usable, monotone-tail and depth-0 ratio block indices; any
other t0, or a zero block, computes them per call by the same code.

The named tests at the bottom wrap the engine with the specific integrands
of the classical rate-function criteria (Kolmogorov, Dvoretzky-Erdos,
Spitzer-type) and their heat-kernel generalizations, each from t0 = 16.
Each writes the log of its integrand, log f, as one array expression in
the log-log forms ell(s) = log f(e**s) of its scaling functions; every
phi^-1 in it is one array ``log_inverse`` and every rate one ``log_rate``,
so no power, ratio or inverse that may pass the float range is formed.
The engine calls log f once, as log_f(t, log_t) on all 3840 block nodes
and their logs (log_t is np.log(t), prebuilt at t0 = 16, so no integrand
takes the log of the nodes itself), and exponentiates in one place: f is 0
where log f <= -745 (exp is 0 or subnormal there) or -inf, and a NaN or
+inf log f is an EvaluationError naming its block and t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

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
#: the start of every named test's integral, or of its search for one
_T0 = 16.0


# -- composite Gauss-Legendre rules (the classifier's blocks, the stable law's
# table, Green) ----------------------------------------------------------------

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


@dataclass(frozen=True)
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
    block_sums: tuple[float, ...]  # s_k at position k
    reason: str

    def as_dict(self) -> dict:
        return {
            "class": self.label,
            "partial_sum": self.partial_sum,
            "tail_exponent_estimate": self.tail_exponent_estimate,
            "depth_used": self.depth_used,
            "reason": self.reason,
            "block_sums": list(self.block_sums),
        }


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, made read-only."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _block_rule(t0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes t, in increasing order, weights in dt and log t of the dyadic
    blocks from t0: the rule on [k log 2, (k + 1) log 2] for k < K_MAX in u
    = log t, its nodes shifted by log t0 (its weights in du do not move)."""
    _positive_finite("t0 * 2**K_MAX", t0 * 2.0**K_MAX)
    u, w = _gauss_legendre(LOG2 * np.arange(K_MAX + 1), 16)
    t = np.exp(u + math.log(t0))
    return t, w * t, np.log(t)


def _block_nodes(t0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_block_rule(t0), read from the frame at t0 = _T0."""
    return _NODES if t0 == _T0 else _block_rule(t0)


def _block_sums(t: np.ndarray, weight: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dyadic block integrals from the integrand's values v at the nodes t."""
    g = weight * v
    if not (v.min() >= 0.0 and g.max() < math.inf):  # false for NaN too
        i = int(np.argmin(np.isfinite(g) & (v >= 0)))
        if not math.isfinite(g[i]):
            raise EvaluationError(f"block {i // 16}: integrand non-finite at t={t[i]:g}")
        raise PreconditionError(f"block {i // 16}: integrand negative at t={t[i]:g}")
    return g.reshape(K_MAX, 16).sum(axis=1)


def classify_tail_integral(f: Callable[[float], float], t0: float = _T0) -> Verdict:
    """Classify the improper integral of a nonnegative f over (t0, inf).

    f must be finite and nonnegative on [t0, t0 * 2**K_MAX]; the block
    sequence must be eventually monotone (checked empirically), which rules
    out oscillating integrands the ratio machinery cannot speak about.
    f is called once per node, with a float, in increasing t; an error it
    raises is raised again with the block's number in front.
    """
    t, weight, _ = _block_nodes(t0)
    vals = []
    try:
        for x in _NODE_FLOATS if t0 == _T0 else t.tolist():
            vals.append(f(x))
    except (EvaluationError, PreconditionError) as exc:
        raise type(exc)(f"block {len(vals) // 16}: {exc}") from None
    return _classify_blocks(_block_sums(t, weight, np.array(vals, dtype=float)), t0)


def _classify_log(log_f: Callable[[np.ndarray, np.ndarray], np.ndarray], t0: float) -> Verdict:
    """classify_tail_integral for an integrand given by its log as an array
    expression, called once as log_f(t, log t) on all block nodes (an error it
    raises names its argument, not the block), and exponentiated by the module
    docstring's rule."""
    t, weight, log_t = _block_nodes(t0)
    x = log_f(t, log_t)
    with np.errstate(over="ignore"):  # +inf is reported with its block
        v = np.exp(x)
    v[x <= -745.0] = 0.0
    return _classify_blocks(_block_sums(t, weight, v), t0)


def _fits(uk: np.ndarray):
    """(rows, c) of the fits at depths k = 1, 2, 3 on the usable blocks' u =
    uk, one depth at a time: rows @ log s + c are the depth's coefficients 1
    and 2.  Each fit divides out the critical factor below its scale, a shift
    of log s, and reads the exponent of the k-fold log of t off coefficient
    2, depth 1 that of t off coefficient 1 (of u) too; the 1/u columns absorb
    shift corrections."""
    lu = np.log(uk)
    llu = np.log(lu)
    lllu = np.log(llu)
    one, inv_u = np.ones_like(uk), 1.0 / uk
    for shift, cols in (
        (np.zeros_like(uk), [one, uk, lu, llu, lllu, inv_u, 1.0 / uk**2]),
        (lu, [one, lu, llu, lllu, inv_u, 1.0 / (uk * lu)]),
        (lu + llu, [one, llu, lllu, 1.0 / lu, inv_u]),
    ):
        rows = np.linalg.pinv(np.array(cols).T)[1:3]
        yield rows, rows @ shift


def _block_index(nz: np.ndarray, t0: float):
    """Of the positive blocks nz from t0: the usable blocks (u = log t >= 8)
    and their u, the monotone-tail blocks, and the depth-0 ratio pairs (lo,
    hi) with their 1/steps; None for fewer than 16 usable blocks."""
    u = math.log(t0) + (nz + 0.5) * LOG2
    usable = nz[u >= 8.0]
    if usable.size < 16:
        return None
    last = usable[usable >= usable[-1] - max(8, usable.size // 3)]
    tail = usable[usable >= usable[-1] // 2]
    return usable, u[u >= 8.0], tail, last[:-1], last[1:], 1.0 / (last[1:] - last[:-1])


#: the frame of t0 = _T0, built once at import, read-only: the block rule
#: (t, weight, log t), its nodes as Python floats, and, when every block is
#: positive, the block index and each depth's fit
_NODES = _read_only(*_block_rule(_T0))
_NODE_FLOATS = tuple(_NODES[0].tolist())
_BLOCK_INDEX = _read_only(*_block_index(np.arange(K_MAX), _T0))
_FITS = tuple(_read_only(*fit) for fit in _fits(_BLOCK_INDEX[1]))


def _classify_blocks(s: np.ndarray, t0: float) -> Verdict:
    """The verdict on the block integrals s of the blocks from t0 on."""
    sums = tuple(s.tolist())
    partial = float(s.sum())

    # vanishing tail: everything beyond some block is numerically zero
    if not s[3 * K_MAX // 4 :].any():
        return Verdict(CONVERGENT, partial, None, 0, sums, "tail numerically zero")

    # fit on blocks with u = log t large enough that shift corrections
    # log(u + c) - log(u) are captured by the reciprocal absorber columns; at
    # t0 = _T0 with every block positive the indices, and the fits, are the
    # prebuilt ones
    prebuilt = t0 == _T0 and bool((s > 0).all())
    index = _BLOCK_INDEX if prebuilt else _block_index((s > 0).nonzero()[0], t0)
    if index is None:
        return Verdict(
            INCONCLUSIVE, partial, None, 0, sums, "insufficient usable blocks"
        )
    usable, uk, tail_k, lo, hi, inv_steps = index

    # empirical monotonicity of the block tail
    tail = s[tail_k]
    d = tail[1:] - tail[:-1]
    tol = 1e-6 * np.maximum(tail[:-1], tail[1:])
    if not ((d <= tol).all() or (d >= -tol).all()):
        return Verdict(
            INCONCLUSIVE, partial, None, 0, sums, "blocks not eventually monotone"
        )

    # depth 0: raw ratio test on the block series (geometric scale)
    rates = np.sort((s[hi] / s[lo]) ** inv_steps).tolist()  # their median, bit for bit np.median
    mid = len(rates) // 2
    l0 = rates[mid] if len(rates) % 2 else (rates[mid - 1] + rates[mid]) / 2
    if abs(l0 - 1.0) > RATIO_MARGIN:
        label = CONVERGENT if l0 < 1.0 else DIVERGENT
        return Verdict(label, partial, -math.log2(l0), 0, sums, f"block ratio {l0:.4g}")

    # the fits' coefficients 1 (of u, read at depth 1) and 2, as floats, prebuilt
    # at t0 = _T0 with every block positive, else built per depth reached
    y = np.log(s[usable])
    for depth, (rows, c) in enumerate(_FITS if prebuilt else _fits(uk), 1):
        coef_u, coef_log = (rows @ y + c).tolist()
        if depth == 1:  # the joint fit also carries the exponent of t
            delta = -coef_u
            l0_fit = 2.0**-delta
            if abs(l0_fit - 1.0) > GEOMETRIC_DECISIVE:
                label = CONVERGENT if delta > 0 else DIVERGENT
                return Verdict(label, partial, delta, 0, sums, f"fitted geometric rate {l0_fit:.5g}")
            if abs(l0_fit - 1.0) > DESCEND_BAND_GEOMETRIC:
                return Verdict(
                    INCONCLUSIVE, partial, delta, 0, sums,
                    f"geometric rate {l0_fit:.5g} inside margin but not at boundary",
                )
        p_hat = -coef_log
        ratio = 2.0 ** (1.0 - p_hat)
        if abs(ratio - 1.0) > RATIO_MARGIN:
            label = CONVERGENT if ratio < 1.0 else DIVERGENT
            return Verdict(label, partial, p_hat, depth, sums, f"condensed ratio {ratio:.4g}")
        if depth < 3 and abs(ratio - 1.0) > DESCEND_BAND:
            return Verdict(
                INCONCLUSIVE, partial, p_hat, depth, sums,
                f"condensed ratio {ratio:.5g} inside margin but not at boundary",
            )
    return Verdict(
        INCONCLUSIVE, partial, p_hat, depth, sums,
        f"condensed ratio {ratio:.5g} within margin at depth {depth}",
    )


# ---------------------------------------------------------------------------
# named tests
# ---------------------------------------------------------------------------

ONE_PROB = "one-prob"
ZERO_PROB = "zero-prob"


def _start(reached: Callable[[float], bool], what: str) -> float:
    """The first _T0 2**k, k < 200, where reached holds: the integral starts
    there, and the part before it is finite and decides nothing."""
    for k in range(200):
        if reached(_T0 * 2.0**k):
            return _T0 * 2.0**k
    raise PreconditionError(f"{what} on any reachable scale")


def kolmogorov_test(g: ScalingFunction, dim: int) -> Verdict:
    """Forefront test for Brownian-scale growth functions g increasing to inf.

    Classifies int_16^inf t^-1 g(t)^dim exp(-g(t)^2/2) dt.
    """
    if g.monotonicity != INCREASING:
        raise PreconditionError("kolmogorov test requires increasing g")

    def log_f(t: np.ndarray, log_t: np.ndarray) -> np.ndarray:
        x = g(t)
        # the log is only kept where x > 0, and x * x past the float range
        # gives the -inf wanted, as it does for a Python float
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return np.where(x > 0, -0.5 * x * x + dim * np.log(x), -np.inf) - log_t

    return _classify_log(log_f, _T0)


def dvoretzky_erdos_test(h: ScalingFunction, dim: int) -> Verdict:
    """Rear-front test for transient Brownian motion, dim >= 3.

    Classifies int_16^inf t^-1 h(t)^(dim-2) dt for h decreasing to 0.
    """
    if dim < 3:
        raise PreconditionError("dvoretzky-erdos test requires dim >= 3")
    if h.monotonicity != DECREASING:
        raise PreconditionError("dvoretzky-erdos test requires decreasing h")
    return _classify_log(lambda t, log_t: (dim - 2) * h.log_value(t) - log_t, _T0)


def upper_rate_test(
    h: ScalingFunction,
    rho: ScalingFunction,
    phi_candidate: RateCandidate,
    eps: float = 1.0,
    direction: str = ONE_PROB,
) -> Verdict:
    """Integral test behind the upper-rate zero-one law.

    ONE_PROB classifies int_16^inf t^-1 h(phi(t) / (2 rho(2(1+eps)t))) dt; a
    convergent verdict certifies the hypothesis that makes phi an upper
    rate function.  ZERO_PROB classifies int_16^inf t^-1 h(2 phi(4t) / rho(t)) dt;
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

    def log_f(t: np.ndarray, log_t: np.ndarray) -> np.ndarray:
        return h.ell(log_rate(phi_candidate, a * t) + sign * LOG2 - rho.log_value(b * t)) - log_t

    return _classify_log(log_f, _T0)


def subcritical_lower_rate_test(model, g: ScalingFunction) -> Verdict:
    """Lower-rate test when volume grows strictly faster than the walk scale.

    With varphi(t) = phi^{-1}(t) g(t), classifies

        int V(varphi(t)) / (phi(varphi(t)) V(phi^{-1}(t))) dt.

    Convergent certifies the rate's one-probability branch, divergent the
    zero-probability branch.  ``model`` must expose V and phi scaling
    functions with volume exponent d1 strictly above walk exponent d4.
    The integrand is taken in logs: with s_phi = log phi^-1(t) and s =
    s_phi + log g(t), log f = ell_V(s) - ell_phi(s) - ell_V(s_phi).  The
    integral starts at the first 16 2^k where varphi(t) reaches phi's
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
        lambda t: log_inverse(phi, math.log(t)) + g.log_value(t) >= log_floor,
        "phi^-1(t) g(t) does not reach phi's domain",
    )

    def log_f(t: np.ndarray, log_t: np.ndarray) -> np.ndarray:
        s_phi = log_inverse(phi, log_t)
        s = s_phi + g.ell(log_t)
        return V.ell(s) - phi.ell(s) - V.ell(s_phi)

    return _classify_log(log_f, start)


def critical_lower_rate_test(g: ScalingFunction) -> Verdict:
    """Spitzer-type closest-approach test in the critical (recurrent) case.

    Classifies int dt / (t |log g(t)|) for g decreasing to 0, from the
    first 16 2^k where g(t) < 1, as log f = -log t - log |log g(t)|.
    Evaluated through log g directly, so g may underflow to zero.
    """
    if g.monotonicity != DECREASING:
        raise PreconditionError("g must be nonincreasing")
    start = _start(lambda t: g.log_value(t) < -1e-12, "g does not drop below 1")
    return _classify_log(lambda t, log_t: -log_t - np.log(np.abs(g.log_value(t))), start)
