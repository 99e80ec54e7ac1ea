"""Positive monotone shape functions with verified power-law envelopes.

Everything downstream (kernel envelopes, integral tests, potential-theory
bounds) consumes functions of one positive variable that are monotone and
sandwiched between two power laws:

    c_lo * (R/r)**d_lo  <=  f(R)/f(r)  <=  c_hi * (R/r)**d_hi      (r < R)

Decreasing functions simply carry non-positive exponents.  The envelope is
*declared* at construction and *verified* on a logarithmic grid; it is data,
not an inference, because the bound constants feed every later formula.

Evaluators take a float or an ndarray: a float argument gives a float, an
array the array of values, so an integrand over many nodes is one array
expression.  The presets are written for both; an evaluator that only
takes floats is applied element by element on arrays (see
``ScalingFunction``).  ``inverse`` solves one target or an array of them.
Each algorithm is written once, for arrays: the grid checks are array
expressions, and a float target without a closed-form inverse is solved
as a one-element array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import wrightomega

from .errors import BracketError, EvaluationError, PreconditionError

INCREASING = "increasing"
DECREASING = "decreasing"

#: Number of points in the construction-time verification grid.
GRID_POINTS = 64
#: Number of decades the verification grid spans above the domain floor.
GRID_DECADES = 8
#: Relative slack for all grid comparisons (floating-point headroom only).
GRID_RTOL = 1e-9

_INVERSE_RTOL = 1e-12
_INVERSE_MAX_ITER = 200


@dataclass(frozen=True)
class Envelope:
    """Two-sided power bracket for ratios f(R)/f(r), R > r."""

    c_lo: float
    d_lo: float
    c_hi: float
    d_hi: float

    def __post_init__(self):
        # a NaN would pass every comparison below, and every grid check
        if not all(map(math.isfinite, (self.c_lo, self.d_lo, self.c_hi, self.d_hi))):
            raise ValueError("envelope constants and exponents must be finite")
        if self.c_lo <= 0 or self.c_hi <= 0:
            raise ValueError("envelope constants must be positive")
        if self.d_lo > self.d_hi:
            raise ValueError("envelope exponents must satisfy d_lo <= d_hi")


def log_grid(lo: float, hi: float) -> np.ndarray:
    """np.geomspace(lo, hi, GRID_POINTS) for 0 < lo < hi, bit for bit: its
    own steps (evenly spaced log10, powers of 10, both ends pinned) without
    its argument handling."""
    start, stop = np.log10(lo), np.log10(hi)
    y = np.arange(GRID_POINTS, dtype=float) * ((stop - start) / (GRID_POINTS - 1))
    y += start
    y[-1] = stop
    out = 10.0**y
    out[0], out[-1] = lo, hi
    return out


@dataclass(frozen=True)
class ScalingFunction:
    """A positive monotone function on (0, inf) with a verified envelope.

    Attributes:
        evaluator: the function itself; must be pure.  It takes a float
            and, where it can, an ndarray of arguments (a numpy expression
            such as ``r**p``).  Construction makes one array call on the
            verification grid; unless it returns the per-element values,
            arrays are evaluated one element at a time.
        monotonicity: INCREASING or DECREASING.  Verified as non-strict
            monotonicity on the grid, so constants are admissible.
        envelope: declared two-sided power bracket, asserted only above
            ``domain_floor``.
        domain_floor: smallest argument at which the envelope and
            monotonicity are checked; all large-scale results only need
            behaviour above this.
        log_evaluator: optional exact evaluation of log f, used where f
            itself underflows (e.g. stretched-exponential decay at huge
            arguments).  Arrays are handled as for ``evaluator``.
        exact_inverse: optional closed-form inverse, used by ``inverse``
            to skip the root search.  On a float target it returns a float
            and raises OverflowError where the root leaves the float range;
            on an array of targets it returns an array, with inf there.

    Calls, ``log_value`` and ``_eval_checked`` go through one dispatch,
    ``_apply``: a float or 0-d argument gives a float, an array an array of
    the same shape.
    """

    evaluator: Callable[[float], float]
    monotonicity: str
    envelope: Envelope
    domain_floor: float = 1e-6
    name: str = ""
    log_evaluator: Optional[Callable[[float], float]] = None
    exact_inverse: Optional[Callable[[float], float]] = None
    #: set at construction: the evaluator (log_evaluator) only takes floats
    _scalar_only: bool = field(default=False, init=False, repr=False, compare=False)
    _log_scalar_only: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.monotonicity not in (INCREASING, DECREASING):
            raise ValueError(f"unknown monotonicity {self.monotonicity!r}")
        if self.domain_floor <= 0:
            raise ValueError("domain_floor must be positive")
        g, vals, log_vals = self._verify_on_grid()
        object.__setattr__(self, "_scalar_only", not _maps_arrays(self.evaluator, g, vals, 0.0))
        if self.log_evaluator is not None:
            log_ok = _maps_arrays(self.log_evaluator, g, log_vals, _PROBE_RTOL)
            object.__setattr__(self, "_log_scalar_only", not log_ok)

    # -- construction-time checks -------------------------------------

    def grid(self) -> np.ndarray:
        return log_grid(self.domain_floor, self.domain_floor * 10.0**GRID_DECADES)

    def _verify_on_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Check positivity, monotonicity and the envelope on the grid;
        returns the grid, the values and their logs."""
        g = self.grid()
        vals = _grid_values(self.evaluator, g, self.name)
        diffs = np.diff(vals)
        slack = GRID_RTOL * np.maximum(vals[:-1], vals[1:])
        up = self.monotonicity == INCREASING
        wrong = diffs < -slack if up else diffs > slack
        if wrong.any():
            kind = "nondecreasing" if up else "nonincreasing"
            raise PreconditionError(
                f"{self.name or 'scaling function'}: not {kind} near r={g[int(np.argmax(wrong))]:g}"
            )
        return g, vals, self._verify_envelope(g, vals)

    def _verify_envelope(self, g: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Check the envelope on every grid pair i < j, in logs: with a (b) =
        log f - d_lo (d_hi) log r, a_j - a_i >= log c_lo and b_j - b_i <=
        log c_hi, up to GRID_RTOL.  A violation names the first failing pair
        in i-major order.  Returns log f on the grid."""
        env = self.envelope
        lg, lv = np.log(g), np.log(vals)
        a, b = lv - env.d_lo * lg, lv - env.d_hi * lg
        tol_lo = math.log(env.c_lo) + math.log1p(-GRID_RTOL)
        tol_hi = math.log(env.c_hi) + math.log1p(GRID_RTOL)
        # min_j>i (a_j - a_i) = (min_j>i a_j) - a_i: extremes from the right check all pairs
        a_min = np.minimum.accumulate(a[::-1])[::-1]
        b_max = np.maximum.accumulate(b[::-1])[::-1]
        bad = (a_min[1:] - a[:-1] < tol_lo) | (b_max[1:] - b[:-1] > tol_hi)
        if not bad.any():
            return lv
        i = int(np.argmax(bad))
        j = i + 1 + int(np.argmax((a[i + 1 :] - a[i] < tol_lo) | (b[i + 1 :] - b[i] > tol_hi)))
        span, ratio = g[j] / g[i], vals[j] / vals[i]
        raise PreconditionError(
            f"{self.name or 'scaling function'}: envelope violated at "
            f"(r={g[i]:g}, R={g[j]:g}): ratio={ratio:g} outside "
            f"[{env.c_lo * span**env.d_lo:g}, {env.c_hi * span**env.d_hi:g}]"
        )

    def _eval_checked(self, r):
        """f(r), raising EvaluationError where the value is not finite."""
        v = self(r)
        bad = ~np.isfinite(v)
        if bad.any():
            raise EvaluationError(
                f"{self.name or 'scaling function'}: non-finite value at r={_first(r, bad):g}"
            )
        return v

    # -- evaluation ----------------------------------------------------

    def __call__(self, r):
        if type(r) is float:  # the common case, without the dispatch
            return float(self.evaluator(r))
        return _apply(self.evaluator, self._scalar_only, r)

    def log_value(self, r):
        """log f(r), exact even where f underflows."""
        if self.log_evaluator is not None:
            return _apply(self.log_evaluator, self._log_scalar_only, r)
        v = self(r)
        bad = v <= 0
        if np.any(bad):
            raise EvaluationError(f"cannot take log of f({_first(r, bad):g})={_first(v, bad):g}")
        return math.log(v) if isinstance(v, float) else np.log(v)


#: how closely an evaluator's one array call must reproduce its per-element
#: values (a numpy expression may round differently in the last bits)
_PROBE_RTOL = 1e-12


def _first(a, mask) -> float:
    """The first entry of a where mask holds; a and mask may be scalars."""
    return float(np.asarray(a, dtype=float)[mask][0])


def _grid_values(evaluator: Callable, g: np.ndarray, name: str = "") -> np.ndarray:
    """The evaluator on a grid, one call per point on Python floats (the
    same libm calls as on np.float64 scalars, at less cost per call), checked
    finite and positive: EvaluationError names the first r where it is not."""
    vals = np.array([float(evaluator(r)) for r in g.tolist()])
    if not (0.0 < vals.min() and vals.max() < math.inf):  # true for NaN too
        for bad, what in ((~np.isfinite(vals), "non-finite"), (vals <= 0, "non-positive")):
            if bad.any():
                raise EvaluationError(f"{name or 'scaling function'}: {what} value at r={g[bad][0]:g}")
    return vals


def _maps_arrays(fn: Callable, g: np.ndarray, expected: np.ndarray, atol: float) -> bool:
    """Whether fn(g), one array call, gives the per-element values expected."""
    try:
        out = fn(g)
    except (TypeError, ValueError):  # math functions, and `if r <= c`, reject arrays
        return False
    return (
        isinstance(out, np.ndarray)
        and out.shape == g.shape
        and bool(np.all(np.abs(out - expected) <= _PROBE_RTOL * np.abs(expected) + atol))
    )


def _apply(fn: Callable, scalar_only: bool, r):
    """fn at r: a float for a float or 0-d r, else an array of r's shape,
    from one call, or one call per element where fn only takes floats."""
    if isinstance(r, float):
        return float(fn(r))
    r = np.asarray(r, dtype=float)
    if not r.ndim:
        return float(fn(float(r)))
    if scalar_only:
        return np.array([float(fn(x)) for x in r.ravel().tolist()]).reshape(r.shape)
    return fn(r)


def fit_envelope(
    evaluator: Callable[[float], float],
    domain_floor: float,
    margin: float = 1e-6,
) -> Envelope:
    """Measure an admissible envelope from the slopes of log f in log r.

    Returns the tightest power bracket consistent with all grid pairs,
    with a small multiplicative safety margin.  The slope of the chord
    between two grid points is a weighted mean of the slopes between the
    neighbouring points it spans, so the steepest and the shallowest chords
    join neighbours: the neighbouring slopes alone give the bracket of all
    pairs.  Intended for functions whose exact exponent range is awkward to
    state by hand.  The values must be finite and positive on the grid, as
    for ``ScalingFunction``.
    """
    g = log_grid(domain_floor, domain_floor * 10.0**GRID_DECADES)
    slopes = np.diff(np.log(_grid_values(evaluator, g))) / np.diff(np.log(g))
    return Envelope(
        c_lo=1.0 - margin, d_lo=float(slopes.min()), c_hi=1.0 + margin, d_hi=float(slopes.max())
    )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def check_doubling(
    f: ScalingFunction, factor: float, c: float, grid=None
) -> tuple[bool, float]:
    """Check f(factor*r) <= c*f(r) on a grid; return (ok, worst ratio)."""
    if factor <= 1:
        raise PreconditionError("factor must exceed 1")
    pts = np.asarray(f.grid() if grid is None else grid, dtype=float)
    if pts.size == 0 or np.any(np.diff(pts) <= 0):
        raise PreconditionError("grid must be nonempty and sorted")
    worst = float(np.max(f._eval_checked(factor * pts) / f._eval_checked(pts)))
    return bool(worst <= c * (1 + GRID_RTOL)), worst


@dataclass(frozen=True)
class HConditionReport:
    ok: bool
    mode: str
    theta: Optional[float]
    c0: float
    worst_point: float


UPPER_DECAY = "upper-decay"
LOWER_DOUBLING = "lower-doubling"


def check_h_conditions(
    h: ScalingFunction, mode: str, grid=None, c0: Optional[float] = None
) -> HConditionReport:
    """Verify the decay conditions a tail profile h must satisfy.

    UPPER_DECAY: look for theta > 1 and c0 in (0,1) with
    h(theta*r) <= c0*h(r) for grid r > 1; theta swept over {2,4,8} and the
    best (smallest) c0 reported.

    LOWER_DOUBLING: verify h(r) <= c0*h(2r) for the declared c0 > 1.
    """
    if h.monotonicity != DECREASING:
        raise PreconditionError("h must be decreasing")
    pts = np.asarray(h.grid() if grid is None else grid, dtype=float)
    pts = pts[pts > 1.0]
    if pts.size == 0:
        raise PreconditionError("grid has no points above 1")

    if mode == UPPER_DECAY:
        # report the smallest theta that achieves c0 < 1; if none does,
        # report the sweep's smallest c0 so the failure is quantified
        best: Optional[tuple[float, float, float]] = None  # (c0, theta, argmax)
        for theta in (2.0, 4.0, 8.0):
            worst, arg = _worst_log_ratio(h, pts, theta, 1.0)
            if 0 < worst < 1:
                return HConditionReport(
                    ok=True, mode=mode, theta=theta, c0=worst, worst_point=arg
                )
            if best is None or worst < best[0]:
                best = (worst, theta, arg)
        c0_found, theta, arg = best
        return HConditionReport(
            ok=False, mode=mode, theta=theta, c0=c0_found, worst_point=arg
        )

    if mode == LOWER_DOUBLING:
        if c0 is None or c0 <= 1:
            raise PreconditionError("lower-doubling mode needs declared c0 > 1")
        # log-domain ratio: h may underflow to 0 at 2r
        worst, arg = _worst_log_ratio(h, pts, 1.0, 2.0)
        return HConditionReport(
            ok=bool(worst <= c0 * (1 + GRID_RTOL)), mode=mode, theta=None,
            c0=worst, worst_point=arg,
        )

    raise ValueError(f"unknown mode {mode!r}")


def _worst_log_ratio(h: ScalingFunction, pts: np.ndarray, a: float, b: float):
    """The largest h(a r)/h(b r) over r in pts, taken in logs and inf past
    e**700, and the first r where it is reached."""
    diff = h.log_value(a * pts) - h.log_value(b * pts)
    with np.errstate(over="ignore"):  # exp past 709 is inf, which is not kept
        ratio = np.where(diff < 700.0, np.exp(diff), math.inf)
    k = int(np.argmax(ratio))
    return float(ratio[k]), float(pts[k])


def inverse(f: ScalingFunction, y, bracket: Optional[tuple[float, float]] = None):
    """Solve f(t) = y for increasing f.

    y is a float (a float comes back) or an array of targets (an array of
    the same shape comes back).

    Uses the exact inverse when the function carries one and no explicit
    bracket was requested; a root that overflows raises OverflowError
    naming its target.  Its accuracy is the float conditioning of the
    closed form, not the 1e-12 stopping rule below.  Otherwise it takes
    the given bracket, or gallops out from t0 = max(1, domain_floor) to
    find one (so a function undefined at 1, such as powerlog with a
    negative log exponent, is first evaluated where it was verified), and
    runs regula falsi on (log t, log f(t) - log y) with the Illinois
    modification (Dowell & Jarratt 1971).  A bisection step in log t
    replaces every interpolated point that is unusable, so the bracket
    stays valid and no smoothness is assumed.  Returns the first point t
    with |f(t) - y| <= 1e-12 y, or the middle of the bracket after 200
    steps.  The solve is written for arrays: a float target is solved as
    a one-element array.  An array of targets shares one gallop, then takes
    the same steps on all targets at once: one evaluation of f on the whole
    array per step, with the state of the targets already solved left as
    it is.
    """
    if f.monotonicity != INCREASING:
        raise PreconditionError("inverse requires an increasing function")
    if type(y) is not float:  # np.float64 too: the float path wants ** to raise on overflow
        y = np.asarray(y, dtype=float)
        if y.ndim:
            return _inverse_array(f, y, bracket)
        y = float(y)
    if bracket is not None or f.exact_inverse is None:
        return float(_inverse_array(f, np.array([y]), bracket)[0])
    if not 0.0 < y < math.inf:  # false for NaN too
        raise BracketError(f"target value {y!r} not a positive real")
    try:
        return float(f.exact_inverse(y))
    except OverflowError:
        raise OverflowError(
            f"{f.name or 'scaling function'}: inverse of y={y:g} overflows"
        ) from None


def _split(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Bisection points of [lo, hi]: the middle in log t where lo > 0."""
    return np.where(lo > 0.0, np.sqrt(np.maximum(lo, 0.0)) * np.sqrt(hi), 0.5 * (lo + hi))


def _log_ratio(v: np.ndarray, log_y: np.ndarray) -> np.ndarray:
    """log v - log y, and -inf where v <= 0."""
    with np.errstate(divide="ignore"):  # log 0 is the -inf wanted
        return np.log(np.maximum(v, 0.0)) - log_y


def _inverse_array(f: ScalingFunction, y: np.ndarray, bracket) -> np.ndarray:
    """inverse on an array of targets."""
    bad = ~((y > 0.0) & (y < math.inf))
    if bad.any():
        raise BracketError(f"target value {_first(y, bad)!r} not a positive real")
    if bracket is None and f.exact_inverse is not None:
        with np.errstate(over="ignore"):  # an overflow raises below, naming its target
            t = np.asarray(f.exact_inverse(y), dtype=float)
        over = t == math.inf
        if over.any():
            raise OverflowError(
                f"{f.name or 'scaling function'}: inverse of y={y[over][0]:g} overflows"
            )
        return t
    shape, y = y.shape, y.ravel()
    if bracket is None:
        lo, f_lo, hi, f_hi = _auto_brackets(f, y)
    else:
        lo, hi = float(bracket[0]), float(bracket[1])
        f_lo, f_hi = f._eval_checked(lo), f._eval_checked(hi)
        miss = ~((f_lo <= y * (1 + _INVERSE_RTOL)) & (f_hi >= y * (1 - _INVERSE_RTOL)))
        if miss.any():
            raise BracketError(
                f"bracket [{lo:g}, {hi:g}] maps to [{f_lo:g}, {f_hi:g}], "
                f"which does not straddle y={y[miss][0]:g}"
            )
        lo, f_lo, hi, f_hi = (np.full(y.shape, x) for x in (lo, f_lo, hi, f_hi))
    # the state, one entry per target, updated in place where the target is
    # unsolved; fixed shapes keep the allocations alike from step to step,
    # so that they reuse the memory freed by the step before
    at_lo = np.abs(f_lo - y) <= _INVERSE_RTOL * y
    out = np.where(at_lo, lo, hi)
    unsolved = ~at_lo & (np.abs(f_hi - y) > _INVERSE_RTOL * y)
    log_y = np.log(y)
    g_lo, g_hi = _log_ratio(f_lo, log_y), _log_ratio(f_hi, log_y)
    kept = np.zeros(y.shape)  # +1 / -1 where the last step kept lo / hi
    for _ in range(_INVERSE_MAX_ITER):
        if not unsolved.any():
            break
        # interpolate where the bracket is inside (0, inf) in t and in g;
        # a point outside the bracket falls back to bisection
        slope = (lo > 0.0) & (g_lo > -math.inf)
        x_lo, x_hi = np.log(np.where(slope, lo, 1.0)), np.log(hi)
        with np.errstate(over="ignore", invalid="ignore"):  # unused where not slope
            t = np.exp(x_hi - g_hi * (x_hi - x_lo) / (g_hi - g_lo))
        t = np.where(slope & (lo < t) & (t < hi), t, _split(lo, hi))
        v = f._eval_checked(t)
        # done: solved, or the bracket is two adjacent floats (t is lo or hi)
        done = unsolved & ((np.abs(v - y) <= _INVERSE_RTOL * y) | ~((lo < t) & (t < hi)))
        np.copyto(out, t, where=done)
        unsolved &= ~done
        g = _log_ratio(v, log_y)
        short = v < y
        below, above = unsolved & short, unsolved & ~short
        np.multiply(g_hi, 0.5, out=g_hi, where=below & (kept < 0))  # kept twice: halve
        np.multiply(g_lo, 0.5, out=g_lo, where=above & (kept > 0))
        np.copyto(lo, t, where=below)
        np.copyto(g_lo, g, where=below)
        np.copyto(hi, t, where=above)
        np.copyto(g_hi, g, where=above)
        np.copyto(kept, -1.0, where=below)
        np.copyto(kept, 1.0, where=above)
    np.copyto(out, _split(lo, hi), where=unsolved)
    return out.reshape(shape)


#: the bracketing gallop multiplies t by a factor that starts at 2 and
#: squares at every step, up to this cap
_GALLOP_MAX_STEP = 2.0**64


def _auto_brackets(f: ScalingFunction, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """(lo, f(lo), hi, f(hi)) for each target of a 1-d y, with f(lo) < y <=
    f(hi) or f(lo) <= y < f(hi), from one gallop up to the largest target
    above f(t0), t0 = max(1, domain_floor), and one down to the smallest of
    the others.

    Each target gets the two points where a gallop towards it alone would
    stop: the first point past it (searchsorted on the running extreme, so
    that it is the first even where f was not verified monotone) and the
    one before.
    """
    lo, f_lo, hi, f_hi = (np.empty_like(y) for _ in range(4))
    t0 = max(1.0, f.domain_floor)
    f0 = f._eval_checked(t0)
    up = y > f0
    if up.any():
        ts, vs = _gallop_points(f, float(y[up].max()), t0, f0)
        k = np.searchsorted(np.maximum.accumulate(vs), y[up])  # first vs[k] >= y
        lo[up], f_lo[up], hi[up], f_hi[up] = ts[k - 1], vs[k - 1], ts[k], vs[k]
    down = ~up
    if down.any():
        ts, vs = _gallop_points(f, float(y[down].min()), t0, f0)
        # first k >= 1 with vs[k] <= y: the gallop tests its steps, not t0
        run = np.minimum.accumulate(vs[1:])[::-1]
        k = len(vs) - np.searchsorted(run, y[down], side="right")
        lo[down], f_lo[down], hi[down], f_hi[down] = ts[k], vs[k], ts[k - 1], vs[k - 1]
    return lo, f_lo, hi, f_hi


def _gallop_points(
    f: ScalingFunction, y: float, t0: float, f0: float
) -> tuple[np.ndarray, np.ndarray]:
    """Arguments and values of t0 and of every point a gallop to y passes.

    The gallop starts at t0 = max(1, domain_floor), so a target above f(t0)
    never evaluates f below 1 or below the verified domain, and steps
    towards y until a value reaches it.  A step that leaves the float
    range, in t or in f(t), is retried from the same t with the square root
    of its factor; once the factor is down to 1, BracketError.  The points depend on f alone, so the gallop towards y
    passes a prefix of the points of the gallop towards any target farther
    out.
    """
    t, ts, vs = t0, [t0], [f0]
    up = f0 < y
    step = 2.0
    while True:
        nt = t * step if up else t / step
        if nt == t:
            side = "above" if up else "below"
            raise BracketError(
                f"could not bracket y={y:g} from {side}: no finite value past t={t:g}"
            )
        nv = None
        if 0.0 < nt < math.inf:
            try:
                nv = f._eval_checked(nt)
            except (OverflowError, EvaluationError):
                pass
        if nv is None:
            step = math.sqrt(step)
            continue
        ts.append(nt)
        vs.append(nv)
        if (nv >= y) if up else (nv <= y):
            return np.array(ts), np.array(vs)
        t = nt
        step = min(step * step, _GALLOP_MAX_STEP)


# ---------------------------------------------------------------------------
# rate candidates
# ---------------------------------------------------------------------------

DIRECT = "direct"
SUBCRITICAL = "subcritical"
CRITICAL = "critical"


@dataclass(frozen=True)
class RateCandidate:
    """A candidate time->radius rate function and its construction recipe.

    direct:       phi(t)
    subcritical:  phi^{-1}(t) * g(t)
    critical:     phi^{-1}(t * g(t))

    For the latter two, g must be nonincreasing on its grid (constants are
    tolerated so that algebraic identities like g == 1 can be exercised;
    genuine decay to 0 is the caller's responsibility).
    """

    recipe: str
    phi: ScalingFunction
    g: Optional[ScalingFunction] = None
    description: str = ""

    def __post_init__(self):
        if self.recipe not in (DIRECT, SUBCRITICAL, CRITICAL):
            raise ValueError(f"unknown recipe {self.recipe!r}")
        if self.recipe in (SUBCRITICAL, CRITICAL):
            if self.g is None:
                raise PreconditionError(f"{self.recipe} recipe requires g")
            if self.g.monotonicity != DECREASING:
                raise PreconditionError(f"{self.recipe} recipe requires nonincreasing g")
            if self.phi.monotonicity != INCREASING:
                raise PreconditionError("phi must be increasing for inverse recipes")


def evaluate_rate(candidate: RateCandidate, t):
    """Evaluate a rate candidate at a time t > 1, or at an array of times."""
    if not isinstance(t, float):
        t = np.asarray(t, dtype=float)
    early = t <= 1
    if np.any(early):
        raise PreconditionError(f"rate candidates are defined for t > 1, got {_first(t, early)!r}")
    if candidate.recipe == DIRECT:
        v = candidate.phi(t)
    elif candidate.recipe == SUBCRITICAL:
        v = inverse(candidate.phi, t) * candidate.g(t)
    else:
        v = inverse(candidate.phi, t * candidate.g(t))
    bad = ~(np.isfinite(v) & (v > 0))
    if bad.any():
        raise EvaluationError(
            f"rate candidate evaluated to {_first(v, bad)!r} at t={_first(t, bad):g}"
        )
    return v


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_E = math.e
_EE = math.exp(math.e)
#: log of the smallest positive float: |log y| is at most this for every float y > 0
_LOG_TINY = -math.log(math.ulp(0.0))


# The presets' evaluators take a float or an ndarray.  Each picks its module
# once per call, `xp = math if isinstance(r, float) else np`: math keeps a
# float call as cheap as a plain math expression, numpy serves arrays.


def _exp_or_zero(x):
    """exp(x), and 0 where x <= -745 (where exp is 0 or subnormal)."""
    if isinstance(x, float):
        return math.exp(x) if x > -745.0 else 0.0
    return np.where(x > -745.0, np.exp(x), 0.0)


def _log_from(r, least: float, undefined: str):
    """log r, raising EvaluationError with undefined.format(r) at the first
    r (of a float or an array) where log r < least or r is not a number."""
    if isinstance(r, float):
        lr = math.log(r) if r > 0.0 else -math.inf
        if not lr >= least:
            raise EvaluationError(undefined.format(r))
        return lr
    with np.errstate(divide="ignore", invalid="ignore"):  # log of r <= 0 is named below
        lr = np.log(r)
    bad = ~(lr >= least)
    if bad.any():
        raise EvaluationError(undefined.format(r[bad][0]))
    return lr


def _full(r, value: float):
    """value at every argument: a float for a float, else an array like r."""
    return value if isinstance(r, float) else np.full(np.shape(r), value)


def power(exponent: float, domain_floor: float = 1e-6) -> ScalingFunction:
    """f(r) = r**exponent."""
    mono = INCREASING if exponent >= 0 else DECREASING
    inv = (lambda y, p=exponent: y ** (1.0 / p)) if exponent != 0 else None
    return ScalingFunction(
        evaluator=lambda r, p=exponent: r**p,
        monotonicity=mono,
        envelope=Envelope(1.0, exponent, 1.0, exponent),
        domain_floor=domain_floor,
        name=f"power:{exponent:g}",
        log_evaluator=lambda r, p=exponent: p * (math if isinstance(r, float) else np).log(r),
        exact_inverse=inv,
    )


def constant(value: float) -> ScalingFunction:
    """f(r) = value; admissible wherever only nonincreasing g is required."""
    if value <= 0:
        raise PreconditionError("constant preset must be positive")
    return ScalingFunction(
        evaluator=lambda r, v=value: _full(r, v),
        monotonicity=DECREASING,
        envelope=Envelope(1.0, 0.0, 1.0, 0.0),
        domain_floor=1e-6,
        name=f"const:{value:g}",
        log_evaluator=lambda r, lv=math.log(value): _full(r, lv),
    )


def powerlog(exponent: float, log_exponent: float, domain_floor: float = 2.0) -> ScalingFunction:
    """f(r) = r**exponent * (log r)**log_exponent, for r > 1.

    With p = exponent > 0 and q = log_exponent > 0, f increases from 0 at
    r = 1 and its inverse has a closed form.  With s = log r, f(r) = y reads
    p s + q log s = log y, so

        s = (q/p) * omega(log y / q - log(q/p)),

    where omega is the Wright omega function, the solution w of
    w + log w = z (Corless & Jeffrey 2002); this is de Bruijn conjugation
    (Bingham, Goldie & Teugels, Regular Variation, 1987, section 1.5.7).
    ``inverse`` then solves no equation.  For p <= 0 or q <= 0 (or q so
    small that log y / q overflows) there is no exact inverse, and
    ``inverse`` solves by regula falsi.  At r = 1, f is 0 and ``log_value``
    -inf for q > 0, and they are 1 and 0 for q = 0.  With q < 0, f is
    undefined at r = 1 too: it raises EvaluationError naming r for every
    r <= 1.
    """
    if domain_floor <= 1.0:
        raise PreconditionError("powerlog needs domain_floor > 1 (log r must be positive)")

    name = f"powerlog:{exponent:g},{log_exponent:g}"

    # below r = 1, (log r)**q is complex or of alternating sign; with q < 0
    # it is 1/0 at r = 1 as well, so there the least log r is the least float > 0
    if log_exponent < 0.0:
        least, undefined = math.ulp(0.0), f"{name}: undefined at r={{:g}} (log r <= 0)"
    else:
        least, undefined = 0.0, f"{name}: undefined at r={{:g}} (log r < 0)"

    def ev(r, p=exponent, q=log_exponent):
        return r**p * _log_from(r, least, undefined) ** q

    def log_ev(r, p=exponent, q=log_exponent):
        xp = math if isinstance(r, float) else np
        lr = _log_from(r, least, undefined)
        if not q:  # (log r)**0 is 1, at r = 1 too
            return p * xp.log(r)
        # with q > 0, log r = 0 at r = 1, where f = 0 and log f = -inf
        if xp is math:
            return p * math.log(r) + (q * math.log(lr) if lr else -math.inf)
        with np.errstate(divide="ignore"):
            return p * np.log(r) + q * np.log(lr)

    inv = None
    k = log_exponent / exponent if exponent > 0.0 else math.nan
    # the closed form needs q/p, and log y / q for every positive float y, finite
    if log_exponent > 0.0 and math.isfinite(k) and math.isfinite(_LOG_TINY / log_exponent):

        def inv(y, q=log_exponent, k=k):
            if isinstance(y, float):  # math.exp raises OverflowError past the float range
                return math.exp(k * wrightomega(math.log(y) / q - math.log(k)))
            return np.exp(k * wrightomega(np.log(y) / q - math.log(k)))

    sample = [ev(domain_floor), ev(domain_floor * 10**GRID_DECADES)]
    mono = INCREASING if sample[1] >= sample[0] else DECREASING
    return ScalingFunction(
        evaluator=ev,
        monotonicity=mono,
        envelope=fit_envelope(ev, domain_floor),
        domain_floor=domain_floor,
        name=name,
        log_evaluator=log_ev,
        exact_inverse=inv,
    )


def exp_decay(c0: float, gamma: float) -> ScalingFunction:
    """h(s) = exp(-c0 * s**gamma), the stretched-exponential tail profile."""
    if c0 <= 0 or gamma <= 0:
        raise PreconditionError("exp-decay needs c0 > 0 and gamma > 0")
    # keep the verification grid clear of exp underflow
    floor = min(1e-6, (700.0 / c0) ** (1.0 / gamma) / 10.0**GRID_DECADES)

    def ev(s, a=c0, g=gamma):
        return (math if isinstance(s, float) else np).exp(-a * s**g)

    return ScalingFunction(
        evaluator=ev,
        monotonicity=DECREASING,
        envelope=fit_envelope(ev, floor),
        domain_floor=floor,
        name=f"exp-decay:{c0:g},{gamma:g}",
        log_evaluator=lambda s, a=c0, g=gamma: -a * s**g,
    )


def iterated_log_g(eps: float, domain_floor: float = 16.0) -> ScalingFunction:
    """g(t) = exp(-(log t) * (log log t)**(1+eps)); decays faster than any power.

    Defined for t >= e: below it log log t < 0, and its power is complex.
    """
    name = f"iterated-log-g:{eps:g}"
    undefined = f"{name}: undefined at t={{:g}} (log log t < 0)"

    def log_ev(t, e=eps):
        lt = _log_from(t, 1.0, undefined)
        return -lt * (math if isinstance(t, float) else np).log(lt) ** (1.0 + e)

    def ev(t, e=eps):
        return _exp_or_zero(log_ev(t, e))

    # the verification grid stays within exp range for moderate eps
    return ScalingFunction(
        evaluator=ev,
        monotonicity=DECREASING,
        envelope=fit_envelope(ev, domain_floor),
        domain_floor=domain_floor,
        name=name,
        log_evaluator=log_ev,
    )


def loglog_g(eps: float, domain_floor: float = 4.0) -> ScalingFunction:
    """g(t) = (log log(e^e + t))**eps / log(e + t).

    eps = 0 gives exactly 1/log(e + t); eps = 1 the (log log t)/(log t) shape.
    """

    def ev(t, e=eps):
        xp = math if isinstance(t, float) else np
        return xp.log(xp.log(_EE + t)) ** e / xp.log(_E + t)

    def log_ev(t, e=eps):
        xp = math if isinstance(t, float) else np
        return e * xp.log(xp.log(xp.log(_EE + t))) - xp.log(xp.log(_E + t))

    return ScalingFunction(
        evaluator=ev,
        monotonicity=DECREASING,
        envelope=fit_envelope(ev, domain_floor),
        domain_floor=domain_floor,
        name=f"loglog-g:{eps:g}",
        log_evaluator=log_ev,
    )


def from_id(spec: str) -> ScalingFunction:
    """Build a preset from its string id.

    Grammar (documented for config files and the CLI):
        power:EXP              r**EXP
        powerlog:EXP,LOGEXP    r**EXP * (log r)**LOGEXP          (r > 1)
        exp-decay:C0,GAMMA     exp(-C0 * r**GAMMA)
        iterated-log-g:EPS     exp(-(log t)(log log t)**(1+EPS))  (t >= 16)
        loglog-g:EPS           (log log(e^e+t))**EPS / log(e+t)
        const:C                C
    """
    head, _, tail = spec.partition(":")
    head = head.strip().lower()
    try:
        args = [float(a) for a in tail.split(",")] if tail else []
    except ValueError as exc:
        raise ValueError(f"bad numeric arguments in preset id {spec!r}") from exc
    try:
        if head == "power":
            (exp_,) = args
            return power(exp_)
        if head == "powerlog":
            p, q = args
            return powerlog(p, q)
        if head == "exp-decay":
            c0, gamma = args
            return exp_decay(c0, gamma)
        if head == "iterated-log-g":
            (eps,) = args
            return iterated_log_g(eps)
        if head == "loglog-g":
            (eps,) = args
            return loglog_g(eps)
        if head == "const":
            (c,) = args
            return constant(c)
    except ValueError as exc:
        raise ValueError(f"wrong argument count in preset id {spec!r}") from exc
    raise ValueError(f"unknown scaling preset {spec!r}")
