"""Positive monotone shape functions with verified power-law envelopes.

Everything downstream (kernel envelopes, integral tests, potential-theory
bounds) consumes functions of one positive variable that are monotone and
sandwiched between two power laws:

    c_lo * (R/r)**d_lo  <=  f(R)/f(r)  <=  c_hi * (R/r)**d_hi      (r < R)

Decreasing functions simply carry non-positive exponents.  The envelope is
*declared* at construction and *verified* on a logarithmic grid; it is data,
not an inference, because the bound constants feed every later formula.

A function is held in log-log coordinates, as one array-native evaluator
ell(s) = log f(e**s) (the natural form of regularly varying scales: Bingham,
Goldie & Teugels, Regular Variation, 1987, section 1.5.7; a power law is a
line in s, an envelope a pair of slopes).  The rest derives from it: f(r) =
exp ell(log r), ``log_value(r)`` = ell(log r), ``inverse`` solves ell(s) =
log y in s, and the grid checks take one array call of ell.  The presets
define ell (a ``LogLog``).  A user's evaluator f keeps its own values: a
call is f at r itself (element by element if f only takes floats), and
ell(s) = log f(e**s) serves the rest.
"""

from __future__ import annotations

import math
import sys
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


#: the envelope the presets without a closed-form one pass: construction
#: replaces it by the tightest one on the grid, as ``fit_envelope`` measures
#: it, from the grid call of ell that it checks
_FIT = Envelope(1.0, 0.0, 1.0, 0.0)


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
class LogLog:
    """A function given by ell(s) = log f(e**s), one array expression in s;
    calling it gives f(r) = exp ell(log r)."""

    ell: Callable[[np.ndarray], np.ndarray]

    def __call__(self, r):
        return _log_at(self.ell, r, exp=True)


@dataclass(frozen=True)
class ScalingFunction:
    """A positive monotone function on (0, inf) with a verified envelope.

    Attributes:
        evaluator: a ``LogLog``, or f itself, pure, taking a float and where
            it can an ndarray (such as ``r**p``): unless one call on the
            grid array gives an array of its shape, f takes one float at a time.
        monotonicity: INCREASING or DECREASING.  Verified as non-strict
            monotonicity on the grid, so constants are admissible.
        envelope: declared two-sided power bracket, asserted only above
            ``domain_floor``.
        domain_floor: smallest argument at which the envelope and
            monotonicity are checked; all large-scale results only need
            behaviour above this.
        exact_inverse: optional closed-form inverse in log-log coordinates,
            log y -> s with ell(s) = log y, elementwise; ``inverse`` then
            solves no equation.  Checked at a few grid points.
        ell: set at construction: ell(s) = log f(e**s) on an array of s.

    ``log_value`` at r is one call of ell at s = log r (r = 0 is s = -inf,
    r < 0 NaN), and so is a call for a ``LogLog``, f(r) = exp ell(log r); a
    user's f is called at r itself.  Either gives a float for a float or
    0-d r, else an array of r's shape.
    """

    evaluator: Callable
    monotonicity: str
    envelope: Envelope
    domain_floor: float = 1e-6
    name: str = ""
    exact_inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ell: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False, compare=False)
    #: set at construction: a user's f at r, on floats and arrays (None for a LogLog)
    _at: Optional[Callable] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.monotonicity not in (INCREASING, DECREASING):
            raise ValueError(f"unknown monotonicity {self.monotonicity!r}")
        if self.domain_floor <= 0:
            raise ValueError("domain_floor must be positive")
        g = self.grid()
        s = np.log(g)
        ell, at, logs = _grid_logs(self.evaluator, g, s, self.name)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "_at", at)
        if self.envelope is _FIT:
            object.__setattr__(self, "envelope", _fit(s, logs))
        self._verify_on_grid(g, s, logs)
        if self.exact_inverse is not None:  # at four grid points: log y -> s, not y -> t
            with np.errstate(all="ignore"):  # a wrong closed form may give NaN or inf
                back = self.ell(np.asarray(self.exact_inverse(logs[::21]), dtype=float))
            if not np.all(np.abs(back - logs[::21]) <= GRID_RTOL * (1.0 + np.abs(logs[::21]))):
                raise PreconditionError(f"{self.name or 'scaling function'}: exact_inverse is not "
                                        "log y -> s with ell(s) = log y on the grid")

    # -- construction-time checks -------------------------------------

    def grid(self) -> np.ndarray:
        return log_grid(self.domain_floor, self.domain_floor * 10.0**GRID_DECADES)

    def _verify_on_grid(self, g: np.ndarray, s: np.ndarray, logs: np.ndarray) -> None:
        """Check monotonicity (no step of log f the wrong way) and the
        envelope on every grid pair i < j from logs = ell(s): with a (b) =
        log f - d_lo (d_hi) s, a_j - a_i >= log c_lo and b_j - b_i <= log
        c_hi, all up to GRID_RTOL.  A violation names the first failing pair
        in i-major order."""
        steps = np.diff(logs)
        up = self.monotonicity == INCREASING
        wrong = steps < _LOG_SLACK if up else steps > -_LOG_SLACK
        if wrong.any():
            kind = "nondecreasing" if up else "nonincreasing"
            raise PreconditionError(
                f"{self.name or 'scaling function'}: not {kind} near r={g[int(np.argmax(wrong))]:g}"
            )
        env = self.envelope
        a, b = logs - env.d_lo * s, logs - env.d_hi * s
        tol_lo = math.log(env.c_lo) + _LOG_SLACK
        tol_hi = math.log(env.c_hi) + math.log1p(GRID_RTOL)
        # min_j>i (a_j - a_i) = (min_j>i a_j) - a_i: extremes from the right check all pairs
        a_min = np.minimum.accumulate(a[::-1])[::-1]
        b_max = np.maximum.accumulate(b[::-1])[::-1]
        bad = (a_min[1:] - a[:-1] < tol_lo) | (b_max[1:] - b[:-1] > tol_hi)
        if not bad.any():
            return
        i = int(np.argmax(bad))
        j = i + 1 + int(np.argmax((a[i + 1 :] - a[i] < tol_lo) | (b[i + 1 :] - b[i] > tol_hi)))
        span, ratio = g[j] / g[i], math.exp(logs[j] - logs[i])
        raise PreconditionError(
            f"{self.name or 'scaling function'}: envelope violated at "
            f"(r={g[i]:g}, R={g[j]:g}): ratio={ratio:g} outside "
            f"[{env.c_lo * span**env.d_lo:g}, {env.c_hi * span**env.d_hi:g}]"
        )

    def _ell_checked(self, s, t: Optional[float] = None):
        """ell(s), raising EvaluationError where it is NaN or +inf (f not
        finite); -inf, where f is 0, is a value.  Given t = e**s, a user's
        f is called at t itself."""
        v = self.ell(s) if t is None or self._at is None else self.ell(s, t)
        if not _all(v < math.inf):  # false for NaN too
            raise EvaluationError(
                f"{self.name or 'scaling function'}: non-finite value at "
                f"r={_first(np.exp(s), ~(np.asarray(v) < math.inf)):g}"
            )
        return v

    # -- evaluation ----------------------------------------------------

    def __call__(self, r):
        if self._at is not None:  # a user's f, at r itself
            return self._at(r)
        if isinstance(r, float) and r > 0.0:  # the common case, without numpy's array handling
            v = self.ell(math.log(r))
            return math.exp(v) if not v > _S_HI else math.inf
        return _log_at(self.ell, r, exp=True)

    def log_value(self, r):
        """log f(r) = ell(log r), exact even where f underflows."""
        return _log_at(self.ell, r)


#: a step of log f down by more than this breaks nondecreasing on the grid
#: (f falls by more than the relative GRID_RTOL)
_LOG_SLACK = math.log1p(-GRID_RTOL)


def _first(a, mask) -> float:
    """The first entry of a where mask holds; a and mask may be scalars."""
    return float(np.asarray(a, dtype=float)[mask][0])


def _all(mask) -> bool:
    """mask.all(), without a reduction for a scalar mask."""
    return bool(mask.all()) if isinstance(mask, np.ndarray) else bool(mask)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # as a decorator, at half the cost
def _log_at(ell: Callable, r, exp: bool = False):
    """ell(log r), or with exp its exp: a float for a float or 0-d r, else
    an array of r's shape; quiet where r = 0 (s = -inf), r < 0 (s is NaN)
    or exp passes the float range (inf)."""
    r = np.asarray(r, dtype=float)
    v = ell(np.log(r))
    v = np.exp(v) if exp else v
    return float(v) if r.ndim == 0 else v


def _checked(vals: np.ndarray, g: np.ndarray, name: str) -> np.ndarray:
    """vals, checked finite and positive: EvaluationError names the first r
    of g where they are not, a non-finite value before a non-positive one."""
    if not (0.0 < vals.min() and vals.max() < math.inf):  # true for NaN too
        for bad, what in ((~np.isfinite(vals), "non-finite"), (vals <= 0, "non-positive")):
            if bad.any():
                raise EvaluationError(f"{name or 'scaling function'}: {what} value at r={g[bad][0]:g}")
    return vals


def _grid_values(evaluator: Callable, g: np.ndarray, name: str = "") -> np.ndarray:
    """The evaluator on a grid, one call per point on Python floats, checked."""
    return _checked(np.array([float(evaluator(r)) for r in g.tolist()]), g, name)


def _grid_logs(evaluator: Callable, g: np.ndarray, s: np.ndarray, name: str) -> tuple:
    """(ell, f at r, log f on the grid g) for an evaluator, s = log g: a
    ``LogLog``'s ell, and no f at r.  For a user's f, f itself on floats
    and arrays (one array call, if that gives an array of g's shape on g,
    else one call per element) and ell(s) = log f(e**s).  f must be finite
    and positive on the grid: EvaluationError names the first r where not."""
    if isinstance(evaluator, LogLog):
        logs = np.asarray(evaluator.ell(s), dtype=float)
        for bad, what in ((~(logs < math.inf), "non-finite"), (logs == -math.inf, "non-positive")):
            if bad.any():
                raise EvaluationError(f"{name or 'scaling function'}: {what} value at r={g[bad][0]:g}")
        return evaluator.ell, None, logs
    try:
        out = evaluator(g)
    except (TypeError, ValueError):  # math functions, and `if r <= c`, reject arrays
        out = None
    takes_arrays = isinstance(out, np.ndarray) and out.shape == g.shape

    def at(r):
        if isinstance(r, float) or not np.ndim(r):
            return float(evaluator(float(r)))
        r = np.asarray(r, dtype=float)
        if takes_arrays:
            return np.asarray(evaluator(r), dtype=float)
        return np.array([float(evaluator(x)) for x in r.ravel().tolist()]).reshape(r.shape)

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def ell(s, r=None):
        # at r = e**s, or at r itself where given; s past the float range is
        # r = inf, f = 0 gives -inf and f < 0 NaN
        return np.log(at(np.exp(s) if r is None else r))

    vals = _checked(out.astype(float), g, name) if takes_arrays else _grid_values(evaluator, g, name)
    return ell, at, np.log(vals)


def _fit(s: np.ndarray, logs: np.ndarray, margin: float = 1e-6) -> Envelope:
    """The tightest power bracket of the grid pairs, from the slopes of log
    f between neighbours, with a multiplicative safety margin."""
    slopes = np.diff(logs) / np.diff(s)
    return Envelope(1.0 - margin, float(slopes.min()), 1.0 + margin, float(slopes.max()))


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
    state by hand.  The evaluator is taken as by ``ScalingFunction``, and
    its values must be finite and positive on the grid.
    """
    g = log_grid(domain_floor, domain_floor * 10.0**GRID_DECADES)
    s = np.log(g)
    return _fit(s, _grid_logs(evaluator, g, s, "")[2], margin)


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
    r = np.concatenate([factor * pts, pts])  # one call of f, on both
    vals = f(r)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise EvaluationError(f"{f.name or 'scaling function'}: non-finite value at r={r[bad][0]:g}")
    worst = float(np.max(vals[: pts.size] / vals[pts.size :]))
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


def inverse(f: ScalingFunction, y):
    """Solve f(t) = y for increasing f: t = e**s, s = ``log_inverse(f, log y)``.

    y is a float or 0-d array (a float comes back) or an array of targets
    (an array of the same shape comes back).  A root past the float range
    raises OverflowError naming its target.
    """
    y = np.asarray(y, dtype=float)[()]  # a numpy float for a float or 0-d y
    ok = (y > 0.0) & (y < math.inf)
    if not _all(ok):
        raise BracketError(f"target value {_first(y, ~ok)!r} not a positive real")
    s = log_inverse(f, np.log(y))
    over = s > _S_HI
    if not _all(~over):
        raise OverflowError(f"{f.name or 'scaling function'}: inverse of y={_first(y, over):g} overflows")
    t = np.exp(s)
    return float(t) if y.ndim == 0 else t


def log_inverse(f: ScalingFunction, log_y) -> np.ndarray:
    """s = log f^-1(y), the root of ell(s) = log y, for increasing f and an
    array of log y.  Where f^-1(y) leaves the float range s is still a
    float, so a caller that needs only ell of s never forms f^-1(y).

    Uses the exact inverse when the function carries one; its accuracy is
    the float conditioning of the closed form, not the stopping rule below.
    Otherwise it gallops out from s0 = log max(1, domain_floor) to find a
    bracket (so a function undefined at r = 1, such as powerlog with a
    negative log exponent, is first evaluated where it was verified), and
    runs regula falsi on (s, ell(s) - log y) with the Illinois modification
    (Dowell & Jarratt 1971).  A bisection step, the midpoint in s, replaces
    every interpolated point that is unusable, so the bracket stays valid
    and no smoothness is assumed.  Returns the first s with |ell(s) - log y|
    <= 1e-12 (f within 1e-12 of y, relative), or the middle of the bracket
    once it is two adjacent floats or after 200 steps.  All targets share
    one gallop, then take the same steps at once: one evaluation of ell on
    the whole array per step, with the state of the targets already solved
    left as it is.
    """
    if f.monotonicity != INCREASING:
        raise PreconditionError("inverse requires an increasing function")
    if f.exact_inverse is not None:
        return f.exact_inverse(log_y)
    log_y = np.asarray(log_y, dtype=float)
    shape, log_y = log_y.shape, log_y.ravel()
    lo, g_lo, hi, g_hi = _auto_brackets(f, log_y)
    # g = ell - log y from here; the state, one entry per target, is updated
    # in place where the target is unsolved; fixed shapes keep the
    # allocations alike from step to step, so that they reuse the memory
    # freed by the step before
    g_lo -= log_y
    g_hi -= log_y
    at_lo = np.abs(g_lo) <= _INVERSE_RTOL
    out = np.where(at_lo, lo, hi)
    unsolved = ~at_lo & (np.abs(g_hi) > _INVERSE_RTOL)
    kept = np.zeros(log_y.shape)  # +1 / -1 where the last step kept lo / hi
    for _ in range(_INVERSE_MAX_ITER):
        if not unsolved.any():
            break
        # interpolate where g_lo is finite (it is -inf where f(lo) = 0); a
        # point outside the bracket falls back to bisection
        with np.errstate(invalid="ignore", divide="ignore"):  # unused where g_lo = -inf
            s = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        s = np.where((g_lo > -math.inf) & (lo < s) & (s < hi), s, 0.5 * (lo + hi))
        g = f._ell_checked(s) - log_y
        # done: solved, or the bracket is two adjacent floats (s is lo or hi)
        done = unsolved & ((np.abs(g) <= _INVERSE_RTOL) | ~((lo < s) & (s < hi)))
        np.copyto(out, s, where=done)
        unsolved &= ~done
        short = g < 0.0
        below, above = unsolved & short, unsolved & ~short
        np.multiply(g_hi, 0.5, out=g_hi, where=below & (kept < 0))  # kept twice: halve
        np.multiply(g_lo, 0.5, out=g_lo, where=above & (kept > 0))
        np.copyto(lo, s, where=below)
        np.copyto(g_lo, g, where=below)
        np.copyto(hi, s, where=above)
        np.copyto(g_hi, g, where=above)
        np.copyto(kept, -1.0, where=below)
        np.copyto(kept, 1.0, where=above)
    np.copyto(out, 0.5 * (lo + hi), where=unsolved)
    return out.reshape(shape)


#: the bracketing gallop moves s by a step that starts at log 2 and doubles
#: at every step, up to this cap
_GALLOP_MAX_STEP = 64.0 * math.log(2.0)
#: s = log t of the least and the largest positive float t (so |log y| <= -_S_LO
#: for every float y > 0)
_S_LO, _S_HI = math.log(math.ulp(0.0)), math.log(sys.float_info.max)


def _auto_brackets(f: ScalingFunction, log_y: np.ndarray) -> tuple[np.ndarray, ...]:
    """(lo, ell(lo), hi, ell(hi)) in s for each target of a 1-d log y, with
    ell(lo) < log y <= ell(hi) or ell(lo) <= log y < ell(hi), from one
    gallop up to the largest target above ell(s0), s0 = log max(1,
    domain_floor), and one down to the smallest of the others.

    Each target gets the two points where a gallop towards it alone would
    stop: the first point past it (searchsorted on the running extreme, so
    that it is the first even where f was not verified monotone) and the
    one before.
    """
    lo, g_lo, hi, g_hi = (np.empty_like(log_y) for _ in range(4))
    t0 = max(1.0, f.domain_floor)
    s0 = math.log(t0)
    l0 = float(f._ell_checked(s0, t0))  # a user's f at t0 itself, not at e**s0
    up = log_y > l0
    if up.any():
        ss, ls = _gallop_points(f, float(log_y[up].max()), s0, l0)
        k = np.searchsorted(np.maximum.accumulate(ls), log_y[up])  # first ls[k] >= log y
        lo[up], g_lo[up], hi[up], g_hi[up] = ss[k - 1], ls[k - 1], ss[k], ls[k]
    down = ~up
    if down.any():
        ss, ls = _gallop_points(f, float(log_y[down].min()), s0, l0)
        # first k >= 1 with ls[k] <= log y: the gallop tests its steps, not s0
        run = np.minimum.accumulate(ls[1:])[::-1]
        k = len(ls) - np.searchsorted(run, log_y[down], side="right")
        lo[down], g_lo[down], hi[down], g_hi[down] = ss[k], ls[k], ss[k - 1], ls[k - 1]
    return lo, g_lo, hi, g_hi


def _gallop_points(
    f: ScalingFunction, log_y: float, s0: float, l0: float
) -> tuple[np.ndarray, np.ndarray]:
    """Points s and values ell(s) of s0 and of every point a gallop to log y
    passes.

    The gallop starts at s0 = log t0, so a target above f(t0) never
    evaluates f below 1 or below the verified domain, and steps towards log
    y until a value reaches it.  A step that leaves the float range in t = e**s, or
    to a point where ell is NaN or +inf or raises, is retried from the same
    s with half its length; once that no longer moves s, BracketError.  The
    points depend on f alone, so the gallop towards y passes a prefix of the
    points of the gallop towards any target farther out.
    """
    s, ss, ls = s0, [s0], [l0]
    up = l0 < log_y
    step = math.log(2.0)
    while True:
        ns = s + step if up else s - step
        if ns == s:
            side = "above" if up else "below"
            raise BracketError(
                f"could not bracket y={math.exp(log_y):g} from {side}: no finite value past t={math.exp(s):g}"
            )
        nl = None
        if _S_LO < ns < _S_HI:
            try:
                nl = float(f._ell_checked(ns))
            except (OverflowError, EvaluationError):
                pass
        if nl is None:
            step *= 0.5
            continue
        ss.append(ns)
        ls.append(nl)
        if (nl >= log_y) if up else (nl <= log_y):
            return np.array(ss), np.array(ls)
        s = ns
        step = min(2.0 * step, _GALLOP_MAX_STEP)


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


def log_rate(candidate: RateCandidate, t):
    """log of a rate candidate at a time t > 1, or at an array of times,
    from the ell of its functions alone, with u = log t:

        direct:       ell_phi(u)
        subcritical:  log_inverse(phi, u) + ell_g(u)
        critical:     log_inverse(phi, u + ell_g(u))

    The rate itself is never formed, so it may pass the float range.
    """
    if not isinstance(t, float):
        t = np.asarray(t, dtype=float)
    early = t <= 1
    if np.any(early):
        raise PreconditionError(f"rate candidates are defined for t > 1, got {_first(t, early)!r}")
    u = np.log(t)
    if candidate.recipe == DIRECT:
        return candidate.phi.ell(u)
    if candidate.recipe == SUBCRITICAL:
        return log_inverse(candidate.phi, u) + candidate.g.ell(u)
    return log_inverse(candidate.phi, u + candidate.g.ell(u))


def evaluate_rate(candidate: RateCandidate, t):
    """A rate candidate at a time t > 1, or at an array of times: exp of
    ``log_rate``, which must give a finite positive value (EvaluationError
    names the first t where not)."""
    with np.errstate(over="ignore"):  # past the float range is inf, which is reported
        v = np.exp(log_rate(candidate, t))
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


# Each preset is one ell(s) = log f(e**s), an array expression in s.


def _check_domain(s, least: float, undefined: str) -> None:
    """EvaluationError undefined.format(e**s) at the first s below least or NaN."""
    ok = s >= least  # false for NaN too
    if not _all(ok):
        raise EvaluationError(undefined.format(_first(np.exp(s), ~np.asarray(ok))))


def power(exponent: float, domain_floor: float = 1e-6) -> ScalingFunction:
    """f(r) = r**exponent: ell(s) = exponent * s."""
    mono = INCREASING if exponent >= 0 else DECREASING
    inv = (lambda log_y, p=exponent: log_y / p) if exponent != 0 else None
    return ScalingFunction(
        LogLog(lambda s, p=exponent: p * s),
        mono,
        Envelope(1.0, exponent, 1.0, exponent),
        domain_floor,
        name=f"power:{exponent:g}",
        exact_inverse=inv,
    )


def constant(value: float) -> ScalingFunction:
    """f(r) = value; admissible wherever only nonincreasing g is required."""
    if value <= 0:
        raise PreconditionError("constant preset must be positive")
    return ScalingFunction(
        LogLog(lambda s, lv=math.log(value): np.full(np.shape(s), lv)),
        DECREASING,
        Envelope(1.0, 0.0, 1.0, 0.0),
        1e-6,
        name=f"const:{value:g}",
    )


def powerlog(exponent: float, log_exponent: float, domain_floor: float = 2.0) -> ScalingFunction:
    """f(r) = r**exponent * (log r)**log_exponent, for r > 1.

    With s = log r, ell(s) = p s + q log s for p = exponent and q =
    log_exponent.  With p > 0 and q > 0, f increases from 0 at r = 1 and
    its inverse has a closed form: ell(s) = log y reads p s + q log s =
    log y, so

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

    def ell(s, p=exponent, q=log_exponent):
        _check_domain(s, least, undefined)
        if not q:  # (log r)**0 is 1, at r = 1 too
            return p * s
        if _all(s > 0.0):
            return p * s + q * np.log(s)
        with np.errstate(divide="ignore"):  # q > 0: log s = -inf at s = 0, where f = 0
            return p * s + q * np.log(s)

    inv = None
    k = log_exponent / exponent if exponent > 0.0 else math.nan
    # the closed form needs q/p, and log y / q for every positive float y, finite
    if log_exponent > 0.0 and math.isfinite(k) and math.isfinite(_S_LO / log_exponent):
        inv = lambda log_y, q=log_exponent, k=k: k * wrightomega(log_y / q - math.log(k))  # noqa: E731

    ends = ell(np.log([domain_floor, domain_floor * 10.0**GRID_DECADES]))
    return ScalingFunction(
        LogLog(ell),
        INCREASING if ends[1] >= ends[0] else DECREASING,
        _FIT,
        domain_floor,
        name=name,
        exact_inverse=inv,
    )


def exp_decay(c0: float, gamma: float) -> ScalingFunction:
    """h(r) = exp(-c0 * r**gamma), the stretched-exponential tail profile:
    ell(s) = -c0 (e**s)**gamma.  e**s, raised to gamma, gives r**gamma
    within gamma times the rounding of s = log r, half the error of
    exp(gamma s), which rounds gamma s as well."""
    if c0 <= 0 or gamma <= 0:
        raise PreconditionError("exp-decay needs c0 > 0 and gamma > 0")
    # keep the verification grid clear of exp underflow
    floor = min(1e-6, (700.0 / c0) ** (1.0 / gamma) / 10.0**GRID_DECADES)
    return ScalingFunction(
        LogLog(lambda s, a=c0, g=gamma: -a * np.exp(s) ** g),
        DECREASING,
        _FIT,
        floor,
        name=f"exp-decay:{c0:g},{gamma:g}",
    )


def iterated_log_g(eps: float, domain_floor: float = 16.0) -> ScalingFunction:
    """g(t) = exp(-(log t) * (log log t)**(1+eps)); decays faster than any power.

    ell(s) = -s (log s)**(1+eps), defined for t >= e: below it log log t < 0,
    and its power is complex.
    """
    name = f"iterated-log-g:{eps:g}"
    undefined = f"{name}: undefined at t={{:g}} (log log t < 0)"

    def ell(s, e=eps):
        _check_domain(s, 1.0, undefined)
        return -s * np.log(s) ** (1.0 + e)

    # the verification grid stays within exp range for moderate eps
    return ScalingFunction(LogLog(ell), DECREASING, _FIT, domain_floor, name=name)


def loglog_g(eps: float, domain_floor: float = 4.0) -> ScalingFunction:
    """g(t) = (log log(e^e + t))**eps / log(e + t).

    eps = 0 gives exactly 1/log(e + t); eps = 1 the (log log t)/(log t) shape.
    """

    def ell(s, e=eps):
        t = np.exp(s)
        return e * np.log(np.log(np.log(_EE + t))) - np.log(np.log(_E + t))

    return ScalingFunction(LogLog(ell), DECREASING, _FIT, domain_floor, name=f"loglog-g:{eps:g}")


#: the preset of each id head, and its number of arguments
_PRESETS = {
    "power": (power, 1), "powerlog": (powerlog, 2), "exp-decay": (exp_decay, 2),
    "iterated-log-g": (iterated_log_g, 1), "loglog-g": (loglog_g, 1), "const": (constant, 1),
}


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
    try:
        args = [float(a) for a in tail.split(",")] if tail else []
    except ValueError as exc:
        raise ValueError(f"bad numeric arguments in preset id {spec!r}") from exc
    make, arity = _PRESETS.get(head.strip().lower(), (None, 0))
    if make is None:
        raise ValueError(f"unknown scaling preset {spec!r}")
    if len(args) != arity:
        raise ValueError(f"wrong argument count in preset id {spec!r}")
    return make(*args)
