"""Oracles, tolerances and the correctness check behind every op.

Each check returns ``(ok, digits, why)``.  ``digits`` is
-log10(relative error) against an exact oracle, capped at ``DIGITS_CAP``,
or None when the op has no oracle.  The tolerances are part of the
benchmark's definition: a change that needs a looser one has made the
program less accurate, and must show up as failed ops, not as a new
tolerance.
"""

from __future__ import annotations

import math

#: relative tolerance of each oracle comparison, by query kind
TOL = {
    # block partial sum against the antiderivative over [t0, t0 * 2**240];
    # the blocks are integrated to epsrel 1e-9
    "partial_sum": 1e-7,
    # exact-law density, cdf and sf against the Cauchy and Gaussian closed forms
    "density": 1e-6,
    "cdf": 1e-6,
    "sf": 1e-6,
    # radial_sf + radial_cdf = 1, absolute
    "sf_plus_cdf": 1e-9,
    # green_function(QUADRATURE) against the Riesz potential
    "green": 2e-3,
    # f(inverse(f, y)) = y; inverse() promises 1e-12
    "inverse": 1e-9,
}
#: two-sided binomial bound on Monte Carlo estimates, in standard deviations
MC_Z = 5.0
#: oracle digits are capped so that round-off churn does not count
DIGITS_CAP = 12.0

OK = (True, None, "")


def digits(relerr: float) -> float:
    if relerr <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(relerr))


def relerr(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def against(value, exact: float, tol: float, what: str):
    """Compare against an oracle; non-finite values fail with no digits."""
    value = float(value)
    if not math.isfinite(value):
        return False, None, f"{what} = {value!r}"
    err = relerr(value, exact)
    return err <= tol, digits(err), f"{what} relerr {err:.3g} > {tol:g}" if err > tol else ""


def combine(*results):
    """All checks must pass; the worst digits and the first reason are kept."""
    ok = all(r[0] for r in results)
    ds = [r[1] for r in results if r[1] is not None]
    why = next((r[2] for r in results if not r[0]), "")
    return ok, (min(ds) if ds else None), why


# -- oracles ---------------------------------------------------------------


def riesz_green(alpha: float, dim: int, r: float) -> float:
    """Green function of the isotropic alpha-stable law, exp(-t|xi|^alpha)."""
    return (
        math.gamma((dim - alpha) / 2.0)
        / (2.0**alpha * math.pi ** (dim / 2.0) * math.gamma(alpha / 2.0))
        * r ** (alpha - dim)
    )


def cauchy_density(dim: int, t: float, r: float) -> float:
    return (
        math.gamma((dim + 1) / 2.0)
        / math.pi ** ((dim + 1) / 2.0)
        * t
        / (t * t + r * r) ** ((dim + 1) / 2.0)
    )


def cauchy_cdf(dim: int, t: float, r: float) -> float:
    """P(|X_t| <= r) for the d-dimensional Cauchy law, d = 1, 2, 3."""
    if dim == 1:
        return (2.0 / math.pi) * math.atan(r / t)
    if dim == 2:
        return 1.0 - t / math.hypot(t, r)
    return (2.0 / math.pi) * (math.atan(r / t) - t * r / (t * t + r * r))


def cauchy_sf(dim: int, t: float, r: float) -> float:
    """P(|X_t| > r), written without cancellation in the far tail."""
    if dim == 1:
        return (2.0 / math.pi) * math.atan(t / r)
    if dim == 2:
        return t / math.hypot(t, r)
    return (2.0 / math.pi) * (math.atan(t / r) + t * r / (t * t + r * r))


def gaussian_density(dim: int, t: float, r: float) -> float:
    return (4.0 * math.pi * t) ** (-dim / 2.0) * math.exp(-r * r / (4.0 * t))


def gaussian_cdf(dim: int, t: float, r: float) -> float:
    """P(|X_t| <= r) for per-coordinate variance 2t."""
    u = r / (2.0 * math.sqrt(t))
    if dim == 1:
        return math.erf(u)
    if dim == 2:
        return -math.expm1(-u * u)
    return math.erf(u) - 2.0 * u * math.exp(-u * u) / math.sqrt(math.pi)


def gaussian_sf(dim: int, t: float, r: float) -> float:
    u = r / (2.0 * math.sqrt(t))
    if dim == 1:
        return math.erfc(u)
    if dim == 2:
        return math.exp(-u * u)
    return math.erfc(u) + 2.0 * u * math.exp(-u * u) / math.sqrt(math.pi)


def law_oracle(preset: str, quantity: str, t: float, r: float):
    """Closed form of density/cdf/sf for the presets that have one, else None."""
    head, _, tail = preset.partition(":")
    if head == "cauchy1d":
        alpha, dim = 1.0, 1
    elif head == "gaussian":
        dim = int(tail)
        return {"density": gaussian_density, "cdf": gaussian_cdf, "sf": gaussian_sf}[
            quantity
        ](dim, t, r)
    elif head == "stable":
        a, d = tail.split(",")
        alpha, dim = float(a), int(d)
    else:
        return None
    if alpha != 1.0:
        return None
    if quantity == "density":
        return cauchy_density(dim, t, r)
    return cauchy_cdf(dim, t, r) if quantity == "cdf" else cauchy_sf(dim, t, r)


# -- checks ----------------------------------------------------------------


def check_label(label: str, expected: str):
    return (label == expected, None, f"label {label} != {expected}" if label != expected else "")


def check_density(preset: str, t: float, r: float, value):
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        return False, None, f"density {value!r} not positive"
    exact = law_oracle(preset, "density", t, r)
    return OK if exact is None else against(value, exact, TOL["density"], "density")


def check_probability(preset: str, quantity: str, t: float, r: float, value):
    """cdf or sf at 0 < r < inf.  Every law here has a positive density
    everywhere, so the cdf is above 0 and the sf below 1; the cdf may round
    to 1 and the sf to 0 in a far tail."""
    value = float(value)
    ok = 0.0 < value <= 1.0 if quantity == "cdf" else 0.0 <= value < 1.0
    if not ok:
        return False, None, f"{quantity} {value!r} outside {'(0, 1]' if quantity == 'cdf' else '[0, 1)'}"
    exact = law_oracle(preset, quantity, t, r)
    return OK if exact is None else against(value, exact, TOL[quantity], quantity)


def check_sf_cdf(preset: str, t: float, r: float, sf, cdf):
    total = float(sf) + float(cdf)
    return combine(
        check_probability(preset, "sf", t, r, sf),
        check_probability(preset, "cdf", t, r, cdf),
        (abs(total - 1.0) <= TOL["sf_plus_cdf"], None, f"sf + cdf = {total!r}"),
    )


def check_tail(preset: str, t: float, r: float, est):
    ok = est.estimate <= est.upper_bound
    return combine(
        check_probability(preset, "sf", t, r, est.estimate),
        (ok, None, "" if ok else f"estimate {est.estimate:g} > bound {est.upper_bound:g}"),
    )


def check_pair(pair, exact=None):
    """A BoundPair is finite and ordered; a DERIVED pair contains its oracle."""
    if not (math.isfinite(pair.lower) and math.isfinite(pair.upper)):
        return False, None, "non-finite bound"
    if not 0.0 <= pair.lower <= pair.upper:
        return False, None, f"bounds out of order ({pair.lower}, {pair.upper})"
    if exact is not None and pair.constants_source == "derived" and not pair.contains(exact):
        return False, None, f"derived pair [{pair.lower:g}, {pair.upper:g}] misses {exact:g}"
    return OK


def check_unit_interval(value):
    value = float(value)
    return (0.0 <= value <= 1.0, None, "" if 0.0 <= value <= 1.0 else f"value {value!r} outside [0, 1]")


def check_sweep(lo, hi):
    ok = math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi
    return (ok, None, "" if ok else f"sweep ratios ({lo!r}, {hi!r}) not in 0 < lo <= hi")


def mc_sigma(p_ref: float, n: int, n_ref: int) -> float:
    """Standard deviation of (estimate - reference) for binomial counts."""
    return math.sqrt(p_ref * (1.0 - p_ref) * (1.0 / n + 1.0 / n_ref))


def check_mc(estimate: float, p_ref: float, n: int, n_ref: int, upper_oracle=None):
    """Two-sided binomial bound at MC_Z around the committed reference; an
    optional continuous-time oracle bounds the grid-time estimate above."""
    sigma = mc_sigma(p_ref, n, n_ref)
    z = abs(estimate - p_ref) / sigma
    res = (z <= MC_Z, None, f"estimate {estimate:g} is {z:.2f} sigma from {p_ref:g}" if z > MC_Z else "")
    if upper_oracle is not None:
        s_up = math.sqrt(upper_oracle * (1.0 - upper_oracle) / n)
        ok = estimate <= upper_oracle + MC_Z * s_up
        res = combine(res, (ok, None, "" if ok else f"estimate {estimate:g} above oracle {upper_oracle:g}"))
    return res, z
