"""Exact-increment path sampling for the simulable kernel presets.

Increments over a step of length dt are drawn exactly from the model's law
object at time dt (see the samplers in kernels), so there is no
discretization error in the marginals.

The only discretization artifact is the time grid itself: window extrema
over grid points overestimate path infima and underestimate path suprema
for jump processes.  Consumers account for that directionally.

A scheme builds its grid once per horizon, as one array of at most
MAX_GRID_POINTS points (DyadicBlocks lays every block out in a single
broadcast), and keeps it with its steps on the scheme instance; every path
drawn with that scheme and horizon shares them as read-only arrays, and each
call writes only its positions, once.  A time window is the slice of the
sorted grid between two searchsorted indices, so a path functional reads only
the points inside it.

Randomness comes from numpy's counter-based Philox generator; replica r of
an experiment with master seed s, both in [0, 2^64), uses the 128-bit key
s + r 2^64, so distinct (s, r) pairs get distinct keys and replicas are
independent, order-free, and individually regenerable.  A Philox stream is
fixed by its key and counter alone, so the key words [s, r] reach Philox
directly, as the state of a seed sequence that returns them: no OS entropy
is read, and the draws equal Philox(key=s + r 2^64)'s.

Entry points: ``replica_rng(s, r)`` regenerates replica r's stream, and
``scheme_from_id`` reads a path's ``scheme_label`` back into its scheme.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import PreconditionError, UnsupportedModelError
from .kernels import KernelModel
from .scaling import _id_float

#: the most points a scheme lays out for one horizon.  A grid is kept with
#: its steps (two floats a point) and every path writes dim positions a
#: point, so a larger grid costs memory the law never does; the cap sits
#: more than 2000 times above the largest workload grid (4353 points).
MAX_GRID_POINTS = 10**7


def _check_size(label: str, points: float, horizon: float) -> None:
    """PreconditionError naming the point count where it passes the cap."""
    if not points <= MAX_GRID_POINTS:  # true for NaN too
        raise PreconditionError(
            f"{label} to horizon {horizon:g} needs {points:.4g} points, "
            f"above MAX_GRID_POINTS = {MAX_GRID_POINTS}"
        )


class _Scheme:
    """What the sampling schemes share: their grids, built once per horizon."""

    def grid(self, horizon: float) -> tuple[np.ndarray, np.ndarray]:
        """(times, steps) for this horizon, steps = np.diff(times).

        Built by ``times`` on the first call for a horizon, checked to
        strictly increase from 0, and kept on the instance for its lifetime,
        so every later call returns the same two read-only arrays.  A real
        horizon (a number or a 0-d array) keys the grids as a float.  An
        invalid horizon is never kept: it raises on every call.
        """
        horizon = _real(horizon, "horizon")
        grid = self._grids.get(horizon)
        if grid is None:
            times = self.times(horizon)
            _check_times(times)
            steps = np.diff(times)
            times.flags.writeable = steps.flags.writeable = False
            grid = self._grids[horizon] = (times, steps)
        return grid

    @cached_property
    def _grids(self) -> dict:
        # not a field (nor is label): equality, hash and repr see only the
        # parameters
        return {}

    def __getstate__(self):
        # a pickle or copy rebuilds its own grids, read-only again
        return {k: v for k, v in self.__dict__.items() if k != "_grids"}


@dataclass(frozen=True)
class UniformGrid(_Scheme):
    dt: float

    def __post_init__(self):
        if not 0 < self.dt < math.inf:  # false for NaN too
            raise PreconditionError("dt must be positive and finite")

    def times(self, horizon: float) -> np.ndarray:
        if not 0 < horizon < math.inf:
            raise PreconditionError("horizon must be positive and finite")
        steps = horizon / self.dt + 1e-9
        _check_size(self.label, steps + 1.0, horizon)  # the n + 1 points of n dt, to within one
        n = int(math.floor(steps))
        ts = self.dt * np.arange(n + 1)
        if ts[-1] < horizon - 1e-12 * horizon:
            ts = np.append(ts, horizon)
        else:  # n dt lies within rounding of the horizon
            ts[-1] = horizon
        return ts

    @cached_property
    def label(self) -> str:
        return f"uniform:{_id_float(self.dt)}"


@dataclass(frozen=True)
class DyadicBlocks(_Scheme):
    """per_block equal steps inside each dyadic block [2^n, 2^(n+1)].

    The warm-up interval [0, 1] gets per_block equal steps as well, so a
    horizon of 2^N, N >= 0, yields (N+1) * per_block + 1 grid points laid
    out to match the dyadic-window structure of the block-event arguments.
    """

    per_block: int = 256

    def __post_init__(self):
        if not self.per_block >= 1:
            raise PreconditionError("per_block must be >= 1")

    def times(self, horizon: float) -> np.ndarray:
        """The per-block linspace grids, joined and deduplicated.

        Row k of one (blocks, per_block + 1) broadcast is exactly
        np.linspace(lo_k, hi_k, per_block + 1); the rows are non-decreasing
        and each starts where the last ended, so dropping repeats of the
        previous value equals np.unique of the joined blocks.
        """
        if not 0 < horizon < math.inf:
            raise PreconditionError("horizon must be positive and finite")
        n = self.per_block
        # the warm-up block and one per power of 2 below the horizon (to
        # within one), n + 1 points each
        blocks = 1 + max(0, math.ceil(math.log2(horizon)))
        _check_size(self.label, blocks * (n + 1.0), horizon)
        los, his = [0.0], [min(1.0, horizon)]
        lo = 1.0
        while lo < horizon:
            los.append(lo)
            lo *= 2.0
            his.append(min(lo, horizon))
        lo, hi = np.array(los), np.array(his)
        step = (hi - lo) / n
        k = np.arange(n + 1.0)
        if step[0] == 0:  # horizon / per_block underflows: linspace's denormal rule
            grid = (k / n * hi)[None, :]
        else:
            grid = k * step[:, None] + lo[:, None]
        grid[:, -1] = hi
        ts = grid.ravel()
        return ts[np.concatenate(([True], ts[1:] != ts[:-1]))]

    @cached_property
    def label(self) -> str:
        return f"dyadic:{self.per_block}"


def _check_times(times: np.ndarray) -> None:
    """PreconditionError unless times is a non-empty 1-d grid that strictly
    increases from 0."""
    if times.ndim != 1 or not times.shape[0]:
        raise PreconditionError("times must be a non-empty 1-d grid")
    if times[0] != 0.0 or not (times[1:] > times[:-1]).all():
        raise PreconditionError("times must strictly increase from 0")


def _real(x, name: str) -> float:
    """x as a float: a real number, or a real 0-d array."""
    if not isinstance(x, numbers.Real):
        a = np.asarray(x)
        if a.ndim or a.dtype.kind not in "biuf":
            raise PreconditionError(f"{name} must be a real number, got {x!r}")
    return float(x)


def scheme_from_id(spec: str):
    """Parse scheme ids as labels write them: "uniform:DT" or
    "dyadic:PER_BLOCK" (blocks [2^n, 2^(n+1)]).  ValueError names a
    malformed id, or one its scheme rejects."""
    head, _, tail = spec.partition(":")
    head, parts = head.strip().lower(), tail.split(":")
    try:
        if head == "uniform" and len(parts) == 1:
            return UniformGrid(dt=float(tail))
        if head == "dyadic" and len(parts) == 1:
            return DyadicBlocks(per_block=int(tail))
    except (ValueError, PreconditionError) as exc:
        raise ValueError(f"bad numeric arguments in scheme id {spec!r}") from exc
    raise ValueError(f"not a scheme id: {spec!r} (uniform:DT or dyadic:PER_BLOCK)")


@dataclass(frozen=True)
class PathSkeleton:
    """A sampled trajectory on a deterministic time grid.

    From sample_path, times is the scheme's read-only grid, one array shared
    by every path drawn with that scheme and horizon, and checked once, when
    the scheme built it; a skeleton built directly checks its own.
    """

    times: np.ndarray
    positions: np.ndarray  # shape (len(times), dim)
    seed: int  # the Philox key the path was drawn with
    model_id: str
    scheme_label: str

    def __post_init__(self):
        _check_times(self.times)
        self._check_positions()

    def _check_positions(self) -> None:
        t, x = self.times, self.positions
        if x.ndim != 2 or x.shape[0] != t.shape[0] or not x.shape[1]:
            raise PreconditionError(
                f"positions must have shape (len(times), dim), got {x.shape}"
            )

    @classmethod
    def _on_grid(
        cls, times: np.ndarray, positions: np.ndarray, seed: int, model_id: str, scheme_label: str
    ) -> "PathSkeleton":
        """A skeleton on a scheme's grid, which _Scheme.grid checked when it
        built it: only the shape of positions is checked here."""
        path = object.__new__(cls)
        path.__dict__.update(
            times=times, positions=positions, seed=seed, model_id=model_id, scheme_label=scheme_label
        )
        path._check_positions()
        return path

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


class _ReplicaKey(ISeedSequence):
    """The Philox key words [seed, replica], both in [0, 2^64).

    Philox takes its key as the two uint64 words of its seed sequence's
    state; this one returns the words as they are, so Philox(_ReplicaKey(s,
    r)) has the state and draws of Philox(key=s + r 2^64) without the OS
    entropy a default SeedSequence reads.
    """

    __slots__ = ("seed", "replica")

    def __init__(self, seed: int, replica: int):
        seed, replica = operator.index(seed), operator.index(replica)
        if not (0 <= seed < 2**64 and 0 <= replica < 2**64):
            raise PreconditionError("seed and replica must lie in [0, 2^64)")
        self.seed, self.replica = seed, replica

    @property
    def key(self) -> int:
        """The 128-bit key seed + replica * 2^64."""
        return self.seed + (self.replica << 64)

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a replica key is two uint64 words")
        return np.array((self.seed, self.replica), dtype=np.uint64)


def replica_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """Counter-based generator for one replica (key seed + replica * 2^64).

    The key words reach Philox through _ReplicaKey, so no OS entropy is
    read; each call builds its own generator at counter 0.
    """
    return np.random.Generator(np.random.Philox(_ReplicaKey(seed, replica)))


def sample_increments(
    model: KernelModel, dts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Exact increments for consecutive steps of lengths dts; shape (m, dim)."""
    if model.exact_law is None:
        raise UnsupportedModelError(f"{model.model_id} has no exact law to sample")
    return model.exact_law.increments(dts, rng)


def sample_path(
    model: KernelModel,
    horizon: float,
    scheme,
    seed: int,
    replica: int = 0,
    start: Optional[np.ndarray] = None,
) -> PathSkeleton:
    """Sample one trajectory; identical arguments reproduce it bit-for-bit.

    The path's times are scheme.grid(horizon)'s read-only array, shared with
    every path of that scheme and horizon; only its positions are its own.
    start, if given, is the path's point at time 0, of shape (dim,).
    """
    times, steps = scheme.grid(horizon)
    key = _ReplicaKey(seed, replica)
    incs = sample_increments(model, steps, np.random.Generator(np.random.Philox(key)))
    positions = np.empty((times.shape[0], incs.shape[1]))
    positions[0] = 0.0
    np.cumsum(incs, axis=0, out=positions[1:])
    if start is not None:
        positions += _point(start, incs.shape[1], "start")
    return PathSkeleton._on_grid(
        times=times,
        positions=positions,
        seed=key.key,
        model_id=model.model_id,
        scheme_label=scheme.label,
    )


# ---------------------------------------------------------------------------
# path functionals
# ---------------------------------------------------------------------------


def _point(x, dim: int, name: str) -> np.ndarray:
    """x as a float point in R^dim; no broadcasting of a shorter point."""
    p = np.asarray(x, dtype=float)
    if p.shape != (dim,):
        raise PreconditionError(f"{name} must have shape ({dim},), got {p.shape}")
    return p


def _sq_distance(path: PathSkeleton, point, name: str, rows: slice) -> np.ndarray:
    """Squared distances |X_t - point|^2 over the given rows of the path.

    Summed by coordinate column, left to right: for dim <= 7 this is the
    row-wise sum bit for bit, beyond that it agrees to rounding.
    """
    x, p = path.positions[rows], _point(point, path.dim, name)
    d = x[:, 0] - p[0]
    sq = d * d
    for j in range(1, p.shape[0]):
        d = x[:, j] - p[j]
        sq += d * d
    return sq


def _window(path: PathSkeleton, a: float, b: float, include_left: bool) -> slice:
    """The grid indices with a <= t <= b (a < t <= b without the left end)."""
    if not a <= b:
        raise PreconditionError("window must satisfy a <= b")
    if not (a >= 0 and b <= path.horizon * (1 + 1e-12)):
        raise PreconditionError("window must lie inside [0, horizon]")
    t = path.times
    lo = int(t.searchsorted(a, "left" if include_left else "right"))
    hi = int(t.searchsorted(b, "right"))
    if lo >= hi:
        raise PreconditionError(f"no grid points inside window ({a:g}, {b:g}]")
    return slice(lo, hi)


def window_min_distance(
    path: PathSkeleton, origin, a: float, b: float, include_left: bool = True
) -> float:
    """Minimum over grid times in the window of d(X_t, origin).

    Overestimates the continuous-time infimum for jump processes: the grid
    can miss the deepest excursion.
    """
    rows = _window(path, a, b, include_left)
    return math.sqrt(_sq_distance(path, origin, "origin", rows).min())


def window_max_distance(
    path: PathSkeleton, origin, a: float, b: float, include_left: bool = True
) -> float:
    """Maximum over grid times in the window; underestimates the true sup."""
    rows = _window(path, a, b, include_left)
    return math.sqrt(_sq_distance(path, origin, "origin", rows).max())


def first_hit_time(path: PathSkeleton, center, r: float) -> Optional[float]:
    """First grid time t > 0 with d(X_t, center) <= r, or None."""
    if not r > 0:
        raise PreconditionError("radius must be positive")
    # times[0] == 0, so the times t > 0 are the rows from 1 on
    hit = np.sqrt(_sq_distance(path, center, "center", slice(1, None))) <= r
    i = int(hit.argmax())
    return float(path.times[i + 1]) if hit[i] else None
