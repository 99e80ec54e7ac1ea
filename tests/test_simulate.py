import copy
import dataclasses
import hashlib
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from heatrates import kernels as kn
from heatrates import simulate as sim
from heatrates.errors import PreconditionError, UnsupportedModelError


CAUCHY = kn.from_id("cauchy1d")
GAUSS1 = kn.from_id("gaussian:1")
GAUSS3 = kn.from_id("gaussian:3")
STABLE15_1 = kn.from_id("stable:1.5,1")
STABLE15_3 = kn.from_id("stable:1.5,3")


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def _same_state(a, b) -> bool:
    """Bit generator states equal, their arrays compared by dtype and value."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


class TestGrids:
    def test_uniform(self):
        ts = sim.UniformGrid(0.25).times(2.0)
        assert ts[0] == 0.0 and ts[-1] == 2.0
        assert np.allclose(np.diff(ts), 0.25)

    def test_dyadic_blocks(self):
        g = sim.DyadicBlocks(per_block=4)
        ts = g.times(8.0)
        # blocks [0,1], [1,2], [2,4], [4,8] with 4 steps each
        assert ts[0] == 0.0 and ts[-1] == 8.0
        for edge in (1.0, 2.0, 4.0, 8.0):
            assert edge in ts
        assert len(ts) == 4 * 4 + 1

    @staticmethod
    def _linspace_unique(g, horizon, base):
        """The grid as per-block np.linspace calls joined by np.unique, the
        block ends being the powers of ``base``."""
        pieces = [np.linspace(0.0, min(1.0, horizon), g.per_block + 1)]
        lo = 1.0
        while lo < horizon:
            hi = min(lo * base, horizon)
            pieces.append(np.linspace(lo, hi, g.per_block + 1)[1:])
            lo *= base
        return np.unique(np.concatenate(pieces))

    # the blocks are [2^n, 2^(n+1)]; base names the ratio the reference uses
    @pytest.mark.parametrize("base", [2.0])
    @pytest.mark.parametrize("per_block", [1, 7, 64])
    @pytest.mark.parametrize(
        "horizon",
        [0.3, 1.0, 1.2, 5.0, 7.7, 64.0, 1000.3, 2.0**16,
         # blocks narrower than per_block ulps, and a first block whose
         # step underflows (linspace's denormal rule)
         1 + 2.3e-16, 2 + 1e-14, 5e-324, 1e-322],
    )
    def test_dyadic_matches_linspace_unique(self, base, per_block, horizon):
        g = sim.DyadicBlocks(per_block=per_block)
        ts = g.times(horizon)
        ref = self._linspace_unique(g, horizon, base)
        assert ts.shape == ref.shape and np.array_equal(ts, ref)
        assert ts[0] == 0.0 and ts[-1] == horizon and np.all(ts[1:] > ts[:-1])

    @pytest.mark.parametrize("dt, horizon", [(0.1, 0.3), (0.1, 0.7), (0.2, 0.6), (0.3, 0.9), (0.7, 2.1)])
    def test_uniform_ends_exactly_at_horizon(self, dt, horizon):
        # dt * n lands one ulp off the horizon here; it becomes the horizon
        ts = sim.UniformGrid(dt).times(horizon)
        assert ts[-1] == horizon
        assert len(ts) == round(horizon / dt) + 1
        assert np.all(ts[1:] > ts[:-1])

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_non_finite_horizon(self, horizon):
        for g in (sim.DyadicBlocks(), sim.UniformGrid(0.5)):
            with pytest.raises(PreconditionError):
                g.times(horizon)
        with pytest.raises(PreconditionError):
            sim.sample_path(GAUSS3, horizon, sim.DyadicBlocks(per_block=8), seed=0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt(self, dt):
        with pytest.raises(PreconditionError):
            sim.UniformGrid(dt).times(1.0)

    @pytest.mark.parametrize(
        "scheme, horizon, count",
        [(sim.UniformGrid(1e-300), 1.0, "1e\\+300"), (sim.UniformGrid(1e-9), 1.0, "1e\\+09"),
         (sim.UniformGrid(5e-324), 1e300, "inf"),
         (sim.DyadicBlocks(per_block=10**12), 4.0, "3e\\+12")],
    )
    def test_grid_size_is_capped(self, scheme, horizon, count):
        # the point count is known before any allocation, so a grid past the
        # cap raises, naming the count, without allocating any of it
        tracemalloc.start()
        try:
            for build in (scheme.times, scheme.grid):
                with pytest.raises(PreconditionError, match=f"needs {count} points, above MAX_GRID_POINTS"):
                    build(horizon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_grid_cap_is_far_above_the_workload_grids(self):
        # the long montecarlo paths: dyadic:256 to 2^16, 4353 points
        assert len(sim.DyadicBlocks(per_block=256).times(2.0**16)) == 4353
        assert sim.MAX_GRID_POINTS >= 1000 * 4353

    def test_scheme_ids(self):
        assert isinstance(sim.scheme_from_id("uniform:0.5"), sim.UniformGrid)
        assert sim.scheme_from_id("dyadic:128") == sim.DyadicBlocks(per_block=128)


class TestGridCache:
    # each scheme with two valid horizons
    SCHEMES = [("dyadic:64", 64.0, 16.0), ("uniform:0.25", 16.0, 4.0)]

    @pytest.mark.parametrize("spec, horizon, _other", SCHEMES)
    def test_builds_one_grid_per_horizon(self, spec, horizon, _other, monkeypatch):
        scheme = sim.scheme_from_id(spec)
        built = []
        times = type(scheme).times

        def counted(self, h):
            built.append(h)
            return times(self, h)

        monkeypatch.setattr(type(scheme), "times", counted)
        for i in range(50):
            sim.sample_path(GAUSS3, horizon, scheme, seed=11, replica=i)
        assert built == [horizon]

    @pytest.mark.parametrize("spec, horizon, _other", SCHEMES)
    def test_paths_share_one_read_only_grid(self, spec, horizon, _other):
        scheme = sim.scheme_from_id(spec)
        a = sim.sample_path(GAUSS3, horizon, scheme, seed=11, replica=0)
        b = sim.sample_path(GAUSS3, horizon, scheme, seed=11, replica=1)
        assert a.times is b.times
        with pytest.raises(ValueError):
            a.times[1] = 0.5
        times, steps = scheme.grid(horizon)
        assert times is a.times
        with pytest.raises(ValueError):
            steps[0] = 1.0

    @pytest.mark.parametrize("spec, horizon, other", SCHEMES)
    def test_each_horizon_matches_a_fresh_scheme(self, spec, horizon, other):
        scheme = sim.scheme_from_id(spec)
        for h in (horizon, other, horizon):
            times, steps = scheme.grid(h)
            fresh = sim.scheme_from_id(spec).times(h)
            assert np.array_equal(times, fresh)
            assert np.array_equal(steps, np.diff(fresh))
            path = sim.sample_path(STABLE15_3, h, scheme, seed=5, replica=3)
            ref = sim.sample_path(STABLE15_3, h, sim.scheme_from_id(spec), seed=5, replica=3)
            assert np.array_equal(path.times, ref.times)
            assert np.array_equal(path.positions, ref.positions)

    @pytest.mark.parametrize("spec, horizon, _other", SCHEMES)
    def test_grid_is_checked_once_not_per_path(self, spec, horizon, _other, monkeypatch):
        checked = []
        check = sim._check_times
        monkeypatch.setattr(sim, "_check_times", lambda t: (checked.append(t), check(t)))
        scheme = sim.scheme_from_id(spec)
        paths = [sim.sample_path(GAUSS3, horizon, scheme, seed=11, replica=i) for i in range(20)]
        assert len(checked) == 1 and checked[0] is paths[0].times
        # the same fields, given directly, are checked again
        names = [f.name for f in dataclasses.fields(sim.PathSkeleton)]
        direct = sim.PathSkeleton(*(getattr(paths[0], n) for n in names))
        assert len(checked) == 2
        assert all(getattr(direct, n) is getattr(paths[0], n) for n in names)

    def test_positions_are_checked_on_a_checked_grid(self, monkeypatch):
        # a law whose increments have no coordinates is refused per path
        monkeypatch.setattr(sim, "sample_increments", lambda model, steps, rng: np.empty((len(steps), 0)))
        with pytest.raises(PreconditionError, match=r"positions must have shape \(len\(times\), dim\), got \(9, 0\)"):
            sim.sample_path(GAUSS3, 2.0, sim.UniformGrid(0.25), seed=0)

    @pytest.mark.parametrize("grid", [[0.0, 1.0, 1.0, 2.0], [0.5, 1.0, 2.0], [0.0, 2.0, 1.0]])
    def test_a_grid_that_does_not_increase_from_zero_is_refused(self, grid):
        class Given(sim.UniformGrid):
            def times(self, horizon):
                return np.array(grid)

        scheme = Given(1.0)
        for _ in range(2):  # and not kept
            with pytest.raises(PreconditionError, match="times must strictly increase from 0"):
                sim.sample_path(GAUSS3, 2.0, scheme, seed=0)

    @pytest.mark.parametrize(
        "make", [lambda: sim.DyadicBlocks(per_block=64), lambda: sim.UniformGrid(0.25)]
    )
    def test_cache_is_not_part_of_equality(self, make):
        used, unused = make(), make()
        sim.sample_path(GAUSS3, 8.0, used, seed=0)
        assert used == unused and hash(used) == hash(unused)
        assert repr(used) == repr(unused)
        assert {used: 1}[unused] == 1

    @pytest.mark.parametrize("spec, horizon, _other", SCHEMES)
    def test_copies_build_their_own_read_only_grid(self, spec, horizon, _other):
        scheme = sim.scheme_from_id(spec)
        times, _ = scheme.grid(horizon)
        for copied in (pickle.loads(pickle.dumps(scheme, protocol=2)), copy.deepcopy(scheme)):
            assert copied == scheme
            grid, _ = copied.grid(horizon)
            assert grid is not times and np.array_equal(grid, times)
            assert not grid.flags.writeable

    @pytest.mark.parametrize("spec, horizon, _other", SCHEMES)
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_horizon_raises_after_a_valid_one(self, spec, horizon, _other, bad):
        scheme = sim.scheme_from_id(spec)
        sim.sample_path(GAUSS3, horizon, scheme, seed=0)
        for _ in range(2):
            with pytest.raises(PreconditionError):
                sim.sample_path(GAUSS3, bad, scheme, seed=0)
            with pytest.raises(PreconditionError):
                scheme.grid(bad)

    @pytest.mark.parametrize("spec, horizon, _other", SCHEMES)
    def test_real_horizons_share_the_float_grid(self, spec, horizon, _other):
        scheme = sim.scheme_from_id(spec)
        ref = sim.sample_path(STABLE15_3, horizon, scheme, seed=5, replica=2)
        for h in (np.array(horizon), np.float64(horizon)):
            path = sim.sample_path(STABLE15_3, h, scheme, seed=5, replica=2)
            assert path.times is ref.times and scheme.grid(h)[0] is ref.times
            assert np.array_equal(path.positions, ref.positions)

    @pytest.mark.parametrize("spec, horizon, _other", SCHEMES)
    @pytest.mark.parametrize(
        "bad", [np.array(0.0), np.float64(-1.0), np.array(math.inf), np.array(math.nan)]
    )
    def test_invalid_array_horizon_raises_every_call(self, spec, horizon, _other, bad):
        scheme = sim.scheme_from_id(spec)
        scheme.grid(horizon)
        for _ in range(2):
            with pytest.raises(PreconditionError):
                sim.sample_path(GAUSS3, bad, scheme, seed=0)

    @pytest.mark.parametrize("bad", [np.array([64.0]), "64", 64.0 + 0j, None])
    def test_horizon_must_be_one_real_number(self, bad):
        with pytest.raises(PreconditionError):
            sim.DyadicBlocks(per_block=64).grid(bad)

    @pytest.mark.parametrize("spec, label", [("dyadic:64",) * 2, ("dyadic:256",) * 2, ("uniform:0.25",) * 2])
    def test_label_is_kept_and_not_part_of_equality(self, spec, label):
        used, unused = sim.scheme_from_id(spec), sim.scheme_from_id(spec)
        assert used.label == label and used.label is used.label
        assert used == unused and hash(used) == hash(unused) and repr(used) == repr(unused)
        assert pickle.loads(pickle.dumps(used)).label == label


class TestSchemeIds:
    def test_dyadic_label_is_its_id(self):
        scheme = sim.DyadicBlocks(per_block=64)
        assert scheme.label == "dyadic:64"
        assert sim.scheme_from_id(scheme.label) == scheme

    @pytest.mark.parametrize("spec", [
        "dyadic:64:3:1", "dyadic:2.5", "dyadic:64:x", "uniform:x", "uniform", "uniform:0.25:1", "brownian:1",
        "uniform:-1", "dyadic:0", "dyadic:64:nan", "dyadic:64:2", "dyadic:",
    ])
    def test_malformed_ids_raise_naming_the_id(self, spec):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            sim.scheme_from_id(spec)

    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(per_block=st.integers(1, 10**6), dt=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @example(per_block=64, dt=0.25)  # the benchmark's schemes
    @example(per_block=256, dt=0.25)
    def test_labels_rebuild_their_schemes(self, per_block, dt):
        for scheme in (sim.DyadicBlocks(per_block=per_block), sim.UniformGrid(dt=dt)):
            again = sim.scheme_from_id(scheme.label)
            assert again == scheme and again.label == scheme.label


class TestDeterminism:
    def test_bit_for_bit_regeneration(self):
        for model in (CAUCHY, GAUSS3, STABLE15_3):
            a = sim.sample_path(model, 16.0, sim.DyadicBlocks(per_block=32), seed=99)
            b = sim.sample_path(model, 16.0, sim.DyadicBlocks(per_block=32), seed=99)
            assert np.array_equal(a.positions, b.positions)

    def test_replicas_differ(self):
        a = sim.sample_path(CAUCHY, 4.0, sim.UniformGrid(0.5), seed=1, replica=0)
        b = sim.sample_path(CAUCHY, 4.0, sim.UniformGrid(0.5), seed=1, replica=1)
        assert not np.array_equal(a.positions, b.positions)

    def test_swapped_seed_and_replica_differ(self):
        # a seed XOR replica key would give both pairs the key 1
        a = sim.sample_path(CAUCHY, 4.0, sim.UniformGrid(0.5), seed=1, replica=0)
        b = sim.sample_path(CAUCHY, 4.0, sim.UniformGrid(0.5), seed=0, replica=1)
        assert not np.array_equal(a.positions, b.positions)
        assert (a.seed, b.seed) == (1, 2**64)

    @pytest.mark.parametrize("seed, replica", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_key_out_of_range(self, seed, replica):
        with pytest.raises(PreconditionError):
            sim.replica_rng(seed, replica)

    def test_skeleton_invariants(self):
        p = sim.sample_path(GAUSS3, 4.0, sim.UniformGrid(0.5), seed=3)
        assert p.positions[0].tolist() == [0.0, 0.0, 0.0]
        assert np.all(np.diff(p.times) > 0)

    def test_skeleton_needs_a_non_empty_grid(self):
        with pytest.raises(PreconditionError):
            sim.PathSkeleton(np.array([]), np.empty((0, 1)), 0, "test", "manual")

    @pytest.mark.parametrize(
        "positions", [np.zeros(2), np.zeros((2, 1, 1)), np.zeros((3, 1)), np.zeros((2, 0))]
    )
    def test_skeleton_positions_have_shape_len_times_by_dim(self, positions):
        with pytest.raises(PreconditionError):
            sim.PathSkeleton(np.array([0.0, 1.0]), positions, 0, "test", "manual")

    @pytest.mark.parametrize("seed, replica", [(0, 0), (1, 0), (0, 1), (2**64 - 1, 2**64 - 1)])
    def test_replica_rng_is_philox_at_the_replica_key(self, seed, replica):
        ours = sim.replica_rng(seed, replica)
        ref = np.random.Generator(np.random.Philox(key=seed + replica * 2**64))
        assert _same_state(ours.bit_generator.state, ref.bit_generator.state)
        assert np.array_equal(ours.standard_normal(1000), ref.standard_normal(1000))
        assert _same_state(ours.bit_generator.state, ref.bit_generator.state)

    def test_generators_of_one_pair_share_no_state(self):
        a, b = sim.replica_rng(7, 3), sim.replica_rng(7, 3)
        untouched = b.bit_generator.state
        first = a.standard_normal(100)
        assert _same_state(b.bit_generator.state, untouched)
        assert np.array_equal(b.standard_normal(100), first)

    # SHA-256 of the little-endian positions, recorded before the grid,
    # cumsum and sampler rewrites (the stable:1.5,1 row after them); any
    # change to a draw or to the float operations on it shows up here
    GOLDEN = [
        ("gaussian:3", "dyadic:64", 64.0, 20150826, 7, [3.0, 0.0, 0.0], 449,
         "ff5cb0773166a2b2d8c9a5bc1a3cfdb25ec164d31e45b9cf854a1cd1109b8a81"),
        ("stable:1.5,3", "dyadic:64", 64.0, 20150826, 7, [3.0, 0.0, 0.0], 449,
         "c417f3adf5e165d2e4cfb2e0275b98603d969e086916ae75ed89df2be4ea4d2e"),
        ("stable:1.5,1", "dyadic:32", 100.0, 4101, 0, None, 257,
         "2d5b8414a6aafa8623df2dd99a871862933ea735ee31212f7252e179e550ee40"),
        ("cauchy1d", "uniform:0.25", 16.0, 2**63 + 5, 2**40, [4.0], 65,
         "048c6467f8134a1cc4de9d85711b729c9109b881d08bd4d381e8ff0558947d80"),
    ]

    @pytest.mark.parametrize("model_id, scheme, horizon, seed, replica, start, n, digest", GOLDEN)
    def test_golden_positions(self, model_id, scheme, horizon, seed, replica, start, n, digest):
        p = sim.sample_path(
            kn.from_id(model_id), horizon, sim.scheme_from_id(scheme), seed, replica, start
        )
        assert p.positions.shape[0] == n
        assert _sha256(p.positions) == digest

    @pytest.mark.parametrize("start", [[3.0], [3.0, 0.0], [[3.0, 0.0, 0.0]], 3.0])
    def test_start_must_be_a_point_of_the_model_dim(self, start):
        with pytest.raises(PreconditionError):
            sim.sample_path(GAUSS3, 4.0, sim.UniformGrid(1.0), seed=0, start=start)

    def test_unsupported_model(self):
        with pytest.raises(UnsupportedModelError):
            sim.sample_path(kn.from_id("stablelike:3,1.5"), 4.0, sim.UniformGrid(1.0), 0)


class TestIncrementLaws:
    def test_gaussian_variance_convention(self):
        # increments over dt = 1 have per-coordinate variance 2
        rng = sim.replica_rng(7)
        incs = sim.sample_increments(GAUSS1, np.ones(100_000), rng)
        var = float(np.var(incs))
        se = 2.0 * math.sqrt(2.0 / 100_000)  # sd of sample variance of N(0,2)
        assert abs(var - 2.0) <= 3 * se

    def test_cauchy_median_absolute_increment(self):
        rng = sim.replica_rng(11)
        incs = sim.sample_increments(CAUCHY, np.ones(100_000), rng)[:, 0]
        med = float(np.median(np.abs(incs)))
        # median |C| = tan(pi/4) = 1; asymptotic se of the sample median
        dens = 2.0 / (math.pi * 2.0)  # density of |C| at 1
        se = 1.0 / (2.0 * dens * math.sqrt(100_000))
        assert abs(med - 1.0) <= 3 * se

    def test_stable_self_similarity(self):
        # X_{2t} has the law of 2^(1/alpha) X_t
        rng = sim.replica_rng(13)
        n = 10_000
        x2 = sim.sample_increments(STABLE15_1, np.full(n, 2.0), rng)[:, 0]
        x1 = sim.sample_increments(STABLE15_1, np.full(n, 1.0), rng)[:, 0]
        stat, _ = stats.ks_2samp(x2, 2.0 ** (1 / 1.5) * x1)
        crit = 1.63 * math.sqrt(2.0 / n)  # 1% two-sample critical value
        assert stat < crit

    def test_stationary_increments(self):
        path = sim.sample_path(CAUCHY, 64.0, sim.UniformGrid(1.0 / 156.25), seed=17)
        incs = np.diff(path.positions[:, 0])
        half = len(incs) // 2
        stat, _ = stats.ks_2samp(incs[:half][:10_000], incs[half:][:10_000])
        assert stat < 1.63 * math.sqrt(2.0 / 10_000)

    def test_isotropy_octants(self):
        rng = sim.replica_rng(23)
        incs = sim.sample_increments(STABLE15_3, np.ones(40_000), rng)
        octant = (incs[:, 0] > 0) * 4 + (incs[:, 1] > 0) * 2 + (incs[:, 2] > 0)
        counts = np.bincount(octant, minlength=8)
        _, p = stats.chisquare(counts)
        assert p > 0.01

    def test_alpha2_subordination_matches_gaussian(self):
        m2 = kn.KernelModel(
            model_id="stable2", form=kn.STABLE_LIKE, V=kn.power(1.0),
            phi=kn.power(2.0), exact_law=kn.StableLaw(2.0, 1),
        )
        a = sim.sample_increments(m2, np.ones(10_000), sim.replica_rng(31))[:, 0]
        b = sim.sample_increments(GAUSS1, np.ones(10_000), sim.replica_rng(33))[:, 0]
        stat, _ = stats.ks_2samp(a, b)
        assert stat < 1.63 * math.sqrt(2.0 / 10_000)

    def test_positive_stable_laplace_transform(self):
        # E exp(-lambda S) = exp(-lambda^gamma)
        rng = sim.replica_rng(41)
        s = kn.positive_stable(rng, 0.75, 200_000)
        for lam in (0.5, 1.0, 2.0):
            est = float(np.mean(np.exp(-lam * s)))
            expect = math.exp(-lam**0.75)
            se = float(np.std(np.exp(-lam * s))) / math.sqrt(len(s))
            assert abs(est - expect) <= 4 * se

    def test_positive_stable_keeps_tuple_size(self):
        s = kn.positive_stable(sim.replica_rng(2026), 0.75, (3, 4))
        assert s.shape == (3, 4)
        assert _sha256(s) == "05325c225897ff1cc428772722e46f5dfd41d8411f9959725b05834509998780"
        assert kn.positive_stable(sim.replica_rng(2026), 0.75, 5).shape == (5,)

    @pytest.mark.parametrize(
        "gamma, digest",
        [
            # about 5 % of the first pass at gamma 0.005 is redrawn; none at 0.02
            (0.005, "7567403c3e9c078bb6e8dcb990ede6812e72715ed667b5348046d275f8a561c9"),
            (0.01, "ceccf002d3c130a2464515c66818fa71c634a14095d46d31614ee605ea31b14e"),
            (0.02, "1c67705219cf04872b9363b4b86d35af50b449b70c4237d6ba97098cf9016451"),
        ],
    )
    def test_positive_stable_redraws(self, gamma, digest):
        s = kn.positive_stable(sim.replica_rng(2026), gamma, (40, 5))
        assert s.shape == (40, 5)
        assert np.all(np.isfinite(s)) and np.all(s > 0)
        # redraws come in index order, so the stream is the recorded one
        assert _sha256(s) == digest

    def test_marginal_matches_density(self):
        # endpoint distribution of the 3-d stable path vs the numeric CDF
        n = 20_000
        rng = sim.replica_rng(55)
        incs = sim.sample_increments(STABLE15_3, np.full(n, 4.0), rng)
        r = np.linalg.norm(incs, axis=1)
        for q in (1.0, 4.0, 16.0):
            frac = float(np.mean(r <= q))
            expect = kn.radial_cdf(STABLE15_3, 4.0, q)
            se = math.sqrt(expect * (1 - expect) / n)
            assert abs(frac - expect) <= 4 * se


class TestLawDispatch:
    class PlaneLaw:
        """A stub law: fixed values that no preset law produces."""

        dim = 2
        alpha = 1.0

        def density(self, t, d):
            return 7.0 * t + d

        def cdf(self, t, r):
            return 0.25

        def sf(self, t, r):
            return 0.75

        def increments(self, dts, rng):
            return np.repeat(dts[:, None], self.dim, axis=1)

    def test_stub_law_flows_through(self):
        m = kn.KernelModel(
            model_id="plane", form=kn.STABLE_LIKE, V=kn.power(2.0),
            phi=kn.power(1.0), exact_law=self.PlaneLaw(),
        )
        assert (m.dim, m.alpha, m.has_density) == (2, 1.0, True)
        assert kn.density(m, 2.0, 1.0) == 15.0
        assert kn.radial_cdf(m, 1.0, 1.0) == 0.25
        assert kn.radial_sf(m, 1.0, 1.0) == 0.75
        # the public preconditions still come first
        assert kn.radial_cdf(m, 1.0, 0.0) == 0.0
        with pytest.raises(PreconditionError):
            kn.density(m, 0.0, 1.0)
        p = sim.sample_path(m, 4.0, sim.UniformGrid(1.0), seed=0)
        assert p.positions.tolist() == [[float(k), float(k)] for k in range(5)]

    def test_stable_beyond_dim3_samples_without_density(self):
        m = kn.from_id("stable:1.5,4")
        assert not m.has_density
        with pytest.raises(UnsupportedModelError):
            kn.density(m, 1.0, 1.0)
        incs = sim.sample_increments(m, np.ones(16), sim.replica_rng(3))
        assert incs.shape == (16, 4)

    def test_no_law(self):
        m = kn.from_id("stablelike:3,1.5")
        assert (m.exact_law, m.dim, m.alpha, m.has_density) == (None, None, None, False)
        with pytest.raises(UnsupportedModelError):
            kn.radial_sf(m, 1.0, 1.0)


class TestFunctionalsMatchMaskReference:
    """The functionals against distances over boolean masks of the whole grid."""

    @pytest.fixture(scope="class", params=["stable:1.5,3", "stable:1.5,1", "gaussian:2"])
    def path(self, request):
        return sim.sample_path(
            kn.from_id(request.param), 2.0**10, sim.DyadicBlocks(per_block=32), seed=4101, replica=3
        )

    @pytest.mark.parametrize("include_left", [True, False])
    def test_window_extrema(self, path, include_left):
        origin = np.full(path.dim, 0.5)
        t, d = path.times, np.linalg.norm(path.positions - origin, axis=1)
        # dyadic ends fall on grid points; the others fall between them
        windows = [(2.0**k, 2.0**(k + 1)) for k in range(10)]
        windows += [(0.0, 1.0), (3.3, 17.9), (100.0, 102.5), (0.0, 2.0**10), (2.0**9, 2.0**10)]
        for a, b in windows:
            inside = ((t >= a) if include_left else (t > a)) & (t <= b)
            assert sim.window_min_distance(path, origin, a, b, include_left) == float(d[inside].min())
            assert sim.window_max_distance(path, origin, a, b, include_left) == float(d[inside].max())

    def test_first_hit_time(self, path):
        center = np.zeros(path.dim)
        positive, d = path.times > 0.0, np.linalg.norm(path.positions - center, axis=1)
        for r in (0.1, 0.5, 1.0, 3.0, 30.0, 1e9, float(d[positive].min())):
            hits = np.flatnonzero((d <= r) & positive)
            expect = float(path.times[hits[0]]) if hits.size else None
            assert sim.first_hit_time(path, center, r) == expect


class TestFunctionalPins:
    """SHA-256 of window extrema and first-hit times, recorded before the
    column-wise distances; a change to a distance's float operations on any
    of these dims shows up here."""

    PINS = [
        ("stable:1.5,1", "9b89329e6eae0c4ff0c362d339823e305251bffbf0a5e038ae38446c36bbcca9"),
        ("gaussian:2", "db255cce0aedc78088ef537eb6ac3c2c20d106aec7d7146b6203897662248b2d"),
        ("stable:1.5,3", "693348a2409cc6b5e2c3e1db2e84308db89cc28460f4c3c5ae2e2a3224654eeb"),
        ("stable:1.5,5", "f77bca973153a0c6b6b1db1cc0a0f804587efb8e4ed30f1aa993329a6cf4c177"),
    ]

    @pytest.mark.parametrize("model_id, digest", PINS)
    def test_functionals_pinned(self, model_id, digest):
        model = kn.from_id(model_id)
        scheme = sim.DyadicBlocks(per_block=32)
        # every coordinate of the point is non-zero and distinct
        origin = np.linspace(-0.75, 1.25, model.dim) + 0.1
        out = []
        for i in range(6):
            p = sim.sample_path(model, 2.0**10, scheme, seed=1508, replica=i, start=origin / 3)
            for k in range(10):
                a, b = 2.0**k, 2.0**(k + 1)
                out.append(sim.window_min_distance(p, origin, a, b))
                out.append(sim.window_max_distance(p, origin, a, b, include_left=False))
            out.append(sim.window_min_distance(p, origin, 3.3, 700.0, include_left=False))
            out.append(sim.window_max_distance(p, origin, 0.0, 2.0**10))
            for r in (0.25, 1.0, 4.0, 16.0):
                t = sim.first_hit_time(p, origin, r)
                out.append(math.nan if t is None else t)
        assert _sha256(np.array(out)) == digest

    @pytest.mark.parametrize("dim", [1, 2, 5, 7, 8, 12])
    def test_column_sums_against_row_sums(self, dim):
        # numpy sums a row of fewer than 8 terms left to right, as the
        # columns are summed; from 8 terms on it sums pairwise, which
        # agrees only to rounding
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((500, dim)) * 10.0 ** rng.uniform(-3, 3, (500, 1))
        point = rng.standard_normal(dim)
        path = sim.PathSkeleton(np.arange(500.0), x, 0, "test", "manual")
        got = sim._sq_distance(path, point, "point", slice(None))
        diff = x - point
        ref = (diff * diff).sum(axis=1)
        if dim <= 7:
            assert np.array_equal(got, ref)
        else:
            assert np.allclose(got, ref, rtol=dim * np.finfo(float).eps, atol=0.0)


class TestWindowFunctionals:
    def _bridge_path(self):
        times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        pos = np.array([[0.0], [1.0], [3.0], [0.5], [2.0]])
        return sim.PathSkeleton(times, pos, seed=0, model_id="test", scheme_label="manual")

    def test_min_max_on_manual_path(self):
        p = self._bridge_path()
        assert sim.window_min_distance(p, [0.0], 1.0, 3.0) == 0.5
        assert sim.window_max_distance(p, [0.0], 1.0, 3.0) == 3.0
        # half-open exclusion of the left endpoint
        assert sim.window_min_distance(p, [0.0], 1.0, 2.0, include_left=False) == 3.0

    def test_constant_path_at_origin(self):
        p = sim.PathSkeleton(
            np.array([0.0, 1.0, 2.0]), np.zeros((3, 1)), 0, "test", "manual"
        )
        assert sim.window_min_distance(p, [0.0], 0.0, 2.0) == 0.0

    def test_single_point_window(self):
        p = self._bridge_path()
        assert sim.window_min_distance(p, [0.0], 1.9, 2.1) == 3.0

    def test_nan_window_end(self):
        p = self._bridge_path()
        for a, b in ((1.0, math.nan), (math.nan, 2.0)):
            with pytest.raises(PreconditionError):
                sim.window_min_distance(p, [0.0], a, b)

    def test_origin_must_be_a_point_of_the_path_dim(self):
        p = sim.sample_path(GAUSS3, 4.0, sim.UniformGrid(0.5), seed=3)
        for f in (sim.window_min_distance, sim.window_max_distance):
            with pytest.raises(PreconditionError):
                f(p, [1.0], 1.0, 2.0)
            with pytest.raises(PreconditionError):
                f(p, np.zeros(4), 1.0, 2.0)

    def test_window_monotone_in_extension(self):
        p = sim.sample_path(CAUCHY, 8.0, sim.UniformGrid(0.125), seed=71)
        small = sim.window_max_distance(p, [0.0], 2.0, 4.0)
        big = sim.window_max_distance(p, [0.0], 2.0, 8.0)
        assert big >= small

    def test_window_outside_horizon(self):
        p = self._bridge_path()
        with pytest.raises(PreconditionError):
            sim.window_min_distance(p, [0.0], 2.0, 9.0)

    def test_finer_grids_do_not_raise_mean_window_min(self):
        # independent finer grids can only find deeper approaches on average
        n = 400
        coarse, fine = [], []
        for r in range(n):
            pc = sim.sample_path(CAUCHY, 8.0, sim.UniformGrid(0.25), seed=101, replica=r)
            pf = sim.sample_path(
                CAUCHY, 8.0, sim.UniformGrid(0.0625), seed=9090, replica=r
            )
            coarse.append(sim.window_min_distance(pc, [3.0], 4.0, 8.0))
            fine.append(sim.window_min_distance(pf, [3.0], 4.0, 8.0))
        mc, mf = float(np.mean(coarse)), float(np.mean(fine))
        se = math.sqrt(np.var(coarse) / n + np.var(fine) / n)
        assert mf <= mc + 3 * se

    def test_brownian_running_max_oracle(self):
        # E max_{[0,1]} |B| for our variance-2t Brownian motion, from the
        # reflection series P(max |B| <= x) = sum (-1)^k [Phi((2k+1)a) - Phi((2k-1)a)]
        def sup_abs_cdf(x, sigma2=2.0):
            a = x / math.sqrt(sigma2)
            acc = 0.0
            for k in range(-40, 41):
                acc += (-1) ** k * (
                    stats.norm.cdf((2 * k + 1) * a) - stats.norm.cdf((2 * k - 1) * a)
                )
            return acc

        from scipy import integrate

        expected, _ = integrate.quad(lambda x: 1.0 - sup_abs_cdf(x), 0.0, 20.0)
        n = 10_000
        maxima = np.empty(n)
        for r in range(n):
            p = sim.sample_path(GAUSS1, 1.0, sim.UniformGrid(1e-3), seed=202, replica=r)
            maxima[r] = sim.window_max_distance(p, [0.0], 0.0, 1.0)
        assert abs(float(np.mean(maxima)) - expected) <= 0.05 * expected


class TestFirstHit:
    def test_start_inside_ball_excludes_time_zero(self):
        p = sim.PathSkeleton(
            np.array([0.0, 1.0, 2.0]),
            np.array([[0.0], [0.1], [5.0]]),
            0,
            "test",
            "manual",
        )
        assert sim.first_hit_time(p, [0.0], 0.5) == 1.0

    def test_huge_radius_hits_first_positive_time(self):
        p = sim.sample_path(CAUCHY, 4.0, sim.UniformGrid(0.5), seed=5)
        assert sim.first_hit_time(p, [0.0], 1e9) == 0.5

    def test_nan_radius(self):
        p = self._two_point_path()
        with pytest.raises(PreconditionError):
            sim.first_hit_time(p, [0.0], math.nan)

    def test_center_must_be_a_point_of_the_path_dim(self):
        p = sim.sample_path(GAUSS3, 4.0, sim.UniformGrid(0.5), seed=3)
        with pytest.raises(PreconditionError):
            sim.first_hit_time(p, [0.0], 1e9)

    @staticmethod
    def _two_point_path():
        return sim.PathSkeleton(
            np.array([0.0, 1.0]), np.array([[0.0], [4.0]]), 0, "test", "manual"
        )

    def test_first_hit_times_pinned(self):
        # SHA-256 of the first-hit times (nan for a miss) of the pipeline a
        # montecarlo hit op runs: 200 replicas sharing one scheme, recorded
        # before the grid cache; a change to the sampler, the grid or
        # first_hit_time that moves an estimate shows up here
        scheme = sim.scheme_from_id("dyadic:64")
        start, origin = np.array([3.0, 0.0, 0.0]), np.zeros(3)
        hits = []
        for i in range(200):
            p = sim.sample_path(STABLE15_3, 64.0, scheme, 20150826, i, start)
            t = sim.first_hit_time(p, origin, 1.0)
            hits.append(math.nan if t is None else t)
        hits = np.array(hits)
        assert int(np.isnan(hits).sum()) == 174
        assert _sha256(hits) == "9622ea720621c34056161d1bc2d9765e397aa3aab2fd9c2e8b892925fb6cc9e5"

    def test_none_when_never_hit(self):
        p = sim.PathSkeleton(
            np.array([0.0, 1.0]), np.array([[0.0], [4.0]]), 0, "test", "manual"
        )
        assert sim.first_hit_time(p, [100.0], 1.0) is None
