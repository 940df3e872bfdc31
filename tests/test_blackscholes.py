import math
import random
import statistics
import subprocess
import sys

import pytest

from dsex import Cache, Linear, ParamSpec, Pow2, Schema, build_space, EvalError
from dsex.errors import ConfigError, EvalErrorKind
from dsex.metrics import PointView
from dsex.blackscholes import (
    BsConfig,
    BsModelParams,
    DEFAULT_MODEL,
    EulerResult,
    Taus88,
    _draws,
    closed_form,
    euler_estimate,
    latency_evaluator,
    mix_seed,
    qos_evaluator,
    quantize,
)

from conftest import subprocess_env

# recorded once from this implementation; the statistical window below
# keeps it honest against the analytic expectation
PINNED_ESTIMATE_SEED42 = 103.83088684082031


class TestClosedForm:
    def test_driftless_martingale(self):
        assert closed_form(BsModelParams(1.0, 0.0, 0.3, 2.0)) == 1.0

    def test_drifted_expectation(self):
        got = closed_form(BsModelParams(100.0, 0.05, 0.2, 1.0))
        assert got == pytest.approx(100.0 * math.exp(0.05), rel=1e-15)

    def test_degenerate_zero(self):
        assert closed_form(BsModelParams(0.0, 0.1, 0.1, 1.0)) == 0.0

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            BsModelParams(100.0, 0.0, -0.1, 1.0)
        with pytest.raises(ConfigError):
            BsModelParams(100.0, 0.0, 0.1, 0.0)

    @pytest.mark.parametrize("field", ["S0", "mu", "sigma", "T"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_params(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            BsModelParams(**{field: value})


class TestQuantize:
    def test_rounds_half_up(self):
        value, sat = quantize(1.5 / 256, 8, 8)  # exactly halfway
        assert value == 2 / 256 and not sat
        value, sat = quantize(1.4 / 256, 8, 8)
        assert value == 1 / 256 and not sat

    def test_saturates_at_bound(self):
        bound = 2.0**8 - 2.0**-8
        value, sat = quantize(300.0, 8, 8)
        assert value == bound and sat
        value, sat = quantize(-300.0, 8, 8)
        assert value == -bound and sat

    def test_exact_values_pass_through(self):
        assert quantize(0.5, 8, 8) == (0.5, False)


class TestEulerEstimate:
    def test_zero_volatility_zero_drift_is_exact(self):
        cfg = BsConfig(16, 12, 32, 2, 4, BsModelParams(100.0, 0.0, 0.0, 1.0), seed=7)
        assert euler_estimate(cfg).estimate == 100.0

    def test_pinned_regression_and_statistical_sanity(self):
        cfg = BsConfig(16, 16, 1024, 64, 4, DEFAULT_MODEL, seed=42)
        result = euler_estimate(cfg)
        assert result.estimate == PINNED_ESTIMATE_SEED42
        reference = closed_form(DEFAULT_MODEL)
        standard_error = DEFAULT_MODEL.S0 * DEFAULT_MODEL.sigma / math.sqrt(1024)
        assert abs(result.estimate - reference) <= 3 * standard_error

    def test_standard_error_shrinks_with_doubling(self):
        # std over 32 seed replicates should drop by about sqrt(2)
        def spread(nb_iteration):
            values = [
                euler_estimate(
                    BsConfig(16, 20, nb_iteration, 4, 4, DEFAULT_MODEL, seed=mix_seed((s,), 77))
                ).estimate
                for s in range(32)
            ]
            return statistics.stdev(values)

        ratio = spread(64) / spread(128)
        assert 1.1 < ratio < 1.8

    def test_bit_identical_across_core_counts(self):
        for cores in (4, 32, 1024):
            cfg = BsConfig(12, 14, 64, 8, cores, DEFAULT_MODEL, seed=5)
            assert euler_estimate(cfg).estimate == euler_estimate(
                BsConfig(12, 14, 64, 8, 4, DEFAULT_MODEL, seed=5)
            ).estimate

    def test_full_precision_matches_unquantized_reference(self):
        cfg = BsConfig(16, 32, 256, 16, 4, DEFAULT_MODEL, seed=9)
        quantized = euler_estimate(cfg).estimate
        reference = euler_estimate_unquantized(cfg)
        assert abs(quantized - reference) / abs(reference) < 2.0**-24

    def test_saturation_counted_not_fatal(self):
        # S0 near the top of an 8-bit dynamic range saturates under drift
        model = BsModelParams(250.0, 0.5, 0.0, 1.0)
        cfg = BsConfig(8, 8, 32, 2, 4, model, seed=1)
        result = euler_estimate(cfg)
        assert result.saturations > 0
        assert math.isfinite(result.estimate)

    def test_config_domain_validation(self):
        with pytest.raises(ConfigError):
            BsConfig(7, 16, 32, 2, 4)
        with pytest.raises(ConfigError):
            BsConfig(16, 16, 48, 2, 4)
        with pytest.raises(ConfigError):
            BsConfig(16, 16, 32, 128, 4)
        with pytest.raises(ConfigError):
            BsConfig(16, 16, 32, 2, 2)


class TestGenerator:
    def test_uniforms_strictly_inside_unit_interval(self):
        # the kernel's uniforms: (u + 0.5) * 2^-32 of each of its u32 draws
        values = [(u + 0.5) * 2.0**-32 for column in _draws(123, 100, 50) for u in column]
        assert len(values) == 5000
        assert all(0.0 < u < 1.0 for u in values)
        assert abs(statistics.fmean(values) - 0.5) < 0.02

    def test_gauss_moments(self):
        rng = ReferenceTaus88(7)
        values = [rng.gauss() for _ in range(20000)]
        assert abs(statistics.fmean(values)) < 0.03
        assert abs(statistics.stdev(values) - 1.0) < 0.03

    def test_seed_determinism(self):
        a = [Taus88(9).next_u32() for _ in range(10)]
        b = [Taus88(9).next_u32() for _ in range(10)]
        assert a == b
        assert [Taus88(10).next_u32() for _ in range(10)] != a

    def test_mix_seed_is_order_sensitive(self):
        assert mix_seed((1, 2), 0) != mix_seed((2, 1), 0)
        assert mix_seed((1, 2), 0) != mix_seed((1, 2), 1)


class ReferenceTaus88(Taus88):
    """The kernel's generator drawn one value at a time: the uniforms and
    normals that ``euler_estimate`` computes a column at a time."""

    def __init__(self, seed):
        super().__init__(seed)
        self._spare = None

    def uniform(self):
        # in (0, 1), safe for log()
        return (self.next_u32() + 0.5) * 2.0**-32

    def gauss(self):
        """Standard normal via Box-Muller; pairs are generated together."""
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        r = math.sqrt(-2.0 * math.log(self.uniform()))
        theta = 2.0 * math.pi * self.uniform()
        self._spare = r * math.sin(theta)
        return r * math.cos(theta)


def euler_estimate_unquantized(cfg):
    """Double-precision reference run consuming the identical draw stream."""
    m = cfg.model
    dt = m.T / cfg.nb_euler
    drift = (m.mu - 0.5 * m.sigma * m.sigma) * dt
    vol = m.sigma * math.sqrt(dt)
    rng = ReferenceTaus88(cfg.seed)
    total = 0.0
    comp = 0.0
    for _ in range(cfg.nb_iteration):
        s = m.S0
        for _ in range(cfg.nb_euler):
            s = s * (1.0 + drift + vol * rng.gauss())
        y = s - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total / cfg.nb_iteration


def sequential_estimate(cfg):
    """Reference kernel: the paths one after another, each draw through
    ReferenceTaus88.gauss, with every clamp and float operation spelled out."""
    m = cfg.model
    dt = m.T / cfg.nb_euler
    drift = (m.mu - 0.5 * m.sigma * m.sigma) * dt
    vol = m.sigma * math.sqrt(dt)
    rng = ReferenceTaus88(cfg.seed)
    scale = float(1 << cfg.precision)
    inv = 1.0 / scale
    limit = float((1 << (cfg.dynamic + cfg.precision)) - 1)
    saturations = 0

    def clamp(scaled):
        nonlocal saturations
        if scaled > limit:
            saturations += 1
            return limit
        if scaled < -limit:
            saturations += 1
            return -limit
        return scaled

    s0_q = clamp(math.floor(m.S0 * scale + 0.5)) * inv
    total = 0.0
    comp = 0.0
    for _ in range(cfg.nb_iteration):
        s = s0_q
        for _ in range(cfg.nb_euler):
            zs = clamp(math.floor(rng.gauss() * scale + 0.5))
            ms = clamp(math.floor((1.0 + drift + vol * (zs * inv)) * scale + 0.5))
            s = clamp(math.floor(s * (ms * inv) * scale + 0.5)) * inv
        y = s - comp
        t = total + y
        comp = (t - total) - y
        total = t
    estimate, sat = quantize(total / cfg.nb_iteration, cfg.dynamic, cfg.precision)
    return EulerResult(estimate, saturations + sat)


NB_EULER = (2, 4, 8, 16, 32, 64)


def oracle_configs():
    rnd = random.Random(2024)
    for nb_euler in NB_EULER:
        for nb_iteration in (32, 1024):
            yield BsConfig(
                rnd.randint(8, 32), rnd.randint(8, 32), nb_iteration, nb_euler, 4,
                DEFAULT_MODEL, rnd.getrandbits(64),
            )
    # coarse precision, where rounding ties are frequent
    for nb_euler in (2, 64):
        yield BsConfig(16, 8, 256, nb_euler, 4, DEFAULT_MODEL, rnd.getrandbits(64))
    # near the top of an 8-bit dynamic range, under strong drift or volatility
    for model in (
        BsModelParams(250.0, 0.5, 0.0, 1.0),
        BsModelParams(250.0, 1.0, 0.5, 2.0),
        BsModelParams(200.0, 0.0, 30.0, 1.0),
    ):
        for nb_euler in (2, 16, 64):
            yield BsConfig(8, rnd.randint(8, 16), 32, nb_euler, 4, model, rnd.getrandbits(64))


class TestKernelOracle:
    """The lane kernel against the sequential reference, result for result."""

    def test_matches_sequential_reference(self):
        saturations = 0
        for cfg in oracle_configs():
            got = euler_estimate(cfg)
            assert got == sequential_estimate(cfg), cfg
            saturations += got.saturations
        assert saturations > 0

    @pytest.mark.parametrize("nb_euler", NB_EULER)
    def test_lanes_jump_to_their_path_start(self, nb_euler):
        rng = Taus88(31)
        stream = [rng.next_u32() for _ in range(64 * nb_euler)]
        columns = list(_draws(31, 64, nb_euler))
        assert len(columns) == nb_euler
        for i in range(64):
            # lane i's first draw is the stream's (i * nb_euler + 1)-th
            assert columns[0][i] == stream[i * nb_euler]
            assert [c[i] for c in columns] == stream[i * nb_euler : (i + 1) * nb_euler]

    def test_jump_tables_are_built_on_first_use(self):
        code = (
            "from dsex import blackscholes as b\n"
            "assert not b._JUMPS\n"
            "b.euler_estimate(b.BsConfig(8, 8, 32, 4))\n"
            "assert list(b._JUMPS) == [4]\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


def bs_space():
    return build_space(
        Schema(
            [
                ParamSpec("dynamic", Linear(8, 16), ("qos",)),
                ParamSpec("precision", Linear(8, 16), ("qos",)),
                ParamSpec("nbIteration", Pow2(5, 8), ("qos",)),
                ParamSpec("nbEuler", Pow2(1, 4), ("qos",)),
                ParamSpec("nbCore", Pow2(2, 6), ()),
            ]
        )
    )


class TestQosEvaluator:
    def test_error_metric_matches_direct_computation(self):
        space = bs_space()
        ev = qos_evaluator(DEFAULT_MODEL, global_seed=42)
        point = space.points[1234]
        cache = Cache()
        (error,) = cache.run(ev, PointView(space.schema, point))
        raw = space.raw_values(point)
        cfg = BsConfig(*raw, model=DEFAULT_MODEL, seed=mix_seed(point.coords, 42))
        expected = abs(euler_estimate(cfg).estimate - closed_form(DEFAULT_MODEL))
        assert error == expected / closed_form(DEFAULT_MODEL)

    def test_zero_reference_is_div_by_zero(self):
        space = bs_space()
        ev = qos_evaluator(BsModelParams(0.0, 0.05, 0.2, 1.0))
        with pytest.raises(EvalError) as err:
            ev.func(PointView(space.schema, space.points[0]))
        assert err.value.kind is EvalErrorKind.DIV_BY_ZERO

    def test_repeated_evaluation_is_identical(self):
        space = bs_space()
        ev = qos_evaluator(DEFAULT_MODEL, global_seed=3)
        view = PointView(space.schema, space.points[100])
        assert ev.func(view) == ev.func(view)

    def test_missing_parameter(self):
        schema = Schema([ParamSpec("other", Linear(0, 1))])
        ev = qos_evaluator()
        with pytest.raises(EvalError) as err:
            ev.func(PointView(schema, build_space(schema).points[0]))
        assert err.value.kind is EvalErrorKind.NAME_NOT_FOUND

    def test_maximal_config_beats_pruning_threshold(self):
        # most accurate corner of the full annotated domains stays well
        # under the 5% goal with the shipped model constants
        schema = Schema(
            [
                ParamSpec("dynamic", Linear(8, 32)),
                ParamSpec("precision", Linear(8, 32)),
                ParamSpec("nbIteration", Pow2(5, 10)),
                ParamSpec("nbEuler", Pow2(1, 6)),
                ParamSpec("nbCore", Pow2(2, 10)),
            ]
        )
        space = build_space(schema)
        target = [
            p for p in space.points if space.raw_values(p) == (32, 32, 1024, 64, 4)
        ][0]
        for seed in (0, 1, 7, 42):
            ev = qos_evaluator(DEFAULT_MODEL, global_seed=seed)
            (error,) = ev.func(PointView(schema, target))
            assert error < 0.05


class TestLatencyModel:
    def seed_space(self):
        return build_space(
            Schema(
                [
                    ParamSpec("nbIteration", Pow2(5, 10)),
                    ParamSpec("nbEuler", Pow2(1, 6)),
                    ParamSpec("nbCore", Pow2(2, 10)),
                ]
            )
        )

    def latency_at(self, nb_iteration, nb_euler, nb_core, overhead=0):
        space = self.seed_space()
        target = [
            p
            for p in space.points
            if space.raw_values(p) == (nb_iteration, nb_euler, nb_core)
        ][0]
        ev = latency_evaluator(overhead)
        return ev.func(PointView(space.schema, target))[0]

    def test_balanced_configuration(self):
        assert self.latency_at(64, 64, 64) == 64.0

    def test_saturated_cores(self):
        assert self.latency_at(64, 8, 1024) == 8.0
        assert self.latency_at(64, 8, 64) == 8.0

    def test_doubling_cores_halves_ceiling_term(self):
        assert self.latency_at(512, 4, 32) == 2 * self.latency_at(512, 4, 64)

    def test_overhead_added(self):
        assert self.latency_at(64, 2, 64, overhead=5) == 7.0

    def test_missing_parameter(self):
        schema = Schema([ParamSpec("nbIteration", Pow2(5, 5))])
        ev = latency_evaluator()
        with pytest.raises(EvalError) as err:
            ev.func(PointView(schema, build_space(schema).points[0]))
        assert err.value.kind is EvalErrorKind.NAME_NOT_FOUND
