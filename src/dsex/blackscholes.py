"""Monte-Carlo option value kernel used as a quality-of-service metric.

Simulates the fixed-point hardware estimator in software: paths of
multiplicative Euler steps S <- S * quantize(1 + (mu - sigma^2/2)*dt +
sigma*sqrt(dt)*Z), with Z drawn from a 3-component combined LFSR
(Tausworthe) uniform generator through the Box-Muller transform and
quantized to the configured fixed-point format. The relative gap
between the quantized path mean and the analytic expectation
S0*exp(mu*T) is the estimator's `error` metric.

`nbCore` only shapes latency, never the statistics: estimates are
bit-identical across core counts at a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigError, EvalError, EvalErrorKind
from .metrics import Evaluator, PointView

_M64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def mix_seed(parts: Iterable[int], base: int = 0) -> int:
    """Stable 64-bit hash of integer parts; the per-point seed policy."""
    h = _splitmix64(base & _M64)
    for p in parts:
        h = _splitmix64(h ^ _splitmix64((p + 0x243F6A8885A308D3) & _M64))
    return h


class Taus88:
    """L'Ecuyer's 3-component combined Tausworthe generator (period ~2^88)."""

    def __init__(self, seed: int):
        s1 = _splitmix64(seed & _M64)
        s2 = _splitmix64(s1)
        s3 = _splitmix64(s2)
        self.s1 = (s1 & 0xFFFFFFFF) | 16  # state minima avoid degenerate cycles
        self.s2 = (s2 & 0xFFFFFFFF) | 16
        self.s3 = (s3 & 0xFFFFFFFF) | 16
        self._spare = None
        for _ in range(6):
            self.next_u32()

    def next_u32(self) -> int:
        s1, s2, s3 = self.s1, self.s2, self.s3
        s1 = (((s1 & 0xFFFFFFFE) << 12) ^ (((s1 << 13) ^ s1) >> 19)) & 0xFFFFFFFF
        s2 = (((s2 & 0xFFFFFFF8) << 4) ^ (((s2 << 2) ^ s2) >> 25)) & 0xFFFFFFFF
        s3 = (((s3 & 0xFFFFFFF0) << 17) ^ (((s3 << 3) ^ s3) >> 11)) & 0xFFFFFFFF
        self.s1, self.s2, self.s3 = s1, s2, s3
        return s1 ^ s2 ^ s3

    def uniform(self) -> float:
        # in (0, 1), safe for log()
        return (self.next_u32() + 0.5) * 2.0**-32

    def gauss(self) -> float:
        """Standard normal via Box-Muller; pairs are generated together."""
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        r = math.sqrt(-2.0 * math.log(self.uniform()))
        theta = 2.0 * math.pi * self.uniform()
        self._spare = r * math.sin(theta)
        return r * math.cos(theta)


@dataclass(frozen=True)
class BsModelParams:
    """Constants of the underlying stochastic model (fixture values)."""

    S0: float = 100.0
    mu: float = 0.05
    sigma: float = 0.2
    T: float = 1.0

    def __post_init__(self):
        if self.S0 < 0:
            raise ConfigError("S0 must be nonnegative")
        if self.sigma < 0:
            raise ConfigError("sigma must be nonnegative")
        if self.T <= 0:
            raise ConfigError("T must be positive")


DEFAULT_MODEL = BsModelParams()

_POW2 = {2**e for e in range(0, 11)}


@dataclass(frozen=True)
class BsConfig:
    """One estimator configuration: data format, iteration counts, cores."""

    dynamic: int
    precision: int
    nb_iteration: int
    nb_euler: int
    nb_core: int = 4
    model: BsModelParams = DEFAULT_MODEL
    seed: int = 0

    def __post_init__(self):
        if not 8 <= self.dynamic <= 32:
            raise ConfigError(f"dynamic must be in [8, 32], got {self.dynamic}")
        if not 8 <= self.precision <= 32:
            raise ConfigError(f"precision must be in [8, 32], got {self.precision}")
        if self.nb_iteration not in _POW2 or not 32 <= self.nb_iteration <= 1024:
            raise ConfigError(f"nbIteration must be a power of two in [2^5, 2^10], got {self.nb_iteration}")
        if self.nb_euler not in _POW2 or not 2 <= self.nb_euler <= 64:
            raise ConfigError(f"nbEuler must be a power of two in [2^1, 2^6], got {self.nb_euler}")
        if self.nb_core not in _POW2 or not 4 <= self.nb_core <= 1024:
            raise ConfigError(f"nbCore must be a power of two in [2^2, 2^10], got {self.nb_core}")


def quantize(x: float, dynamic: int, precision: int) -> tuple[float, bool]:
    """Round to the fixed-point grid, saturating at +-(2^dynamic - 2^-precision).

    Returns (value, saturated). Rounding is half-up on the scaled
    integer.
    """
    scale = float(1 << precision)
    scaled = math.floor(x * scale + 0.5)
    limit = (1 << (dynamic + precision)) - 1
    if scaled > limit:
        return limit / scale, True
    if scaled < -limit:
        return -limit / scale, True
    return scaled / scale, False


def closed_form(model: BsModelParams) -> float:
    """Analytic expectation of the terminal value: S0 * e^(mu*T)."""
    return model.S0 * math.exp(model.mu * model.T)


@dataclass(frozen=True)
class EulerResult:
    estimate: float
    saturations: int


def euler_estimate(cfg: BsConfig) -> EulerResult:
    """Quantized mean over nb_iteration independent Euler paths.

    Saturation events are counted, not fatal. Paths run sequentially
    off one generator stream; the mean uses compensated summation so
    the result does not depend on how callers parallelize points.
    """
    m = cfg.model
    dt = m.T / cfg.nb_euler
    drift = (m.mu - 0.5 * m.sigma * m.sigma) * dt
    vol = m.sigma * math.sqrt(dt)
    rng = Taus88(cfg.seed)
    gauss = rng.gauss
    floor = math.floor

    scale = float(1 << cfg.precision)
    inv = 1.0 / scale
    limit = float((1 << (cfg.dynamic + cfg.precision)) - 1)
    saturations = 0
    one_plus_drift = 1.0 + drift

    s0_scaled = floor(m.S0 * scale + 0.5)
    if s0_scaled > limit:
        s0_scaled = limit
        saturations += 1
    elif s0_scaled < -limit:
        s0_scaled = -limit
        saturations += 1
    s0_q = s0_scaled * inv

    total = 0.0
    comp = 0.0
    for _ in range(cfg.nb_iteration):
        s = s0_q
        for _ in range(cfg.nb_euler):
            zs = floor(gauss() * scale + 0.5)
            if zs > limit:
                zs = limit
                saturations += 1
            elif zs < -limit:
                zs = -limit
                saturations += 1
            ms = floor((one_plus_drift + vol * (zs * inv)) * scale + 0.5)
            if ms > limit:
                ms = limit
                saturations += 1
            elif ms < -limit:
                ms = -limit
                saturations += 1
            ss = floor(s * (ms * inv) * scale + 0.5)
            if ss > limit:
                ss = limit
                saturations += 1
            elif ss < -limit:
                ss = -limit
                saturations += 1
            s = ss * inv
        # Kahan step keeps the mean independent of summation grouping
        y = s - comp
        t = total + y
        comp = (t - total) - y
        total = t

    mean = total / cfg.nb_iteration
    estimate, sat = quantize(mean, cfg.dynamic, cfg.precision)
    return EulerResult(estimate, saturations + (1 if sat else 0))


def euler_estimate_unquantized(cfg: BsConfig) -> float:
    """Double-precision reference run consuming the identical draw stream."""
    m = cfg.model
    dt = m.T / cfg.nb_euler
    drift = (m.mu - 0.5 * m.sigma * m.sigma) * dt
    vol = m.sigma * math.sqrt(dt)
    rng = Taus88(cfg.seed)
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


def _env_int(view: PointView, name: str) -> int:
    env = view.env
    if name not in env:
        raise EvalError(
            EvalErrorKind.NAME_NOT_FOUND, f"parameter {name!r} not found on point", name=name
        )
    return int(env[name])


def qos_evaluator(
    model: BsModelParams = DEFAULT_MODEL,
    global_seed: int = 0,
    name: str = "qos_sim",
) -> Evaluator:
    """Evaluator producing the relative estimation error of a point.

    The per-point seed mixes the point's coordinates with the global
    seed, so repeated evaluations are reproducible and cacheable.
    """

    def func(view: PointView) -> Sequence[float]:
        reference = closed_form(model)
        if reference == 0.0:
            raise EvalError(
                EvalErrorKind.DIV_BY_ZERO, "relative error undefined: expectation is zero"
            )
        env = view.env
        cfg = BsConfig(
            dynamic=_env_int(view, "dynamic"),
            precision=_env_int(view, "precision"),
            nb_iteration=_env_int(view, "nbIteration"),
            nb_euler=_env_int(view, "nbEuler"),
            nb_core=int(env.get("nbCore", 4)),
            model=model,
            seed=mix_seed(view.coords, global_seed),
        )
        estimate = euler_estimate(cfg).estimate
        return (abs(estimate - reference) / abs(reference),)

    return Evaluator(name, ("error",), func)


def latency_evaluator(overhead: int = 0, name: str = "latency") -> Evaluator:
    """Modeled latency: ceil(nbIteration / nbCore) * nbEuler + overhead.

    The companion throughput expression is
    `freq_mhz * 1e6 / latency_cycles` (estimations per second).
    """

    def func(view: PointView) -> Sequence[float]:
        nb_iteration = _env_int(view, "nbIteration")
        nb_euler = _env_int(view, "nbEuler")
        nb_core = _env_int(view, "nbCore")
        cycles = -(-nb_iteration // nb_core) * nb_euler + overhead
        return (float(cycles),)

    return Evaluator(name, ("latency_cycles",), func)

