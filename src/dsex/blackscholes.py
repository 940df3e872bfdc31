"""Monte-Carlo option value kernel used as a quality-of-service metric.

Simulates the fixed-point hardware estimator in software: paths of
multiplicative Euler steps S <- S * quantize(1 + (mu - sigma^2/2)*dt +
sigma*sqrt(dt)*Z), with Z drawn from a 3-component Tausworthe-style
uniform generator (`Taus88`, which is not L'Ecuyer's taus88) through
the Box-Muller transform and quantized to the configured fixed-point
format. The relative gap between the quantized path mean and the
analytic expectation S0*exp(mu*T) is the estimator's `error` metric.

The kernel is pure Python. All of a point's paths advance together:
each path's generator state sits in a 64-bit lane of one Python int
per component, and a GF(2) jump-ahead gives each path its start.

`nbCore` only shapes latency, never the statistics: estimates are
bit-identical across core counts at a fixed seed.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


# The generator's three components. Each steps its 32-bit state as
# s <- ((s & keep) << a) ^ (((s << b) ^ s) >> c), truncated to 32 bits.
# Python ints do not wrap, so s << b keeps its high bits through the
# right shift. Every step is linear over GF(2).
_KEEP = (0xFFFFFFFE, 0xFFFFFFF8, 0xFFFFFFF0)
_SHIFTS = ((12, 13, 19), (4, 2, 25), (17, 3, 11))
_U32 = 0xFFFFFFFF


def _advance(states: Sequence[int], keep: Sequence[int], low: int) -> list[int]:
    """One step of each component's state.

    With `keep` and `low` replicated into 64-bit lanes, one call steps
    every lane of a packed state: no left shift carries past bit 48 of
    a lane, and what a right shift brings down from the next lane lands
    above bit 31, where `low` clears it.
    """
    return [
        (((s & k) << a) ^ (((s << b) ^ s) >> c)) & low
        for s, k, (a, b, c) in zip(states, keep, _SHIFTS)
    ]


class Taus88:
    """3-component combined Tausworthe-style generator.

    It uses the shifts and masks of L'Ecuyer's taus88, but does not
    truncate `s << b` to 32 bits before the right shift (see `_advance`),
    so it is not taus88 and its period is not established.
    """

    def __init__(self, seed: int):
        s1 = _splitmix64(seed & _M64)
        s2 = _splitmix64(s1)
        s3 = _splitmix64(s2)
        # state minima avoid degenerate cycles
        self.state = [(s & _U32) | 16 for s in (s1, s2, s3)]
        for _ in range(6):
            self.next_u32()

    def next_u32(self) -> int:
        self.state = s1, s2, s3 = _advance(self.state, _KEEP, _U32)
        return s1 ^ s2 ^ s3


def _pack(values: Sequence[int]) -> int:
    """One int holding each value in its own 64-bit lane, first value lowest."""
    return int.from_bytes(array("Q", values), sys.byteorder)


def _unpack(packed: int, lanes: int) -> list[int]:
    return memoryview(packed.to_bytes(8 * lanes, sys.byteorder)).cast("Q").tolist()


def _lane_masks(lanes: int) -> tuple[list[int], int]:
    """`_KEEP` and the 32-bit mask, replicated into each of `lanes` lanes."""
    ones = _pack([1] * lanes)
    return [k * ones for k in _KEEP], _U32 * ones


_JUMPS: dict[int, list[tuple[list[int], ...]]] = {}


def _jump_tables(steps: int) -> list[tuple[list[int], ...]]:
    """Per component, four byte tables of its `steps`-fold step.

    The step is linear, so it maps a state to the XOR of the images of
    its four bytes. Built on first use and kept; evaluation threads that
    race here build equal tables.
    """
    tables = _JUMPS.get(steps)
    if tables is None:
        # the 32 unit vectors step together, one per lane
        keep, low = _lane_masks(32)
        states = [_pack([1 << j for j in range(32)])] * 3
        for _ in range(steps):
            states = _advance(states, keep, low)
        tables = []
        for packed in states:
            images = _unpack(packed, 32)
            per_byte = []
            for q in range(0, 32, 8):
                table = [0]
                for image in images[q : q + 8]:
                    table += [x ^ image for x in table]
                per_byte.append(table)
            tables.append(tuple(per_byte))
        _JUMPS[steps] = tables
    return tables


def _draws(seed: int, nb_iteration: int, nb_euler: int) -> Iterator[list[int]]:
    """For k = 1 to nb_euler, every path's k-th u32 draw, in path order.

    Path i reads draws i*nb_euler + 1 to (i+1)*nb_euler of the single
    `Taus88(seed)` stream. A jump of nb_euler steps gives each path its
    start, and the paths then advance together, one per lane.
    """
    states = []
    for s, (t0, t1, t2, t3) in zip(Taus88(seed).state, _jump_tables(nb_euler)):
        starts = [s]
        for _ in range(nb_iteration - 1):
            s = t0[s & 255] ^ t1[s >> 8 & 255] ^ t2[s >> 16 & 255] ^ t3[s >> 24]
            starts.append(s)
        states.append(_pack(starts))
    keep, low = _lane_masks(nb_iteration)
    for _ in range(nb_euler):
        states = s1, s2, s3 = _advance(states, keep, low)
        yield _unpack(s1 ^ s2 ^ s3, nb_iteration)


def _clamp(values: list, limit: float) -> tuple[list, int]:
    """`values` saturated at +-limit, and how many saturated."""
    if max(values) <= limit and min(values) >= -limit:
        return values, 0
    clamped = [limit if v > limit else -limit if v < -limit else v for v in values]
    return clamped, sum(v != c for v, c in zip(values, clamped))


@dataclass(frozen=True)
class BsModelParams:
    """Constants of the underlying stochastic model (fixture values)."""

    S0: float = 100.0
    mu: float = 0.05
    sigma: float = 0.2
    T: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.S0, self.mu, self.sigma, self.T))):
            raise ConfigError(f"model parameters must be finite, got {self}")
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

    Saturation events are counted, not fatal. Path i reads the i-th
    block of nb_euler draws of one generator stream, so the paths can
    advance together; the mean sums them in path order with compensated
    summation, so the result does not depend on how callers
    parallelize points.
    """
    m = cfg.model
    dt = m.T / cfg.nb_euler
    drift = (m.mu - 0.5 * m.sigma * m.sigma) * dt
    vol = m.sigma * math.sqrt(dt)
    floor = math.floor
    sqrt, log, cos, sin = math.sqrt, math.log, math.cos, math.sin
    two_pi = 2.0 * math.pi

    scale = float(1 << cfg.precision)
    inv = 1.0 / scale
    limit = float((1 << (cfg.dynamic + cfg.precision)) - 1)
    one_plus_drift = 1.0 + drift
    (s0_scaled,), saturations = _clamp([floor(m.S0 * scale + 0.5)], limit)

    # The paths advance together: step k of every path reads column k of
    # the draws. A path keeps its scaled integer ss, not s = ss * inv:
    # scaling by a power of two is exact at these magnitudes, so
    # floor(s * q * scale + 0.5) is floor(ss * q + 0.5), and a step q is
    # clamped at limit * inv exactly when its integer is at limit. Every
    # uniform is at least 2^-33, so |z| < 6.8 and, as dynamic >= 8, the
    # quantized z never saturates.
    limit_q = limit * inv
    paths = [s0_scaled] * cfg.nb_iteration
    draws = _draws(cfg.seed, cfg.nb_iteration, cfg.nb_euler)
    # Box-Muller: each pair of draws gives two normals, the cosine's first
    for u1s, u2s in zip(draws, draws):
        rs = [sqrt(-2.0 * log((u + 0.5) * 2.0**-32)) for u in u1s]
        thetas = [two_pi * ((u + 0.5) * 2.0**-32) for u in u2s]
        for trig in (cos, sin):
            steps = [
                floor((one_plus_drift + vol * (floor(r * t * scale + 0.5) * inv)) * scale + 0.5) * inv
                for r, t in zip(rs, map(trig, thetas))
            ]
            steps, n = _clamp(steps, limit_q)
            paths, n_paths = _clamp([floor(ss * q + 0.5) for ss, q in zip(paths, steps)], limit)
            saturations += n + n_paths

    total = 0.0
    comp = 0.0
    for ss in paths:
        s = ss * inv
        # Kahan step keeps the mean independent of summation grouping
        y = s - comp
        t = total + y
        comp = (t - total) - y
        total = t

    mean = total / cfg.nb_iteration
    estimate, sat = quantize(mean, cfg.dynamic, cfg.precision)
    return EulerResult(estimate, saturations + (1 if sat else 0))


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

    return Evaluator(name, ("latency_cycles",), func, reads={"nbIteration", "nbEuler", "nbCore"})

