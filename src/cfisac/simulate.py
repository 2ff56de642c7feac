"""Epoch loop: truth propagation, traffic, sensing, tracking and rates.

A run has a sequential part and an open-loop part. The sequential part is
the epoch loop of the filter arms: each epoch advances the filter, decides
whether to sense, selects the receive APs and synthesizes estimator
outputs as Gaussian draws with the estimation-bound covariance. Every
filter arm runs this one cycle; its row of `_ARMS` says when it senses,
which APs listen and at what power. The arms run on the same per-epoch
random streams so they stay comparable. The loop appends each epoch to
the columns of a `RunLog`. An arm's filter is six Python floats, which a
sensing epoch keeps through the float cores of the synthesis and update;
only the update's dense products and solve are numpy's. The open-loop part
is the downlink: the rate of an epoch depends only on the true and the
tracked positions and never feeds back into a filter, so the log evaluates
it when it is read, with one `steered_links` call per method (tracked,
power-split and perfect knowledge) over the traffic epochs stepped since
the last read.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _from_oracles
from .comms import ANGLE_MODES, PHASE_MODES, LinkError, steered_links
from .config import SystemConfig
from .crb import (CrbBlock, WaveformSpec, all_ones_waveform, block_diagonal,
                  range_velocity_blocks)
from .geometry import TargetTruth
from .selection import ApSelection
from .sensing import (_NO_SENSING, _SENSING, Action, SensingPolicy,
                      _lowest_variance, _score_blocks, available_rx_aps,
                      decide_action)
from .tracking import (MeasurementSet, MotionModel, StateEstimate,
                       _angle_variance, _check_selection, _linearize,
                       _predict_floats, _update_floats, predict)

COMPARISON_ARMS = ("conventional", "random", "perfect")

# A code is part of every draw's key, so codes are never renumbered; 3 is
# retired.
_STREAM_CODES = {"rcs": 1, "measurement": 2, "traffic": 4, "selection": 5}
# Philox counter and buffer at rest, as Python ints: the state setter reads
# them element by element, which is about twice as fast from a tuple as from
# a uint64 array.
_ZEROS = (0, 0, 0, 0)
# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11): the two round multipliers and the two key increments.
_PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_KEY_BUMPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mulhilo(a: np.ndarray, multiplier: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of each 128-bit product a * multiplier,
    built from 32-bit halves so that no uint64 operation overflows."""
    half, mask = np.uint64(32), np.uint64(0xFFFFFFFF)
    m_lo, m_hi = np.uint64(multiplier & 0xFFFFFFFF), np.uint64(multiplier >> 32)
    a_lo, a_hi = a & mask, a >> half
    lo_lo, hi_lo, lo_hi = a_lo * m_lo, a_hi * m_lo, a_lo * m_hi
    middle = (lo_lo >> half) + (hi_lo & mask) + (lo_hi & mask)
    high = a_hi * m_hi + (hi_lo >> half) + (lo_hi >> half) + (middle >> half)
    return high, ((middle & mask) << half) | (lo_lo & mask)


@dataclass(frozen=True)
class RngStream:
    """Counter-style stream: (seed, stream, epoch) pins the draws exactly.

    The first `generator` call builds one Philox generator; every later
    call resets its key and counter to those of the epoch and returns the
    same generator, so it draws exactly what a new
    `Generator(Philox(key=...))` would. A generator from this stream is
    therefore reset by the next call on the same stream.

    The key is (seed, (code << 32) + epoch), so a seed outside [0, 2**64),
    an epoch outside [0, 2**32) (which would draw another stream's numbers)
    and an unknown `stream_id` raise ValueError naming the value.
    """

    seed: int
    stream_id: str
    _generator: np.random.Generator | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.stream_id not in _STREAM_CODES:
            raise ValueError(f"unknown stream_id {self.stream_id!r}, not one "
                             f"of {sorted(_STREAM_CODES)}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed {self.seed!r} outside [0, 2**64)")

    def generator(self, epoch: int = 0) -> np.random.Generator:
        if not 0 <= epoch < 2 ** 32:
            raise ValueError(f"epoch {epoch!r} outside [0, 2**32)")
        code = _STREAM_CODES[self.stream_id]
        key = (self.seed, (code << 32) + epoch)
        if self._generator is None:
            object.__setattr__(self, "_generator", np.random.Generator(
                np.random.Philox(key=np.array(key, dtype=np.uint64))))
        else:
            self._generator.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": _ZEROS, "key": key},
                "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0,
                "uinteger": 0}
        return self._generator

    def first_uniforms(self, epochs: np.ndarray) -> np.ndarray:
        """`self.generator(e).random()` for each epoch e in `epochs`, bit for
        bit, in one vectorized Philox4x64-10 evaluation.

        A reset generator increments its counter before its first block, so
        that block is Philox of counter (1, 0, 0, 0) under the key
        (seed, (code << 32) + e), and `random()` is the top 53 bits of its
        first word over 2**53.
        """
        epochs = np.asarray(epochs)
        for epoch in (epochs.min(initial=0), epochs.max(initial=0)):
            if not 0 <= epoch < 2 ** 32:
                raise ValueError(f"epoch {int(epoch)} outside [0, 2**32)")
        code = _STREAM_CODES[self.stream_id]
        key_hi = np.uint64(code << 32) + epochs.astype(np.uint64)
        c0 = np.ones_like(key_hi)
        c1, c2, c3 = (np.zeros_like(key_hi) for _ in range(3))
        for bumps in range(10):
            key0 = np.uint64((self.seed + bumps * _PHILOX_KEY_BUMPS[0])
                             & _MASK64)
            key1 = key_hi + np.uint64(bumps * _PHILOX_KEY_BUMPS[1] & _MASK64)
            hi0, lo0 = _mulhilo(c0, _PHILOX_MULTIPLIERS[0])
            hi1, lo1 = _mulhilo(c2, _PHILOX_MULTIPLIERS[1])
            c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
        return (c0 >> np.uint64(11)) * (1.0 / 9007199254740992.0)


@dataclass(frozen=True)
class TrafficModel:
    """Bernoulli per-epoch ON draws, or explicit [start, end) ON intervals."""

    mode: str = "bernoulli"
    on_probability: float = 0.3
    intervals: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ("bernoulli", "intervals"):
            raise ValueError("traffic mode must be 'bernoulli' or 'intervals'")
        if self.mode == "bernoulli" and not 0.0 <= self.on_probability <= 1.0:
            raise ValueError("on_probability must lie in [0, 1]")
        if self.mode == "bernoulli" and self.intervals:
            raise ValueError("intervals: only read in mode 'intervals'")
        # Intervals mode takes on_probability only at its default, which the
        # canonical config records for every mode, so that it loads back.
        if (self.mode == "intervals"
                and self.on_probability != TrafficModel.on_probability):
            raise ValueError("on_probability: only read in mode 'bernoulli'")
        intervals = tuple((int(s), int(e)) for s, e in self.intervals)
        if intervals != tuple(tuple(bounds) for bounds in self.intervals):
            raise ValueError("intervals: bounds must be whole numbers")
        object.__setattr__(self, "intervals", intervals)

    def on_flags(self, epochs: np.ndarray, stream: RngStream) -> np.ndarray:
        """Whether traffic is ON in each epoch: in Bernoulli mode, whether the
        epoch's first uniform of `stream` lies below `on_probability`."""
        if self.mode == "bernoulli":
            return stream.first_uniforms(epochs) < self.on_probability
        on = np.zeros(epochs.shape, dtype=bool)
        for start, end in self.intervals:
            on |= (start <= epochs) & (epochs < end)
        return on


def _check_initial_estimate(est: StateEstimate) -> None:
    """Finite mean, finite symmetric PSD covariance; checked once per scenario
    rather than in StateEstimate, which the filter rebuilds every epoch."""
    cov = est.covariance
    if not (np.isfinite(est.mean).all() and np.isfinite(cov).all()):
        raise ValueError("initial_estimate: mean and covariance must be finite")
    scale = float(np.abs(cov).max())
    if np.abs(cov - cov.T).max() > 1e-12 * scale:
        raise ValueError("initial_estimate: covariance must be symmetric")
    if np.linalg.eigvalsh(cov).min() < -1e-12 * scale:
        raise ValueError(
            "initial_estimate: covariance must be positive semidefinite")


@dataclass(frozen=True)
class Scenario:
    system: SystemConfig
    policy: SensingPolicy
    initial_truth: TargetTruth
    initial_estimate: StateEstimate
    num_epochs: int = 200
    traffic: TrafficModel = TrafficModel()
    seed: int = 7
    comparison_arms: tuple[str, ...] = COMPARISON_ARMS
    phase_mode: str = "compensated"
    angle_mode: str = "per_ap"

    def __post_init__(self) -> None:
        # RngStream takes epochs in [0, 2**32) and seeds in [0, 2**64), and
        # raises past them; checked here, a config error names the field.
        if not 1 <= self.num_epochs <= 2 ** 32:
            raise ValueError("num_epochs: must lie in [1, 2**32]")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed: must lie in [0, 2**64)")
        unknown = set(self.comparison_arms) - set(COMPARISON_ARMS)
        if unknown:
            raise ValueError(f"unknown comparison arms {sorted(unknown)}")
        object.__setattr__(self, "comparison_arms",
                           tuple(a for a in COMPARISON_ARMS
                                 if a in self.comparison_arms))
        for name, allowed in (("phase_mode", PHASE_MODES),
                              ("angle_mode", ANGLE_MODES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name}: must be one of {allowed}")
        # The sensing grid is unit-modulus, so its bound is singular exactly
        # when one of these index ranges has a single entry.
        if self.system.num_symbols < 2:
            raise ValueError("system.num_symbols: sensing needs >= 2 symbols "
                             "(doppler unidentifiable with one)")
        if self.system.antennas_per_ap < 2:
            raise ValueError("system.antennas_per_ap: sensing needs >= 2 "
                             "antennas (angle unidentifiable with one)")
        truth = self.initial_truth
        if not (math.isfinite(truth.position_x)
                and math.isfinite(truth.velocity_x)):
            raise ValueError("initial_truth: target position and velocity "
                             "must be finite")
        _check_initial_estimate(self.initial_estimate)
        available = available_rx_aps(self.system, self.policy)
        # An unconstrained random receive set is drawn as an int64 bitmask.
        if ("random" in self.comparison_arms
                and self.policy.subset_cardinality == 0
                and len(available) > 63):
            raise ValueError(
                f"arms: the random arm draws an unconstrained receive set "
                f"from at most 63 available APs, not {len(available)}")
        for start, end in self.traffic.intervals:
            if not 0 <= start < end <= self.num_epochs:
                raise ValueError(
                    f"traffic interval [{start}, {end}): must satisfy "
                    f"0 <= start < end <= num_epochs = {self.num_epochs}")

    @property
    def rated_methods(self) -> tuple[str, ...]:
        """The downlink methods a run rates: "proposed", then "conventional"
        and "perfect" where the scenario runs them."""
        return ("proposed", *(a for a in self.comparison_arms
                              if a in ("conventional", "perfect")))


def _floats() -> array:
    return array("d")


@dataclass(eq=False)
class ArmColumns:
    """One filter arm's run, one entry per epoch in each column: the
    posterior mean (`mean_p`, `mean_v`) and covariance entries (`p00`,
    `p01`, `p11`; the filter keeps P10 = P01), the predicted angle
    variance and the receive set's bitmask, nonzero exactly where it sensed."""

    mean_p: array = field(default_factory=_floats)
    mean_v: array = field(default_factory=_floats)
    p00: array = field(default_factory=_floats)
    p01: array = field(default_factory=_floats)
    p11: array = field(default_factory=_floats)
    variance: array = field(default_factory=_floats)
    bitmask: list[int] = field(default_factory=list)

    def arm_epoch(self, k: int, num_aps: int) -> ArmEpoch:
        """Epoch k of this arm as an `ArmEpoch`."""
        from ._oracles import ArmEpoch

        p01 = self.p01[k]
        mask = self.bitmask[k]
        return ArmEpoch(_SENSING if mask else _NO_SENSING,
                        ApSelection.from_bitmask(num_aps, mask),
                        self.variance[k],
                        StateEstimate([self.mean_p[k], self.mean_v[k]],
                                      [[self.p00[k], p01], [p01, self.p11[k]]]))


class RunLog(Sequence):
    """A run as columns, and as a sequence of `EpochRecord`s built on access.

    `truth_x` holds each epoch's true position (the velocity is the run's
    constant `velocity_x`), `traffic_on` each epoch's traffic flag and
    `arms` each filter arm's `ArmColumns`, in stepping order. `rates` maps
    each method of `scenario.rated_methods` to the (snr, rate) arrays of
    `steered_links`, whose entry j is the link of epoch `rated_epochs[j]`,
    for every traffic-ON epoch stepped so far. Its length is the number of
    epochs stepped.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.velocity_x = scenario.initial_truth.velocity_x
        on = scenario.traffic.on_flags(np.arange(scenario.num_epochs),
                                       RngStream(scenario.seed, "traffic"))
        self.traffic_on = tuple(on.tolist())
        self.truth_x = _floats()
        self.arms = {name: ArmColumns() for name in _ARMS
                     if name == "proposed" or name in scenario.comparison_arms}
        # The run's traffic-ON epochs, and each method's (snr, rate) over
        # them; reads fill them in order, the first `_num_rated` so far.
        self._on = np.flatnonzero(on)
        self._links = {tag: (np.empty(len(self._on)), np.empty(len(self._on)))
                       for tag in scenario.rated_methods}
        self._num_rated = 0

    def __len__(self) -> int:
        return len(self.truth_x)

    @property
    def rated_epochs(self) -> np.ndarray:
        return self._on[:self._rate()]

    @property
    def rates(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        n = self._rate()
        return {tag: (snr[:n], rate[:n])
                for tag, (snr, rate) in self._links.items()}

    def _rate(self) -> int:
        """Rate the traffic-ON epochs stepped since the last read, one
        `steered_links` call per method, and return how many are rated: the
        tracked arm steers full power at its estimate, the conventional arm
        half power at its own, the perfect bound full power at the truth."""
        done, end = self._num_rated, int(np.searchsorted(self._on, len(self)))
        if done < end:
            scenario, on = self.scenario, self._on[done:end]
            first = int(on[0])  # so a read copies only the columns' new part
            truth_x = np.array(self.truth_x[first:])[on - first]
            for tag, (snr, rate) in self._links.items():
                position_x, power_fraction, angle_mode = (
                    (truth_x, 1.0, "per_ap") if tag == "perfect" else
                    (np.array(self.arms[tag].mean_p[first:])[on - first],
                     _ARMS[tag].power_fraction, scenario.angle_mode))
                try:
                    snr[done:end], rate[done:end] = steered_links(
                        scenario.system, truth_x, position_x, power_fraction,
                        scenario.phase_mode, angle_mode)
                except LinkError as exc:
                    raise ValueError(f"epoch {on[exc.link]}, {tag} rates: "
                                     f"{exc}") from exc
            self._num_rated = end
        return end

    def __getitem__(self, k) -> EpochRecord | list[EpochRecord]:
        from ._oracles import EpochRecord, LinkResult

        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("epoch index out of range")
        on = self.traffic_on[k]
        rates = {}
        if on:
            self._rate()
            j = int(np.searchsorted(self._on, k))
            rates = {tag: LinkResult(float(snr[j]), float(rate[j]))
                     for tag, (snr, rate) in self._links.items()}
        return EpochRecord(
            k, TargetTruth(self.truth_x[k], self.velocity_x),
            "ON" if on else "OFF", rates,
            {name: columns.arm_epoch(k, self.scenario.system.num_aps)
             for name, columns in self.arms.items()})


class EpochStep(NamedTuple):
    """What `run_epoch` returns: the epoch it stepped and the proposed arm's
    action; the epoch's record is `state.log[epoch]`."""

    epoch: int
    action: Action


class SimState:
    """Mutable loop state threaded through run_epoch, built from the one
    scenario it steps. `log` is the run so far, `truth_x` the true position
    after the last epoch stepped and `estimates` each filter arm's estimate
    as the floats (p, v, P00, P01, P10, P11). The rest is fixed; the
    waveform evaluates the entries of its unit-gain bound block, which it
    keeps as floats, and checks its grid, at the first sensing epoch."""

    def __init__(self, scenario: Scenario) -> None:
        cfg, est = scenario.system, scenario.initial_estimate
        self.log = RunLog(scenario)
        self.truth_x = scenario.initial_truth.position_x
        initial = (*est.mean.tolist(), *est.covariance.ravel().tolist())
        self.estimates = {name: initial for name in self.log.arms}
        self.waveform = all_ones_waveform(cfg)
        self.model = MotionModel.from_config(cfg)
        self.streams = {name: RngStream(scenario.seed, name)
                        for name in ("rcs", "measurement", "selection")}
        # every AP (the conventional arm's), and those the gated arms pick
        self.full_selection = ApSelection.full(cfg.num_aps)
        self.available = ApSelection.from_indices(
            cfg.num_aps, available_rx_aps(cfg, scenario.policy))
        # the read-only mean cross sections the proposed arm plans with
        self.planning_rcs = np.full(cfg.num_aps, cfg.mean_rcs)
        self.planning_rcs.setflags(write=False)

    @property
    def epoch(self) -> int:  # the next epoch to step
        return len(self.log)


class _Arm(NamedTuple):
    """What sets a filter arm apart; every arm runs one `_plan` and `_act`."""

    gated: bool            # senses only when idle and above the threshold
    receivers: str         # "optimal", "random" or "all" APs listen
    power_fraction: float  # of the transmit power, for sensing and downlink


# Filter arms in stepping order; "perfect" tracks nothing and has no row.
_ARMS = {"proposed": _Arm(True, "optimal", 1.0),
         "random": _Arm(True, "random", 1.0),
         "conventional": _Arm(False, "all", 0.5)}


def draw_rcs(rng: np.random.Generator, cfg: SystemConfig,
             num_aps: int) -> np.ndarray:
    """Per-AP fluctuating cross sections: exponential with the configured mean."""
    return rng.exponential(cfg.mean_rcs, size=num_aps)


def _check_rcs(cfg: SystemConfig, rcs: np.ndarray) -> None:
    """Raise ValueError unless `rcs` holds one cross section per AP."""
    if np.shape(rcs) != (cfg.num_aps,):
        raise ValueError(f"rcs: need shape ({cfg.num_aps},), one cross "
                         f"section per AP, got {np.shape(rcs)}")


def _hops(cfg: SystemConfig, waveform: WaveformSpec, position_x: float,
          velocity_x: float, rcs: np.ndarray, power_fraction: float,
          aps: Sequence[int], state: str = "target truth"
          ) -> tuple[list[tuple[float, ...]], list[float]]:
    """The floats a sensing epoch reads of the hops of `aps`, indices into
    `cfg`, at the state (position_x, velocity_x): the `_linearize` rows,
    and the entries r00, r01, r10, r11 of each AP's bound block in turn,
    the unit-gain `crb_block` over the AP's hop gain. A state that is not
    finite raises ValueError naming it as `state`, and a transmit hop too
    short for its gain to be a float one naming the transmitting AP."""
    if not 0.0 < power_fraction <= 1.0:
        raise ValueError("power_fraction must lie in (0, 1]")
    if not (math.isfinite(position_x) and math.isfinite(velocity_x)):
        raise ValueError(f"{state} must be finite")
    u00, u01, u10, u11 = waveform._unit_for(cfg)
    wavelength, offset = cfg.wavelength, cfg.corridor_offset
    positions, hypot, four_pi = cfg.ap_positions, math.hypot, 4.0 * math.pi
    # Each hop's path gain is geometry_for_ap's (lambda / (4 pi d))^2.
    dist = hypot(position_x - positions[cfg.tx_ap], offset)
    try:
        scale = ((wavelength / (four_pi * dist)) ** 2
                 * 2.0 * math.pi / wavelength ** 2
                 * power_fraction * cfg.tx_power * cfg.antennas_per_ap)
    except OverflowError as exc:
        raise ValueError(f"path gain to transmitting AP {cfg.tx_ap} "
                         f"overflows: the range is too short") from exc
    rows, entries = _linearize(cfg, position_x, velocity_x, aps), []
    for ap, (dist, _, _, _) in zip(aps, rows):
        cross_section = float(rcs[ap])
        if cross_section < 0:
            raise ValueError("rcs must be nonnegative")
        gain = (scale * (wavelength / (four_pi * dist)) ** 2
                * cross_section * cross_section)
        if not gain > 0:  # also a NaN cross section
            raise ValueError("sensing gain must have positive power")
        entries += (u00 / gain, u01 / gain, u10 / gain, u11 / gain)
    return rows, entries


def crb_blocks_for_state(cfg: SystemConfig, waveform: WaveformSpec,
                         position_x: float, velocity_x: float,
                         rcs: np.ndarray, power_fraction: float = 1.0
                         ) -> list[CrbBlock]:
    """Every AP's (range, radial velocity) bound block at a reference state.

    The sensing transmitter steers power_fraction of its power at the
    reference position, so each hop gain is `sensing_gain` of that matched
    beam in closed form: |alpha|^2 = beta_tx beta_rx (2 pi / lambda^2) rcs^2
    power_fraction tx_power N. Each block is the unit-gain `crb_block` over
    that gain, a few ulp from `crb_block` of the gain, from the same
    per-AP pass the simulator's sensing epoch makes. The errors are those
    of `geometry_for_ap` and `crb_block`. The waveform keeps the unit-gain
    block's entries, so that block, and with it the grid check, is
    evaluated once per waveform and config.
    The bound is taken at zero delay/Doppler: the Fisher information depends
    on the waveform grid only through its power-weighted index moments,
    cached on the WaveformSpec, so the evaluation point does not change the
    result. The FFT-based crb_delay_doppler is the general-grid reference it
    is tested against. `rcs` must hold one cross section per AP.
    """
    _check_rcs(cfg, rcs)
    stack = np.array(_hops(cfg, waveform, position_x, velocity_x, rcs,
                           power_fraction, range(cfg.num_aps))[1]
                     ).reshape(-1, 2, 2)
    return [CrbBlock(block, ap) for ap, block in enumerate(stack)]


def _noise_factor(ap: int, r00: float, r10: float,
                  r11: float) -> tuple[float, float, float, float]:
    """The lower Cholesky factor of the 2x2 noise block [[r00, .], [r10,
    r11]] of AP `ap`, in closed form and flattened row by row. Like
    LAPACK's potrf it scales by the pivot's reciprocal, which gives
    `np.linalg.cholesky`'s factor bit for bit; a block that is not positive
    definite, or holds a NaN, raises ValueError naming the AP."""
    if r00 > 0:
        l00 = math.sqrt(r00)
        l10 = r10 * (1.0 / l00)
        pivot = r11 - l10 * l10
        if pivot > 0:
            return l00, 0.0, l10, math.sqrt(pivot)
    raise ValueError(f"noise block of AP {ap} is not positive definite")


def _measure(cfg: SystemConfig, aps: tuple[int, ...],
             rows: Sequence[tuple[float, ...]], entries: Sequence[float],
             rng: np.random.Generator) -> list[float]:
    """The measured pairs of `aps`: each AP's `_linearize` row's range and
    radial velocity plus its noise, the closed-form factor (`_noise_factor`)
    of its bound block, entries r00, r01, r10, r11 in turn in `entries`,
    times its two of the normals drawn for every AP of `cfg`, so the subset
    never shifts the stream. No BLAS kernel rounds these Python floats."""
    factors = [_noise_factor(ap, r00, r10, r11) for ap, r00, r10, r11 in zip(
        aps, entries[0::4], entries[2::4], entries[3::4])]
    z, values = rng.standard_normal(2 * cfg.num_aps).tolist(), []
    for ap, (dist, radial, _, _), (l00, _, l10, l11) in zip(aps, rows, factors):
        values += (dist + l00 * z[2 * ap],
                   radial + (l10 * z[2 * ap] + l11 * z[2 * ap + 1]))
    return values


def synthesize_measurement(cfg: SystemConfig, truth: TargetTruth,
                           selection: ApSelection, rcs: np.ndarray,
                           rng: np.random.Generator, *,
                           waveform: WaveformSpec,
                           power_fraction: float = 1.0,
                           filter_mean: np.ndarray | None = None,
                           truth_blocks: list[CrbBlock] | None = None
                           ) -> MeasurementSet:
    """Estimator outputs as Gaussian draws around the true geometry, drawn
    by `_measure`.

    Noise covariance per AP is the (range, velocity) bound of `_hops` at
    the TRUE state with the epoch's cross-section draws, or the caller's
    `truth_blocks`. The attached covariance is that of `_hops` at
    filter_mean when given (the tracker linearization point), otherwise it
    is the noise covariance. `rcs` must hold one cross section per AP.
    """
    _check_selection(cfg, selection)
    _check_rcs(cfg, rcs)
    if selection.cardinality == 0:
        raise ValueError("no sensing receivers selected")
    aps, x, v = selection.indices, truth.position_x, truth.velocity_x
    mean = (None if filter_mean is None else
            (float(filter_mean[0]), float(filter_mean[1])))
    if truth_blocks is None:
        rows, entries = _hops(cfg, waveform, x, v, rcs, power_fraction, aps)
    else:
        rows = _linearize(cfg, x, v, aps)
        entries = range_velocity_blocks(truth_blocks, aps).ravel().tolist()
    values = _measure(cfg, aps, rows, entries, rng)
    if mean is not None:
        entries = _hops(cfg, waveform, *mean, rcs, power_fraction, aps,
                        "filter mean")[1]
    return MeasurementSet(np.array(values), block_diagonal(
        np.array(entries).reshape(-1, 2, 2)), selection)


def _random_selection(available: ApSelection, k: int,
                      rng: np.random.Generator) -> ApSelection:
    """k of the `available` APs drawn uniformly, or at k = 0 a nonempty
    subset of them drawn as a bitmask."""
    aps = available.indices
    if k > 0:
        picked = rng.choice(len(aps), size=k, replace=False)
        return ApSelection.from_indices(available.num_aps,
                                        [aps[i] for i in picked])
    mask = int(rng.integers(1, 2 ** len(aps)))
    return ApSelection.from_indices(
        available.num_aps, [aps[i] for i in range(len(aps)) if mask >> i & 1])


def _plan(scenario: Scenario, state: SimState, name: str, traffic_on: bool
          ) -> tuple[tuple[float, ...], float, tuple | None]:
    """The deterministic half of an arm's EKF cycle at epoch `state.epoch`:
    predict on Python floats, take the angle variance and decide. Returns
    the predicted floats (p, v, P00, P01, P10, P11), the variance and, if
    the arm senses, `_act`'s inputs: the floats, the covariance of
    `predict`'s estimate (the same bits) and the receive set, None for the
    random arm's draw. Reads no stream, changes no state."""
    cfg, policy, arm = scenario.system, scenario.policy, _ARMS[name]
    prior = state.estimates[name]
    mean_p, mean_v, p00, p01, p11 = _predict_floats(state.model, *prior)
    floats, variance = ((mean_p, mean_v, p00, p01, p01, p11),
                        _angle_variance(cfg, mean_p, p00))
    if arm.gated and (decide_action(variance, policy) is _NO_SENSING
                      or traffic_on):  # data frames carry no sensing signal
        return floats, variance, None
    predicted = predict(StateEstimate._built(
        np.array(prior[:2]), np.array(prior[2:]).reshape(2, 2)), state.model)
    selection = None
    if arm.receivers == "all":
        selection = state.full_selection
    elif arm.receivers == "optimal":
        planning = _hops(cfg, state.waveform, mean_p, mean_v,
                         state.planning_rcs, 1.0, state.available.indices,
                         "filter mean")
        selection = _lowest_variance(cfg.num_aps, *_score_blocks(
            cfg, predicted, state.available, policy.subset_cardinality,
            *planning))
    return floats, variance, (floats, predicted.covariance, selection)


def _act(scenario: Scenario, state: SimState, name: str, truth_x: float,
         predicted: tuple[float, ...], prior_cov: np.ndarray,
         selection: ApSelection | None) -> tuple[tuple[float, ...], int]:
    """The random half of a sensing arm's EKF cycle at epoch `state.epoch`:
    draw the random arm's set, the cross sections and the measurement at
    `truth_x` from streams reset to (seed, stream, epoch), the same for
    every arm. The measurement is drawn at the `_hops` blocks of the truth;
    the update of the predicted floats (covariance `prior_cov`) reads the
    rows and blocks of a second `_hops` pass at their mean. Returns the
    posterior floats and the set's bitmask; changes nothing in `state`."""
    cfg, streams, k = scenario.system, state.streams, state.epoch
    if selection is None:
        selection = _random_selection(state.available,
                                      scenario.policy.subset_cardinality,
                                      streams["selection"].generator(k))
    rcs = draw_rcs(streams["rcs"].generator(k), cfg, cfg.num_aps)
    mean, aps = predicted[:2], selection.indices
    power = _ARMS[name].power_fraction
    values = _measure(cfg, aps, *_hops(
        cfg, state.waveform, truth_x, scenario.initial_truth.velocity_x, rcs,
        power, aps), streams["measurement"].generator(k))
    rows, entries = _hops(cfg, state.waveform, *mean, rcs, power, aps,
                          "filter mean")
    cov = block_diagonal(np.array(entries).reshape(-1, 2, 2))
    return (_update_floats(*mean, prior_cov, values, rows, cov, aps),
            selection.bitmask)


def run_epoch(state: SimState) -> EpochStep:
    """Advance every filter arm one epoch of `state.log.scenario` and append
    it to `state.log`: each arm plans and, if it senses, acts, and only then
    does the epoch commit every arm's estimate and columns and the truth.

    The traffic flag comes from `state.log.traffic_on`, drawn for the whole
    run by the log; the other streams build a generator only for an arm
    that senses. Each draw is keyed by (seed, stream, epoch), so a skipped
    stream never shifts another. The log evaluates the epoch's rates when
    they are read. Raises ValueError past the scenario's last epoch; a
    ValueError raised while an arm plans or acts is raised again, of its
    own type, naming the epoch and the arm. Any error raised while an arm
    plans or acts leaves `state` as it was, so a retry steps that epoch.
    """
    # len(state.log), without the Python-level call of RunLog.__len__
    k, scenario = len(state.log.truth_x), state.log.scenario
    if k >= scenario.num_epochs:
        raise ValueError(f"epoch {k} is past the scenario's last epoch "
                         f"(num_epochs = {scenario.num_epochs})")
    # the truth's constant-velocity step, on the position alone
    truth_x = (state.truth_x + scenario.initial_truth.velocity_x
               * scenario.system.epoch_duration)
    traffic_on = state.log.traffic_on[k]

    steps = []
    for name in state.estimates:
        try:
            floats, variance, sense = _plan(scenario, state, name, traffic_on)
            mask = 0  # the empty receive set's, shared by every idle epoch
            if sense is not None:
                floats, mask = _act(scenario, state, name, truth_x, *sense)
        except ValueError as exc:  # RankDeficientError stays one
            raise type(exc)(f"epoch {k}, {name} arm: {exc}") from exc
        steps.append((name, floats, variance, mask))

    for name, floats, variance, mask in steps:
        state.estimates[name] = floats
        mean_p, mean_v, p00, p01, _, p11 = floats
        columns = state.log.arms[name]
        columns.mean_p.append(mean_p)
        columns.mean_v.append(mean_v)
        columns.p00.append(p00)
        columns.p01.append(p01)
        columns.p11.append(p11)
        columns.variance.append(variance)
        columns.bitmask.append(mask)
    state.log.truth_x.append(truth_x)
    state.truth_x = truth_x
    return EpochStep(k, _SENSING if steps[0][3] else _NO_SENSING)


def run_scenario(scenario: Scenario) -> RunLog:
    """Run the epoch loop; deterministic given the seed. The log's records
    and rates are built on access."""
    state = SimState(scenario)
    for _ in range(scenario.num_epochs):
        run_epoch(state)
    return state.log


_LAZY = ("ArmEpoch", "EpochRecord")
__getattr__, __dir__ = _from_oracles(globals(), _LAZY)
