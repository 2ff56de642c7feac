"""Estimation bounds for the OFDM sensing link.

Builds the delayed and Doppler-shifted sounding waveform, computes the
Fisher-information bounds on (delay, Doppler) and, separately, on angle
(`crb_angle`) for a single bistatic Tx-target-Rx hop, transforms the
(delay, Doppler) bound to (range, radial velocity), and assembles per-AP
measurement covariance blocks. `crb_block` is the closed form of that
(range, radial velocity) chain at zero delay and Doppler; the FFT-based
functions are the general reference it is tested against. The simulator's
bound stack (`simulate.crb_blocks_for_state`) divides the entries of the
unit-gain `crb_block`, kept on the waveform as four floats, by each AP's
hop gain.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import _from_oracles
from .config import SPEED_OF_LIGHT, SystemConfig
from .geometry import array_response


class RankDeficientError(ValueError):
    """The Fisher information is singular; some parameter is unidentifiable."""


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """sum(x * y), exactly rounded: the `math.fsum` of the elementwise
    products, which unlike a BLAS dot is the same on every kernel. The
    products' buffer hands fsum one float at a time; a list of them would
    raise a run's peak memory by about 0.2 MB."""
    return math.fsum((x * y).ravel().data)


@dataclass(frozen=True)
class WaveformSpec:
    """Frequency-domain symbol grid, shape (num_subcarriers, num_symbols).

    Average symbol power must be one so that waveform energy equals the
    number of time samples. With weights w = |gamma|^2 over the subcarrier
    index a and symbol index b, construction caches the moments the
    zero-delay, zero-Doppler bounds need: the energy sum(w), the raw second
    moments (sum w a^2, sum w b^2) and the centered sums
    (sum w da^2, sum w db^2, sum w da db), da and db taken about the
    weighted means. The index moments are exactly rounded sums (`_dot`),
    so no BLAS kernel moves a bound built on them. `_unit_for` keeps the
    entries of the unit-gain bound of the last config it was asked for.
    """

    symbols: np.ndarray
    energy: float = field(init=False, repr=False, compare=False)
    index_raw: tuple[float, float] = field(init=False, repr=False,
                                           compare=False)
    index_cov: tuple[float, float, float] = field(init=False, repr=False,
                                                  compare=False)
    _unit: tuple[SystemConfig, tuple[float, ...]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sym = np.array(self.symbols, dtype=complex)
        if sym.ndim != 2:
            raise ValueError(f"waveform grid must be 2-D, got shape {sym.shape}")
        sym.setflags(write=False)
        object.__setattr__(self, "symbols", sym)
        w = np.abs(sym) ** 2
        energy = float(np.sum(w))
        w_a, w_b = w.sum(axis=1), w.sum(axis=0)
        a = np.arange(sym.shape[0], dtype=float)
        b = np.arange(sym.shape[1], dtype=float)
        da = a - (_dot(w_a, a) / energy if energy > 0 else 0.0)
        db = b - (_dot(w_b, b) / energy if energy > 0 else 0.0)
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "index_raw",
                           (_dot(w_a, a ** 2), _dot(w_b, b ** 2)))
        object.__setattr__(self, "index_cov",
                           (_dot(w_a, da ** 2), _dot(w_b, db ** 2),
                            _dot(w, np.outer(da, db))))

    @property
    def shape(self) -> tuple[int, int]:
        return self.symbols.shape

    def _unit_for(self, cfg: SystemConfig) -> tuple[float, ...]:
        """The entries r00, r01, r10, r11 of
        `crb_block(self, cfg, SensingLinkGain(1.0)).range_velocity`. They
        are evaluated, and the grid checked, on the first call for `cfg`
        and kept for later calls with that same config object; the grid is
        immutable, so kept entries stay exact."""
        if self._unit is None or self._unit[0] is not cfg:
            block = crb_block(self, cfg, SensingLinkGain(1.0)).range_velocity
            object.__setattr__(self, "_unit",
                               (cfg, tuple(block.ravel().tolist())))
        return self._unit[1]


def all_ones_waveform(cfg: SystemConfig) -> WaveformSpec:
    return WaveformSpec(np.ones((cfg.num_subcarriers, cfg.num_symbols)))


@dataclass(frozen=True)
class SensingLinkGain:
    """Squared magnitude |alpha|^2 of one sensing hop's complex gain."""

    magnitude_sq: float

    @classmethod
    def from_amplitude(cls, alpha_bar: complex) -> "SensingLinkGain":
        return cls(abs(alpha_bar) ** 2)


@dataclass(frozen=True)
class CrbBlock:
    """Per-AP lower bound over (range, radial velocity) estimates."""

    range_velocity: np.ndarray  # 2x2, m^2 / m^2/s^2 on the diagonal
    ap_index: int = 0


def _check_waveform(spec: WaveformSpec, cfg: SystemConfig) -> None:
    n_c, n_s = cfg.num_subcarriers, cfg.num_symbols
    if spec.shape != (n_c, n_s):
        raise ValueError(
            f"waveform shape {spec.shape} does not match the configured "
            f"grid ({n_c}, {n_s})")
    mean_power = spec.energy / (n_c * n_s)
    if abs(mean_power - 1.0) > 1e-9:
        raise ValueError(f"waveform average power {mean_power!r} is not 1")


def crb_delay_doppler(spec: WaveformSpec, cfg: SystemConfig,
                      gain: SensingLinkGain, azimuth: float,
                      delay: float, doppler: float) -> np.ndarray:
    """2x2 estimation bound on (delay s, Doppler Hz) for one receiving AP.

    Inverse of the Fisher information with the complex hop gain treated as
    an unknown nuisance amplitude:

        (2 |alpha|^2 ||a(az)||^2 / sigma_n^2)
            * Re{ D^H (I - s s^H / ||s||^2) D },

    where s is the sampled waveform and D stacks its delay and Doppler
    derivatives.
    """
    from ._oracles import _waveform_terms

    if not gain.magnitude_sq > 0:
        raise ValueError("sensing gain must have positive power")
    s, d_tau, d_nu = _waveform_terms(spec, cfg, delay, doppler,
                                     with_derivatives=True)
    steering = array_response(cfg, azimuth)
    array_norm_sq = float(np.vdot(steering, steering).real)
    d = np.stack([d_tau, d_nu], axis=1)
    gram = d.conj().T @ d
    cross = d.conj().T @ s
    energy = float(np.vdot(s, s).real)
    core = (gram - np.outer(cross, cross.conj()) / energy).real
    fim = (2.0 * gain.magnitude_sq * array_norm_sq / cfg.noise_power) * core

    # Delay and Doppler live on very different scales; judge each diagonal
    # against its own unprojected information, not against the other's.
    weak = [name for i, name in enumerate(("delay", "doppler"))
            if core[i, i] <= 1e-12 * gram[i, i].real]
    if weak:
        raise RankDeficientError(
            f"Fisher information is singular: {' and '.join(weak)} "
            "unidentifiable for this waveform grid")
    det = fim[0, 0] * fim[1, 1] - fim[0, 1] * fim[1, 0]
    if det <= 1e-24 * fim[0, 0] * fim[1, 1]:
        raise RankDeficientError(
            "Fisher information for (delay, doppler) is not positive definite")
    crb = np.linalg.inv(fim)
    return (crb + crb.T) / 2.0


def crb_angle(spec: WaveformSpec, cfg: SystemConfig, gain: SensingLinkGain,
              azimuth: float, delay: float, doppler: float) -> float:
    """Angle estimation bound (rad^2) for one receiving AP.

    Scalar inverse of
    (2 |alpha|^2 ||s||^2 / sigma_n^2) Re{ da^H (I - a a^H / ||a||^2) da }.
    Requires at least two antennas and |azimuth| < pi/2.
    """
    from ._oracles import array_response_derivative, build_waveform_vector

    if not gain.magnitude_sq > 0:
        raise ValueError("sensing gain must have positive power")
    if cfg.antennas_per_ap < 2:
        raise RankDeficientError(
            "angle unidentifiable with a single antenna per AP")
    if abs(azimuth) >= math.pi / 2:
        raise ValueError("angle bound is singular at azimuth = +/- pi/2")
    s = build_waveform_vector(spec, cfg, delay, doppler)
    energy = float(np.vdot(s, s).real)
    a = array_response(cfg, azimuth)
    da = array_response_derivative(cfg, azimuth)
    projected = (np.vdot(da, da).real
                 - abs(np.vdot(a, da)) ** 2 / np.vdot(a, a).real)
    info = float((2.0 * gain.magnitude_sq * energy / cfg.noise_power)
                 * projected)
    if info <= 0:
        raise RankDeficientError("angle Fisher information is not positive")
    bound = 1.0 / info  # a Python float: a subnormal info gives inf, silently
    if not math.isfinite(bound):
        raise RankDeficientError("angle bound is not finite")
    return bound


def crb_block(spec: WaveformSpec, cfg: SystemConfig, gain: SensingLinkGain,
              ap_index: int = 0) -> CrbBlock:
    """Per-AP (range, radial velocity) bound at zero delay and Doppler.

    Closed form of transform_to_range_velocity(crb_delay_doppler(...)) with
    delay = Doppler = 0, for any grid. There the sampled waveform is a
    unitary transform of the symbol grid, so the projected core
    Re{D^H (I - s s^H / ||s||^2) D} is the |gamma|^2-weighted covariance of
    the index grid, entry (a, b) scaled by (2 pi df a, -2 pi T_sym b). The
    ULA array gain ||a(az)||^2 is N at every azimuth, so the bound needs no
    azimuth. The checks and their messages are those of the FFT path. The
    Fisher information is linear in |alpha|^2, so the block of any gain g
    is the unit-gain block divided by g up to rounding. The simulator
    evaluates it that way: its waveform keeps the unit-gain block's
    entries, so a run calls this once.
    """
    _check_waveform(spec, cfg)
    (raw_aa, raw_bb), (cov_aa, cov_bb, cov_ab) = spec.index_raw, spec.index_cov
    weak = [name for name, core, raw in (("delay", cov_aa, raw_aa),
                                         ("doppler", cov_bb, raw_bb))
            if core <= 1e-12 * raw]
    if weak:
        raise RankDeficientError(
            f"Fisher information is singular: {' and '.join(weak)} "
            "unidentifiable for this waveform grid")
    if not gain.magnitude_sq > 0:
        raise ValueError("sensing gain must have positive power")
    n = cfg.antennas_per_ap
    snr = 2.0 * gain.magnitude_sq / cfg.noise_power
    w_tau = 2.0 * math.pi * cfg.subcarrier_spacing
    w_nu = 2.0 * math.pi * cfg.symbol_duration
    f00 = snr * n * w_tau * w_tau * cov_aa
    f11 = snr * n * w_nu * w_nu * cov_bb
    f01 = -snr * n * w_tau * w_nu * cov_ab
    det = f00 * f11 - f01 * f01
    if det <= 1e-24 * f00 * f11:
        raise RankDeficientError(
            "Fisher information for (delay, doppler) is not positive definite")

    range_scale = SPEED_OF_LIGHT
    velocity_scale = SPEED_OF_LIGHT / (2.0 * cfg.carrier_frequency)
    rr = range_scale * range_scale * f11 / det
    vv = velocity_scale * velocity_scale * f00 / det
    rv = -range_scale * velocity_scale * f01 / det
    return CrbBlock(np.array([[rr, rv], [rv, vv]]), ap_index)


def transform_to_range_velocity(crb_dd: np.ndarray, cfg: SystemConfig,
                                ap_index: int = 0) -> CrbBlock:
    """Map the (delay, Doppler) bound to (range, radial velocity) units.

    Applies the diagonal scaling (c, c / (2 f_c)) on both sides.
    """
    crb_dd = np.asarray(crb_dd, dtype=float)
    if crb_dd.shape != (2, 2):
        raise ValueError("delay-Doppler bound must be 2x2")
    if not np.allclose(crb_dd, crb_dd.T, rtol=0, atol=1e-9 * abs(crb_dd).max()):
        raise ValueError("delay-Doppler bound must be symmetric")
    scale = np.array([SPEED_OF_LIGHT, SPEED_OF_LIGHT / (2.0 * cfg.carrier_frequency)])
    return CrbBlock(crb_dd * np.outer(scale, scale), ap_index)


def sensing_gain(cfg: SystemConfig, tx_geometry: ApGeometry,
                 rx_geometry: ApGeometry, rcs: float,
                 tx_precoder: np.ndarray) -> SensingLinkGain:
    """Gain of the Tx -> target -> Rx hop for any transmit precoder w.

    alpha = sqrt(beta_rx * beta_tx * 2 pi / lambda^2) * rcs * a^H(az_tx) w.
    The precoder carries the transmit power (||w||^2 <= tx_power); the
    cross section enters as an amplitude. The simulator uses the closed
    form of the matched precoder (`simulate.crb_blocks_for_state`); this is
    its general reference.
    """
    if rcs < 0:
        raise ValueError("rcs must be nonnegative")
    w = np.asarray(tx_precoder, dtype=complex)
    power = float(np.vdot(w, w).real)
    if power > cfg.tx_power + 1e-12:
        raise ValueError(
            f"tx precoder power {power!r} exceeds the AP limit {cfg.tx_power!r}")
    steering = array_response(cfg, tx_geometry.azimuth)
    inner = complex(np.vdot(steering, w))
    amplitude = math.sqrt(
        rx_geometry.path_gain * tx_geometry.path_gain
        * 2.0 * math.pi / cfg.wavelength ** 2) * rcs
    return SensingLinkGain.from_amplitude(amplitude * inner)


def range_velocity_blocks(blocks: list[CrbBlock],
                          indices: Sequence[int]) -> np.ndarray:
    """The 2x2 (range, radial velocity) blocks of the given APs, stacked."""
    by_index = {b.ap_index: b.range_velocity for b in blocks}
    missing = [i for i in indices if i not in by_index]
    if missing:
        raise ValueError(f"missing covariance block for AP(s) {missing}")
    return np.array([by_index[i] for i in indices])


@functools.cache
def _block_slots(k: int) -> np.ndarray:
    """The flat indices, in a (2k, 2k) matrix, of its k diagonal 2x2
    blocks' entries, block by block and each row by row."""
    n = 2 * k
    slots = np.array([(2 * b + row) * n + 2 * b + col for b in range(k)
                      for row in range(2) for col in range(2)])
    slots.setflags(write=False)
    return slots


def _block_diagonal(k: int, entries: Sequence[float]) -> np.ndarray:
    """`block_diagonal` of k blocks given as their 4k entries, block by
    block and each row by row."""
    out = np.zeros(4 * k * k)
    out[_block_slots(k)] = entries
    return out.reshape(2 * k, 2 * k)


def block_diagonal(stack: np.ndarray) -> np.ndarray:
    """The dense (2k, 2k) block-diagonal matrix of a (k, 2, 2) stack."""
    return _block_diagonal(len(stack), np.asarray(stack).reshape(-1))


_LAZY = ("build_waveform_vector", "assemble_measurement_covariance")
__getattr__, __dir__ = _from_oracles(globals(), _LAZY)
