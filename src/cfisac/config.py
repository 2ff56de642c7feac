"""System configuration for the cell-free ISAC tracking simulator."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

SPEED_OF_LIGHT = 3e8  # m/s


def default_ap_positions(num_aps: int) -> tuple[float, ...]:
    """x of APs spaced equidistantly on the road line: (500/L)*l, l = 1..L."""
    step = 500.0 / num_aps
    return tuple(step * (l + 1) for l in range(num_aps))


@dataclass(frozen=True)
class SystemConfig:
    """Physical, waveform and network parameters of the deployment.

    Defaults reproduce the reference evaluation scenario: four 4-antenna APs
    along a road at y = 0, a 30 GHz carrier, and a vehicle corridor 40 m away.
    `antenna_spacing` derives from the carrier when left None, and
    `num_aps` from `ap_positions`, or is 4 without them. Every float
    field and AP coordinate must be finite. The sensing trigger is not a
    deployment parameter: it is `SensingPolicy.variance_threshold`.
    """

    num_aps: int | None = None            # L_T
    antennas_per_ap: int = 4              # N, ULA elements per AP
    carrier_frequency: float = 30e9       # Hz
    antenna_spacing: float | None = None  # m, defaults to wavelength / 2
    subcarrier_spacing: float = 120e3     # Hz
    num_subcarriers: int = 256            # N_c
    num_symbols: int = 14                 # N_s per coherence block
    cp_length: int = 18                   # cyclic-prefix samples
    tx_power: float = 1.0                 # W, per-AP maximum
    noise_power: float = 10 ** (-7.5) / 1e3  # W (-75 dBm)
    ap_positions: tuple[float, ...] | None = None  # m, x of each AP
    corridor_offset: float = 40.0         # m, fixed y-distance target <-> AP line
    mean_rcs: float = 5.0                 # m^2, Swerling-I mean cross section
    epoch_duration: float = 0.01          # s between filter epochs
    process_noise_std: float = 0.1        # m/s^2, acceleration uncertainty
    tx_ap: int = 0                        # index of the sensing transmitter AP

    def __post_init__(self) -> None:
        if self.ap_positions is not None:
            # a string would iterate as its characters
            positions = (None if isinstance(self.ap_positions, str)
                         else self.ap_positions)
            try:
                object.__setattr__(self, "ap_positions",
                                   tuple(map(float, positions)))
            except (TypeError, ValueError) as exc:
                raise ValueError("ap_positions: one x coordinate per AP, "
                                 "on the road line y = 0") from exc
        if self.num_aps is None:
            object.__setattr__(self, "num_aps", 4 if self.ap_positions is None
                               else len(self.ap_positions))
        # Validate before deriving defaults: both divide by validated fields.
        self._validate()
        if self.antenna_spacing is None:
            object.__setattr__(self, "antenna_spacing", self.wavelength / 2.0)
        if self.ap_positions is None:
            object.__setattr__(self, "ap_positions",
                               default_ap_positions(self.num_aps))

    def _validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name}: must be finite, got {value!r}")
        if self.num_aps < 2:
            raise ValueError("num_aps: need at least 2 APs")
        if self.antennas_per_ap < 1:
            raise ValueError("antennas_per_ap: must be >= 1")
        if self.num_subcarriers < 2:
            raise ValueError("num_subcarriers: must be >= 2")
        if self.num_symbols < 1:
            raise ValueError("num_symbols: must be >= 1")
        if self.cp_length < 0:
            raise ValueError("cp_length: must be >= 0")
        for name in ("carrier_frequency", "subcarrier_spacing", "tx_power",
                     "noise_power", "antenna_spacing", "corridor_offset",
                     "mean_rcs", "epoch_duration"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name}: must be strictly positive")
        if self.process_noise_std < 0:
            raise ValueError("process_noise_std: must be >= 0")
        # The motion model raises these two to powers, and each hop gain
        # divides by the squared wavelength: checked here, so that a run
        # does not fail on them at its start.
        for name, power in (("epoch_duration", 4), ("process_noise_std", 2)):
            try:
                getattr(self, name) ** power
            except OverflowError:
                raise ValueError(f"{name}: {name}**{power}, in the process "
                                 f"noise, overflows a float") from None
        dt = self.epoch_duration  # dt^3 / 2 lies between the two below
        if not math.isfinite(self.process_noise_std ** 2
                             * max(dt ** 4 / 4.0, dt ** 2)):
            raise ValueError("process_noise_std: process_noise_std**2 "
                             "times the epoch_duration terms of the process "
                             "noise overflows a float")
        try:
            wavelength_sq = self.wavelength ** 2
        except OverflowError:
            wavelength_sq = math.inf
        if not sys.float_info.min <= wavelength_sq < math.inf:
            raise ValueError(
                f"carrier_frequency: the squared wavelength "
                f"(c / carrier_frequency)**2 = {wavelength_sq!r} must be a "
                f"positive, finite, normal float")
        if self.ap_positions is not None:
            if len(self.ap_positions) != self.num_aps:
                raise ValueError("ap_positions: length must equal num_aps")
            if not all(map(math.isfinite, self.ap_positions)):
                raise ValueError("ap_positions: coordinates must be finite")
        if not 0 <= self.tx_ap < self.num_aps:
            raise ValueError("tx_ap: index out of range")

    @property
    def wavelength(self) -> float:
        """Carrier wavelength c / carrier_frequency, meters."""
        return SPEED_OF_LIGHT / self.carrier_frequency

    @property
    def symbol_duration(self) -> float:
        """OFDM symbol duration including the cyclic prefix, seconds."""
        return (1.0 + self.cp_length / self.num_subcarriers) / self.subcarrier_spacing

    @property
    def cp_delay_window(self) -> float:
        """Largest propagation delay the cyclic prefix absorbs, seconds."""
        return self.cp_length / (self.num_subcarriers * self.subcarrier_spacing)
