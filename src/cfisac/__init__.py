"""Cell-free massive MIMO ISAC simulator.

Deterministic epoch-level simulation of pilot-free predictive beamforming:
estimation-bound-accurate sensing synthesis, EKF target tracking, adaptive
sensing scheduling with receive-AP selection, and downlink rate evaluation
against power-split and perfect-knowledge baselines.

The reference oracles and record types that no run executes live in
`_oracles`, which loads on the first use of one of their names. Each such
lazy name is declared once, in the `_LAZY` of the module it belongs to; the
package exposes their union.
"""

__version__ = "0.1.0"


def _from_oracles(namespace: dict, names: tuple[str, ...]):
    """A module `__getattr__` and `__dir__` (PEP 562) for the module of
    globals `namespace` that resolve each of `names`, its `_LAZY`, from
    `_oracles`, importing it on first use; any other missing name raises
    AttributeError, so `hasattr` stays correct. It is defined before the
    imports below, since the modules they load call it."""
    def __getattr__(name: str):
        if name in names:
            from . import _oracles
            return getattr(_oracles, name)
        raise AttributeError(
            f"module {namespace['__name__']!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted({*namespace, *names})

    return __getattr__, __dir__


from .config import SPEED_OF_LIGHT, SystemConfig
from .geometry import (TargetTruth, angle_slope_from_position, array_response,
                       geometry_for_ap)
from .crb import (CrbBlock, RankDeficientError, SensingLinkGain, WaveformSpec,
                  all_ones_waveform, crb_angle, crb_block, crb_delay_doppler,
                  sensing_gain, transform_to_range_velocity)
from .selection import ApSelection
from .tracking import (MeasurementSet, MotionModel, StateEstimate,
                       measurement_jacobian, predict, update)
from .sensing import Action, SensingPolicy, decide_action, select_rx_aps
from .comms import (LinkError, build_channel, conventional_baseline,
                    evaluate_link, perfect_angle_bound, predictive_precoder,
                    steered_links)
from .simulate import (ArmColumns, EpochStep, RngStream, RunLog, Scenario,
                       SimState, TrafficModel, crb_blocks_for_state, draw_rcs,
                       run_epoch, run_scenario, synthesize_measurement)

from . import comms, crb, geometry, sensing, simulate, tracking

_LAZY = (*geometry._LAZY, *crb._LAZY, *tracking._LAZY, *sensing._LAZY,
         *comms._LAZY, *simulate._LAZY)
__getattr__, __dir__ = _from_oracles(globals(), _LAZY)
