"""Cell-free massive MIMO ISAC simulator.

Deterministic epoch-level simulation of pilot-free predictive beamforming:
estimation-bound-accurate sensing synthesis, EKF target tracking, adaptive
sensing scheduling with receive-AP selection, and downlink rate evaluation
against power-split and perfect-knowledge baselines.
"""

__version__ = "0.1.0"

from .config import SPEED_OF_LIGHT, SystemConfig
from .geometry import (ApGeometry, TargetTruth, angle_from_position,
                       angle_slope_from_position, array_response,
                       array_response_derivative, geometry_for_ap)
from .crb import (CrbBlock, RankDeficientError, SensingLinkGain, WaveformSpec,
                  all_ones_waveform, assemble_measurement_covariance,
                  build_waveform_vector, crb_angle, crb_block,
                  crb_delay_doppler, qpsk_waveform, sensing_gain,
                  transform_to_range_velocity)
from .selection import ApSelection
from .tracking import (MeasurementSet, MotionModel, StateEstimate,
                       angle_estimate_and_variance, measurement_jacobian,
                       measurement_model, predict, update)
from .sensing import (Action, SensingPolicy, decide_action, hpbw,
                      predict_variance_for_selection, select_rx_aps,
                      variance_threshold_from_hpbw)
from .comms import (LinkResult, Precoder, build_channel, conventional_baseline,
                    evaluate_link, perfect_angle_bound, predictive_precoder,
                    steered_link, steered_links)
from .simulate import (ArmEpoch, EpochRecord, RngStream, Scenario, SimState,
                       TrafficModel, crb_blocks_for_state, draw_rcs,
                       fill_rates, propagate_truth, run_epoch, run_scenario,
                       synthesize_measurement)
