"""Link-level simulator for the uplink of a multiuser MIMO system.

Centralized or distributed antenna arrays, correlated Rayleigh fading with
lognormal shadowing, QPSK streams (optionally convolutionally coded),
linear / successive / multi-branch / decision-feedback detection, iterative
detection-and-decoding, and adaptive channel / receive-filter estimation
including reduced-rank variants.
"""

from .config import SystemConfig
from .errors import (CapacityError, ConfigError, NumericalError,
                     ParameterError, ParameterWarning, RankError,
                     SingularMatrixError, StructuralError)
from .channel import (compose_channel, correlation_matrix, draw_large_scale,
                      draw_small_scale, matrix_sqrt)
from .txchain import (SymbolFrame, assemble_frame, channel_transmit,
                      coded_payload_length, conv_encode, deinterleave, interleave,
                      labels_to_bits, matched_transmit, qpsk_constellation, qpsk_map,
                      qpsk_slice_labels)
from .detectors import (compute_ordering, compute_receive_filter, df_detect,
                        linear_detect, mb_sic_detect, ml_detect_oracle,
                        sic_detect)
from .idd import (BcjrResult, IddResult, bcjr_decode, extrinsic_llr,
                  idd_receive, soft_mmse_sic_detect, soft_symbol_stats)
from .estimation import (JioFilterBank, LmsChannelEstimator,
                         ReducedRankFilterBank, RlsChannelEstimator,
                         build_projection)
from .harness import (ScenarioSpec, SweepResult, SweepRow, TrialRecord,
                      confidence_interval, format_csv, mean_gamma_sq,
                      parse_config, parse_snr_spec, run_sweep, run_trial,
                      serialize_config, trial_noise_variance, write_csv)

__version__ = "0.1.0"

__all__ = [
    "SystemConfig",
    "CapacityError", "ConfigError", "NumericalError", "ParameterError",
    "ParameterWarning", "RankError", "SingularMatrixError", "StructuralError",
    "compose_channel", "correlation_matrix", "draw_large_scale",
    "draw_small_scale", "matrix_sqrt",
    "SymbolFrame", "assemble_frame", "channel_transmit",
    "coded_payload_length", "conv_encode", "deinterleave", "interleave",
    "labels_to_bits", "matched_transmit", "qpsk_constellation", "qpsk_map", "qpsk_slice_labels",
    "compute_ordering", "compute_receive_filter", "df_detect",
    "linear_detect", "mb_sic_detect", "ml_detect_oracle", "sic_detect",
    "BcjrResult", "IddResult", "bcjr_decode", "extrinsic_llr", "idd_receive",
    "soft_mmse_sic_detect", "soft_symbol_stats",
    "JioFilterBank", "LmsChannelEstimator", "ReducedRankFilterBank",
    "RlsChannelEstimator", "build_projection",
    "ScenarioSpec", "SweepResult", "SweepRow", "TrialRecord",
    "confidence_interval", "format_csv", "mean_gamma_sq", "parse_config",
    "parse_snr_spec", "run_sweep", "run_trial", "serialize_config",
    "trial_noise_variance", "write_csv",
]
