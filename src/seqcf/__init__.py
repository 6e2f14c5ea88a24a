"""Uplink simulator for cell-free massive MIMO with a sequential,
capacity-limited fronthaul chain: per-AP LMMSE refinement, fronthaul
compression-noise design, capacity allocation and Two-Path fusion."""

import os as _os
import sys as _sys

# one BLAS thread unless the caller chose otherwise, where seqcf is the first
# numpy import: the matrices are small, and more threads than idle cores slow them
if "numpy" not in _sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")

from .allocation import schedule, split
from .chain import ChainState, centralized, gain, initial_state, propagate_combiners, refine, run_chain, update_error_cov, update_pre_compression_corr
from .compression import CompressionOutcome, SolverError, achieved_rate_bits, eiu, scnm, weighted_scnm, wsinm
from .config import ConfigError, NetworkConfig, dbm_to_watt, parse_config_file
from .experiment import ExperimentSpec, ResultRow, Strategy, emit_csv, parse_csv, run_experiment, simulate_trial
from .geometry import ChannelRealization, Layout, draw_channels, pathloss_db, place_network
from .metrics import SeReport, interference_context, se_from_sinr, sinr_chain
from .twopath import PathSummary, fuse, sinr_fused, split_paths, summarize_path

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
