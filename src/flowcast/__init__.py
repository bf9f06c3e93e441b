"""Traffic forecasting with windowed attention on a unified space-time graph."""

from .errors import ContractError, FlowcastError, InputError, NumericError
from .tensor import Param, Tensor, backward
from .stgraph import STCoord, SpatialGraph, UnifiedGraph, build_unified, load_spatial_graph, st_distance
from .partition import (
    PartitionScheme,
    build_p1,
    build_p2,
    calibrate_tau,
    min_distances,
    partition_report,
    select_base_nodes,
    shift_bases,
)
from .embedding import SpePack, compute_spe, embed
from .attention import apply_block, apply_module, subset_attention
from .model import (
    ForecastModel,
    MetricsReport,
    ModelConfig,
    build_model,
    evaluate,
    ha_baseline,
    masked_mae_loss,
    metrics_from_arrays,
    train,
)
from .data import Dataset, NormStats, TrafficSeries, load_series, prepare_dataset
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"
