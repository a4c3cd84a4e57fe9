"""Synthetic tasks, toy adapter training, and routing-behavior analyses."""
from .experiments import (
    ABLATE_AXES,
    WEIGHT_BUCKET_WIDTH,
    ablate,
    alignment_analysis,
    cosine_similarity,
    embed_prompt,
    selection_counts,
    signal_heatmap,
    timing_sweep,
)
from .reports import (
    GRID_KINDS,
    RECORD_KINDS,
    REPORT_KINDS,
    ExperimentReport,
    minmax_normalize_columns,
    save_report,
)
from .tasks import (
    DEFAULT_IN_BAND_PROB,
    DEFAULT_PROMPT_LEN,
    SyntheticTask,
    load_tasks,
    make_tasks,
    save_tasks,
    task_loss,
)
from .thresholds import THRESHOLDS_ENV_VAR, default_thresholds_text, load_thresholds
from .train import (
    loss_and_grads,
    negative_grams,
    quiet_penalty_and_grads,
    train_toy_adapter,
)

__all__ = [name for name in dir() if not name.startswith("_")]
