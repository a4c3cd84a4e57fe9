"""Training-free per-request routing of low-rank adapters.

Given a pool of LoRA adapters for one frozen backbone, a single instrumented
forward pass scores how strongly each adapter reacts to the request, the
top-k adapters are merged by normalized score, and generation proceeds under
the merged model.  No gradients, no router training — routing cost is one
extra forward pass per request.
"""
from .adapters import (
    AdapterPool,
    LoraAdapter,
    LoraFactors,
    adapter_from_bytes,
    adapter_to_bytes,
    delta_apply,
    fused_hooks,
    load_adapter,
    load_manifest,
    save_adapter,
    write_manifest,
)
from .backbone import (
    Backbone,
    GenerationResult,
    HiddenTrace,
    ModelConfig,
    ProjectionHook,
    backbone_from_bytes,
    init_backbone,
    load_backbone,
    save_backbone,
)
from .engine import (
    DEFAULT_K,
    EngineConfig,
    RouteResult,
    route_and_generate,
    route_only,
    route_result_to_json,
)
from .errors import (
    ContextOverflowError,
    DuplicateAdapterError,
    EmptyPoolError,
    FormatError,
    LoraRouteError,
    ShapeMismatchError,
    StaleDecisionError,
    TokenRangeError,
    TrainingDivergedError,
    UnknownAdapterError,
    ValidationError,
)
from .numcore import l2_norm, shannon_entropy, softmax
from .routing import (
    RoutingDecision,
    SelectedAdapter,
    decision_record,
    fuse_parameters,
    mixture_hooks,
    normalize_weights,
    select_topk,
)
from .signals import (
    ENTROPY_FLOOR,
    SignalConfig,
    SignalReport,
    mean_pool_token,
    probe,
    score_rows,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
