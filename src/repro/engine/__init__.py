"""The O(mn) pre-scan index of Section V plus the parallel Phase-2
execution engine, solver memo, and the fault-tolerant dispatch layer
(resilience + chaos injection)."""

from .chaos import ChaosError, FaultPlan, chaos_from_env
from .memo import SolverMemo, fingerprint_view, get_default_memo
from .parallel import EngineStats, ShardResult, serve_plan
from .prescan import PreScan
from .resilience import ResilienceConfig, dispatch_resilient

__all__ = [
    "PreScan",
    "SolverMemo",
    "fingerprint_view",
    "get_default_memo",
    "EngineStats",
    "ShardResult",
    "serve_plan",
    "ResilienceConfig",
    "dispatch_resilient",
    "FaultPlan",
    "ChaosError",
    "chaos_from_env",
]
