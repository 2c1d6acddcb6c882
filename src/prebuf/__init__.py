"""Anticipatory play-out buffer control and spectrum allocation simulator."""

from .admission import (AdmissionConfig, AdmissionLog, RequestRecord,
                        run_admission, service_curve, summarize_curve)
from .link import (ChannelTrace, LinkBudget, ShadowingConfig, ShadowingField,
                   build_trace, build_traces, path_loss_db, per_prb_bits)
from .planner import AllocationPlan, plan_anticipatory, plan_baseline
from .playout import BufferTimeline, VideoSpec, simulate_playback
from .scenario import (ConfigError, ScenarioConfig, default_video_spec,
                       load_config, run_buffer_sweep, run_multiuser,
                       run_single_user)

__all__ = [
    "AdmissionConfig", "AdmissionLog", "AllocationPlan", "BufferTimeline",
    "ChannelTrace", "ConfigError", "LinkBudget", "RequestRecord",
    "ScenarioConfig", "ShadowingConfig", "ShadowingField", "VideoSpec",
    "build_trace", "build_traces", "default_video_spec", "load_config",
    "path_loss_db", "per_prb_bits", "plan_anticipatory", "plan_baseline",
    "run_admission", "run_buffer_sweep", "run_multiuser", "run_single_user",
    "service_curve", "simulate_playback", "summarize_curve",
]
