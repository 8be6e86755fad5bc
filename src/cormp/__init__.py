"""Resource-profit maneuver planning with a deterministic traffic simulator.

The planner scores a fixed menu of driving maneuvers (two lane changes, three
keep-lane speed adjustments, and an emergency stop) by how well each one
protects six driving resources: safety, comfort, progress toward the goal,
staying on the preferred lane, kinetic energy, and free space. Rank-derived
weights turn the six scores into a single profit figure and the planner picks
the most profitable feasible maneuver every replanning period.
"""
from .baselines import IdmParams, MobilParams, MobilPlanner, UtilityPlanner, idm_accel, make_planner
from .bezier import LanePath, SpeedProfile, TimedTrajectory, sample_trajectory
from .config import PlannerConfig, load_config
from .identification import (
    Maneuver,
    ManeuverCandidate,
    PlanContext,
    enumerate_candidates,
    feasibility_filter,
    predict_oru,
    time_to_collision,
)
from .metrics import Metrics, compute_metrics, invested_energy_kj
from .planner import CorMpPlanner, Decision, PlanResult, decide, plan_tick
from .resources import (
    RESOURCES,
    ResourceState,
    ResourceType,
    assess_candidates,
    kinetic_energy_delta_kj,
    profile_weights,
    rank_order_centroid,
)
from .scenario import AgentState, Lane, Scenario, ScenarioError, load_scenario, serialize_scenario
from .simulator import SimLog, SimWorld, run
from .timeline import render_timeline, write_timeline

__version__ = "0.1.0"

__all__ = [
    "AgentState",
    "CorMpPlanner",
    "Decision",
    "IdmParams",
    "Lane",
    "LanePath",
    "Maneuver",
    "ManeuverCandidate",
    "Metrics",
    "MobilParams",
    "MobilPlanner",
    "PlanContext",
    "PlanResult",
    "PlannerConfig",
    "RESOURCES",
    "ResourceState",
    "ResourceType",
    "Scenario",
    "ScenarioError",
    "SimLog",
    "SimWorld",
    "SpeedProfile",
    "TimedTrajectory",
    "UtilityPlanner",
    "assess_candidates",
    "compute_metrics",
    "decide",
    "enumerate_candidates",
    "feasibility_filter",
    "idm_accel",
    "invested_energy_kj",
    "kinetic_energy_delta_kj",
    "load_config",
    "load_scenario",
    "make_planner",
    "plan_tick",
    "predict_oru",
    "profile_weights",
    "rank_order_centroid",
    "render_timeline",
    "run",
    "sample_trajectory",
    "serialize_scenario",
    "time_to_collision",
    "write_timeline",
]
