"""Planner and simulation configuration.

Every numeric constant used by the planner is a field here so scenarios and
tests can override behavior without touching code. `PlannerConfig.from_json`
rejects unknown keys, and every field must pass `number`, the rule the
scenario loader reads its numbers by.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

ENV_CONFIG = "CORMP_CONFIG"

PROFILES = ("regular", "aggressive", "fuel_efficient")


def number(value, path: str, lo=None, hi=None, error=ValueError) -> float:
    """The one rule for a number read from a scenario or config file: a real
    number, not a bool or a string, finite and within [lo, hi], as a float.
    Anything else raises `error` with a message that starts with `path`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{path}: expected a number, got {type(value).__name__}")
    if not abs(value) <= sys.float_info.max:   # NaN, +-inf, an int past any float
        raise error(f"{path}: must be finite")
    value = float(value)
    if lo is not None and value < lo:
        raise error(f"{path}: must be >= {lo}")
    if hi is not None and value > hi:
        raise error(f"{path}: must be <= {hi}")
    return value


@dataclass
class PlannerConfig:
    # cadence / horizons
    dt: float = 0.1                      # simulation tick (s); also trajectory sample spacing
    planning_horizon_s: float = 4.0      # candidate trajectory / prediction window
    replan_period_s: float = 0.5         # decision cadence
    lane_change_duration_s: float = 5.0  # lateral transition time for CLL/CLR

    # candidate speed profiles (m/s^2, magnitudes)
    accel_keep_lane: float = 0.9         # KeepLaneAccelerate; kept inside the comfort band
    decel_keep_lane: float = 0.9         # KeepLaneDecelerate; harder braking is Stop's job
    stop_decel_default: float = 2.0      # Stop with no constraint in range
    stop_decel_max: float = 3.0          # hard cap for the Stop profile

    # feasibility
    ttc_min_s: float = 2.5
    interaction_radius_m: float = 100.0
    rule_speed_epsilon: float = 1e-3     # tolerance on v_end vs lane speed limit
    stop_line_margin_m: float = 12.0     # Stop halts this far short of a stop constraint
    red_light_hold_m: float = 10.0       # no motion inside this window of a red stop line
    hold_buffer_m: float = 1.5           # planner keeps this much extra clearance to the hold window
    crosswalk_hold_m: float = 1.0        # front bumper keeps this margin to an occupied span
    lane_change_stretch: float = 1.3     # longitudinal stretch when a lead sits in the nominal curve

    # safety resource
    t_headway_s: float = 2.0
    d_min_m: float = 5.0
    lateral_clearance_m: float = 0.5     # added to the half widths for d_lat_req

    # comfort resource (m/s^2)
    a_lon_comfort: float = 0.9
    a_lat_comfort: float = 0.9
    a_lon_max: float = 3.0
    a_lat_max: float = 2.5

    # energy resource: E_ref = 1/2 * mass * (e_ref_accel * horizon)^2
    e_ref_accel: float = 2.5

    # crowdedness resource
    crowd_reference_count: int = 5
    crowd_sample_stride_s: float = 0.5   # corridor subsampling step for intersection counts

    # resource state thresholds
    theta_loss: float = 0.05
    theta_acquired: float = 0.6

    # decision
    tie_epsilon: float = 1e-9

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):   # every field is a magnitude, a time or a count
            number(getattr(self, f.name), f.name, lo=0.0)
        # past dt, the lane-change pair sizes a lane change's blend and the rest
        # keep a resource's ratio from dividing by zero
        for key in ("dt", "lane_change_duration_s", "lane_change_stretch", "e_ref_accel",
                    "d_min_m"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive")
        if self.planning_horizon_s < self.replan_period_s:
            raise ValueError("planning_horizon_s must cover at least one replan period")
        if self.a_lon_max <= self.a_lon_comfort:
            raise ValueError("a_lon_max must exceed a_lon_comfort")
        if self.a_lat_max <= self.a_lat_comfort:
            raise ValueError("a_lat_max must exceed a_lat_comfort")
        if self.crowd_reference_count < 1:
            raise ValueError("crowd_reference_count must be at least 1")

    @property
    def horizon_steps(self) -> int:
        """Ticks within the planning horizon, with the 1e-9 s tolerance of `sample_trajectory`."""
        return math.floor(self.planning_horizon_s / self.dt + 1e-9)

    @property
    def lane_change_horizon_s(self) -> float:
        """A lane change's row spans the longer of its duration and the planning horizon."""
        return max(self.lane_change_duration_s, self.planning_horizon_s)

    @property
    def replan_steps(self) -> int:
        return max(1, int(round(self.replan_period_s / self.dt)))

    def energy_reference_kj(self, mass_kg: float) -> float:
        """Normalization constant for the energy resource (kJ)."""
        dv = self.e_ref_accel * self.planning_horizon_s
        return 0.5 * mass_kg * dv * dv / 1000.0

    def replace(self, **kw) -> "PlannerConfig":
        return dataclasses.replace(self, **kw)

    @classmethod
    def from_dict(cls, doc: dict) -> "PlannerConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"config: unknown keys {unknown}")
        return cls(**doc)

    @classmethod
    def from_json(cls, path: str) -> "PlannerConfig":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("config: top level must be an object")
        return cls.from_dict(doc)


def load_config(path: str | None = None) -> PlannerConfig:
    """Resolve a config: explicit path, else $CORMP_CONFIG, else defaults."""
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    if path is None:
        return PlannerConfig()
    return PlannerConfig.from_json(path)
