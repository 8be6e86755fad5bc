import dataclasses
import json
import math

import pytest

from cormp.config import ENV_CONFIG, PROFILES, PlannerConfig, load_config


def test_default_step_counts():
    cfg = PlannerConfig()
    assert cfg.dt == 0.1
    assert cfg.horizon_steps == 40
    assert cfg.replan_steps == 5


def test_energy_reference_default_vehicle():
    # dv = 2.5 m/s^2 * 4 s = 10 m/s; 0.5 * 1500 * 100 / 1000
    assert PlannerConfig().energy_reference_kj(1500.0) == 75.0


def test_replace_returns_new_instance():
    cfg = PlannerConfig()
    other = cfg.replace(ttc_min_s=3.0)
    assert other.ttc_min_s == 3.0
    assert cfg.ttc_min_s == 2.5
    assert other.dt == cfg.dt


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="no_such_knob"):
        PlannerConfig.from_dict({"no_such_knob": 1.0})


def test_profile_is_not_a_config_key():
    # the driving profile comes from the scenario or --profile, never the config
    with pytest.raises(ValueError, match="profile"):
        PlannerConfig.from_dict({"profile": "aggressive"})


def test_from_dict_roundtrip():
    cfg = PlannerConfig(dt=0.05, ttc_min_s=3.0)
    again = PlannerConfig.from_dict(dataclasses.asdict(cfg))
    assert again == cfg


def test_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        PlannerConfig(dt=0.0)
    with pytest.raises(ValueError):
        PlannerConfig(planning_horizon_s=0.2, replan_period_s=0.5)


@pytest.mark.parametrize("overrides, key", [
    pytest.param({"a_lon_max": 0.9}, "a_lon_max", id="a_lon_max"),
    pytest.param({"a_lat_max": 0.9}, "a_lat_max", id="a_lat_max"),
    pytest.param({"a_lon_comfort": 3.5}, "a_lon_max", id="a_lon_comfort"),
    pytest.param({"crowd_reference_count": 0}, "crowd_reference_count",
                 id="crowd_reference_count"),
    pytest.param({"e_ref_accel": 0.0}, "e_ref_accel", id="e_ref_accel"),
    pytest.param({"t_headway_s": 0.0, "d_min_m": 0.0}, "d_min_m", id="d_min_m"),
    pytest.param({"lane_change_duration_s": 0.0}, "lane_change_duration_s",
                 id="lane_change_duration_s"),
    pytest.param({"lane_change_stretch": 0.0}, "lane_change_stretch", id="lane_change_stretch"),
])
def test_validation_rejects_values_a_resource_would_divide_by(overrides, key):
    # each makes a comfort, crowdedness, energy or safety ratio, or a lane
    # change's blend, divide by zero
    with pytest.raises(ValueError, match=key):
        PlannerConfig(**overrides)
    with pytest.raises(ValueError, match=key):
        PlannerConfig.from_dict(overrides)


FIELDS = [f.name for f in dataclasses.fields(PlannerConfig)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, True, "1", -1.0],
                         ids=["nan", "inf", "true", "str", "negative"])
@pytest.mark.parametrize("key", FIELDS)
def test_a_field_that_is_not_a_finite_real_is_rejected_by_its_key(key, bad):
    with pytest.raises(ValueError) as err:
        PlannerConfig.from_dict({key: bad})
    assert str(err.value).startswith(f"{key}:")


def test_profiles_constant():
    assert PROFILES == ("regular", "aggressive", "fuel_efficient")


def test_load_config_explicit_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"replan_period_s": 1.0}))
    cfg = load_config(str(p))
    assert cfg.replan_period_s == 1.0


def test_load_config_env_fallback(tmp_path, monkeypatch):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"ttc_min_s": 4.0}))
    monkeypatch.setenv(ENV_CONFIG, str(p))
    assert load_config().ttc_min_s == 4.0
    # explicit path wins over the environment
    q = tmp_path / "other.json"
    q.write_text(json.dumps({"ttc_min_s": 5.0}))
    assert load_config(str(q)).ttc_min_s == 5.0


def test_load_config_defaults_without_env(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    assert load_config() == PlannerConfig()
