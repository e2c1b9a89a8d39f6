"""Experiment registry: uniform contract, lookups, runner call forms."""

import dataclasses

import pytest

from repro.experiments import (
    BleCoexistenceResult,
    CoexistenceConfig,
    CoexistenceResult,
    EnergyResult,
    LearningTrialConfig,
    LearningTrialResult,
    PriorityTrialConfig,
    EXPERIMENTS,
    experiment_names,
    get_experiment,
    resolve_config,
    run_experiment,
    run_learning_trial,
    run_priority_experiment,
    run_signaling_trial,
)
from repro.serialization import canonical_dumps


ALL_EXPERIMENTS = (
    "signaling", "coexistence", "learning", "priority",
    "energy", "cti", "device-id", "ble", "robustness", "scenario",
    "roaming",
)


def test_all_experiments_registered():
    assert experiment_names() == tuple(sorted(ALL_EXPERIMENTS))
    for name in ALL_EXPERIMENTS:
        spec = get_experiment(name)
        assert spec.name == name
        assert callable(spec.runner)
        assert dataclasses.is_dataclass(spec.config_cls)
        assert dataclasses.is_dataclass(spec.result_cls)
        assert spec.description


def test_lookup_is_case_and_separator_insensitive():
    assert get_experiment("Device_ID").name == "device-id"
    assert get_experiment("coexist").name == "coexistence"  # alias
    assert get_experiment("signalling").name == "signaling"  # alias


def test_unknown_experiment_lists_available():
    with pytest.raises(KeyError, match="available: .*coexistence.*learning"):
        get_experiment("quantum-teleport")
    with pytest.raises(KeyError):
        run_experiment("nope")


def test_unknown_parameter_rejected_with_valid_list():
    with pytest.raises(TypeError, match="valid.*n_packets"):
        run_experiment("learning", n_pakcets=5)  # typo must not pass silently
    with pytest.raises(TypeError, match="unknown parameter"):
        resolve_config("coexistence", warp_factor=9)


def test_resolve_config_applies_defaults_and_overrides():
    cfg = resolve_config("learning", n_packets=7)
    assert isinstance(cfg, LearningTrialConfig)
    assert cfg.n_packets == 7
    assert cfg.n_bursts == LearningTrialConfig().n_bursts


def test_resolve_config_coerces_nested_dicts():
    cfg = resolve_config(
        "coexistence",
        bicord_config={"allocator": {"initial_whitespace": 0.04}},
    )
    assert isinstance(cfg, CoexistenceConfig)
    assert cfg.bicord_config.allocator.initial_whitespace == pytest.approx(0.04)
    # untouched sections keep their defaults
    assert cfg.bicord_config.detector.required_samples == 2


def test_run_experiment_learning_equals_direct_call():
    via_registry = run_experiment("learning", seed=5, n_packets=4, n_bursts=4)
    direct = run_learning_trial(LearningTrialConfig(n_packets=4, n_bursts=4), 5)
    assert isinstance(via_registry, LearningTrialResult)
    assert canonical_dumps(via_registry) == canonical_dumps(direct)


def test_run_experiment_coexistence_seed_override():
    a = run_experiment("coexistence", seed=3, n_bursts=4)
    b = run_experiment("coexistence", config=CoexistenceConfig(seed=3, n_bursts=4))
    assert isinstance(a, CoexistenceResult)
    assert canonical_dumps(a) == canonical_dumps(b)


def test_run_experiment_accepts_config_dict():
    a = run_experiment("learning", config={"n_packets": 4, "n_bursts": 4}, seed=1)
    b = run_experiment("learning", n_packets=4, n_bursts=4, seed=1)
    assert canonical_dumps(a) == canonical_dumps(b)


def test_run_experiment_energy_and_ble_types():
    energy = run_experiment("energy", n_bursts=2, seed=1)
    assert isinstance(energy, EnergyResult)
    ble = run_experiment("ble", duration=2.0, afh_enabled=False, seed=1)
    assert isinstance(ble, BleCoexistenceResult)


# ----------------------------------------------------------------------
# Call forms: a runner takes its config object, nothing else
# ----------------------------------------------------------------------
def test_legacy_keyword_form_warns_and_matches_new_form():
    # The field-keyword form is gone: it raises instead of warning, and the
    # config-object form gives what run_experiment gives for those fields.
    with pytest.raises(TypeError, match="unexpected keyword"):
        run_learning_trial(n_packets=4, n_bursts=4, seed=5)
    direct = run_learning_trial(LearningTrialConfig(n_packets=4, n_bursts=4), seed=5)
    fresh = run_experiment("learning", n_packets=4, n_bursts=4, seed=5)
    assert canonical_dumps(direct) == canonical_dumps(fresh)


def test_legacy_positional_scheme_string_warns():
    # A bare positional string is not a config: it raises, naming the type.
    with pytest.raises(TypeError, match="PriorityTrialConfig"):
        run_priority_experiment("csma")
    with pytest.raises(ValueError, match="bicord and ecc"):
        run_priority_experiment(
            PriorityTrialConfig(scheme="csma", total_duration=1.0)
        )


def test_legacy_unknown_keyword_still_rejected():
    with pytest.raises(TypeError, match="unexpected keyword"):
        run_signaling_trial(locaton="A")  # typo: not silently accepted


def test_mixing_config_and_legacy_kwargs_overrides_fields():
    # A runner takes a config and no field keywords; field overrides on top
    # of a config go through run_experiment.
    base = LearningTrialConfig(n_packets=9, n_bursts=4)
    with pytest.raises(TypeError, match="unexpected keyword"):
        run_learning_trial(base, seed=2, n_packets=4)
    result = run_experiment("learning", config=base, seed=2, n_packets=4)
    assert result.n_packets == 4
