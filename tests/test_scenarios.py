"""Declarative scenario subsystem: spec, loader, compiler, generators, registry."""

import dataclasses

import pytest

from repro.experiments import run_experiment
from repro.experiments.sweep import SweepEngine, trial_key
from repro.scenarios import (
    BurstTrafficSpec,
    ScenarioResult,
    ScenarioSpec,
    ScenarioTrialConfig,
    SpecError,
    ZigbeeLinkSpec,
    clustered,
    compile_scenario,
    get_scenario,
    get_scenario_entry,
    grid,
    load_spec,
    random_uniform,
    run_scenario_trial,
    scenario_names,
    spec_from_dict,
)
from repro.serialization import canonical_dumps, to_dict
from repro.telemetry import build_manifest


FAST = grid(n_zigbee_links=2, duration=1.5, max_bursts=3)


# ----------------------------------------------------------------------
# Spec: round-trips and strict loading
# ----------------------------------------------------------------------
def test_spec_dict_roundtrip_preserves_fingerprint():
    for name in ("smart-home", "grid", "priority-streaming"):
        spec = get_scenario(name)
        restored = spec_from_dict(spec.to_dict())
        assert restored == spec
        assert restored.fingerprint() == spec.fingerprint()


def test_fingerprint_tracks_content_not_description():
    spec = get_scenario("office")
    relabeled = dataclasses.replace(spec, description="something else")
    assert relabeled.fingerprint() == spec.fingerprint()
    changed = dataclasses.replace(spec, duration=spec.duration + 1.0)
    assert changed.fingerprint() != spec.fingerprint()


def test_unknown_key_rejected_with_path():
    data = get_scenario("smart-home").to_dict()
    data["zigbee"][0]["traffic"]["n_pakets"] = 9
    with pytest.raises(SpecError, match=r"zigbee\[0\].traffic.*n_pakets"):
        spec_from_dict(data)


def test_bad_type_rejected_with_path():
    data = get_scenario("office").to_dict()
    data["duration"] = True  # bool must not pass as a float
    with pytest.raises(SpecError, match="duration"):
        spec_from_dict(data)


def test_bad_tuple_length_rejected():
    data = get_scenario("office").to_dict()
    data["zigbee"][0]["sender_pos"] = [1.0, 2.0, 3.0]
    with pytest.raises(SpecError, match=r"sender_pos"):
        spec_from_dict(data)


def test_validate_rejects_duplicate_device_names():
    spec = get_scenario("grid", n_zigbee_links=1)
    clash = dataclasses.replace(
        spec,
        zigbee=spec.zigbee + (
            ZigbeeLinkSpec(name="dup", sender=spec.zigbee[0].sender_name),
        ),
    )
    with pytest.raises(SpecError, match="sender"):
        clash.validate()


def test_office_backend_requires_canonical_names():
    spec = get_scenario("office")
    bad = dataclasses.replace(
        spec, zigbee=(dataclasses.replace(spec.zigbee[0], sender="Z9"),)
    )
    with pytest.raises(SpecError, match="office"):
        bad.validate()


def test_load_spec_toml(tmp_path):
    path = tmp_path / "tiny.toml"
    path.write_text(
        'name = "tiny"\nduration = 1.0\n\n'
        "[[zigbee]]\nname = \"z\"\n\n"
        "[[wifi]]\nname = \"wifi\"\n",
        encoding="utf-8",
    )
    spec = load_spec(path)
    assert spec.name == "tiny"
    assert spec.zigbee[0].name == "z"


def test_load_spec_rejects_unknown_extension(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text("name: nope\n", encoding="utf-8")
    with pytest.raises(ValueError, match="yaml"):
        load_spec(path)


# ----------------------------------------------------------------------
# Compiler: determinism and the run contract
# ----------------------------------------------------------------------
def test_compiler_is_deterministic_per_seed():
    a = compile_scenario(FAST, seed=3).run(max_events=2500)
    b = compile_scenario(FAST, seed=3).run(max_events=2500)
    assert canonical_dumps(a) == canonical_dumps(b)
    assert a.trace_digest == b.trace_digest
    c = compile_scenario(FAST, seed=4).run(max_events=2500)
    assert canonical_dumps(a) != canonical_dumps(c)


def test_compiled_scenario_runs_once():
    compiled = compile_scenario(FAST, seed=0)
    compiled.run(max_events=500)
    with pytest.raises(RuntimeError, match="once"):
        compiled.run(max_events=500)


def test_result_carries_fingerprint_and_links():
    result = compile_scenario(FAST, seed=1).run(max_events=2500)
    assert isinstance(result, ScenarioResult)
    assert result.spec_fingerprint == FAST.fingerprint()
    assert set(result.links) == {link.name for link in FAST.zigbee}
    assert set(result.wifi) == {link.name for link in FAST.wifi}
    summary = result.summary()
    assert 0.0 <= summary["delivery_ratio"] <= 1.0


def test_compile_validates_spec():
    bad = dataclasses.replace(FAST, duration=-1.0)
    with pytest.raises(SpecError, match="duration"):
        compile_scenario(bad, seed=0)


# ----------------------------------------------------------------------
# Generators: bounds and placement seeding
# ----------------------------------------------------------------------
def test_grid_is_seedless_and_stable():
    assert grid(n_zigbee_links=5).fingerprint() == grid(n_zigbee_links=5).fingerprint()
    assert grid(n_zigbee_links=5).fingerprint() != grid(n_zigbee_links=6).fingerprint()


def test_random_uniform_respects_area_bounds():
    area = (10.0, 6.0)
    spec = random_uniform(n_zigbee_links=8, area=area, placement_seed=2)
    assert len(spec.zigbee) == 8
    for link in spec.zigbee:
        for x, y in (link.sender_pos, link.receiver_pos):
            assert 0.0 <= x <= area[0]
            assert 0.0 <= y <= area[1]


def test_placement_seed_controls_layout():
    same = random_uniform(placement_seed=7).fingerprint()
    assert random_uniform(placement_seed=7).fingerprint() == same
    assert random_uniform(placement_seed=8).fingerprint() != same


def test_clustered_keeps_links_near_centers():
    radius = 1.2
    spec = clustered(
        n_clusters=2, links_per_cluster=3, cluster_radius=radius,
        area=(14.0, 9.0), placement_seed=5,
    )
    assert len(spec.zigbee) == 6
    for link in spec.zigbee:
        assert 0.0 <= link.sender_pos[0] <= 14.0
        assert 0.0 <= link.sender_pos[1] <= 9.0


# ----------------------------------------------------------------------
# Registry and the experiment/sweep integration
# ----------------------------------------------------------------------
def test_library_names_and_unknown_scenario():
    names = scenario_names()
    assert "office" in names and "dense-office" in names
    with pytest.raises(KeyError, match="available"):
        get_scenario_entry("warehouse-on-mars")


def test_unknown_scenario_param_rejected():
    with pytest.raises(TypeError, match="valid"):
        get_scenario("office", n_burstss=3)


def test_lookup_is_separator_insensitive():
    assert get_scenario_entry("Smart_Home").name == "smart-home"


def test_run_experiment_scenario_matches_direct_call():
    cfg = ScenarioTrialConfig(scenario="grid",
                              params={"n_zigbee_links": 2, "max_bursts": 3},
                              duration=1.5, max_events=2000)
    via_registry = run_experiment("scenario", config=to_dict(cfg), seed=2)
    direct = run_scenario_trial(cfg, 2)
    assert canonical_dumps(via_registry) == canonical_dumps(direct)


def test_trial_key_includes_scenario_fingerprint():
    base = {"scenario": "grid", "duration": 1.5, "max_events": 2000}
    a = trial_key("scenario", {**base, "params": {"n_zigbee_links": 2}}, 0)
    b = trial_key("scenario", {**base, "params": {"n_zigbee_links": 3}}, 0)
    assert a != b
    cfg = ScenarioTrialConfig(scenario="grid", params={"n_zigbee_links": 2})
    assert cfg.spec_fingerprint == get_scenario("grid", n_zigbee_links=2).fingerprint()


def test_scenario_sweep_caches_typed_results(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    trials = [
        {"scenario": "grid", "duration": 1.5, "max_events": 1500,
         "params": {"n_zigbee_links": n, "max_bursts": 3}}
        for n in (1, 2)
    ]
    first = engine.run_trials("scenario", trials, seeds=(0,))
    assert (first.executed, first.cached_hits) == (2, 0)
    second = engine.run_trials("scenario", trials, seeds=(0,))
    assert (second.executed, second.cached_hits) == (0, 2)
    for result in second.results:
        assert isinstance(result, ScenarioResult)
        # dict-valued fields come back as typed dataclasses, not raw dicts
        assert all(hasattr(link, "delivery_ratio") for link in result.links.values())
    for a, b in zip(first.results, second.results):
        assert canonical_dumps(a) == canonical_dumps(b)


def test_manifest_records_scenario():
    manifest = build_manifest(
        experiment="scenario", seeds=(0,), scenario="office",
        scenario_fingerprint="abc123",
    )
    assert manifest.scenario == "office"
    assert manifest.scenario_fingerprint == "abc123"
