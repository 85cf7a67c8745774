import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from coxmra.config import (
    REFERENCE_EIGENVALUES_1,
    REFERENCE_EIGENVALUES_2,
    ConfigError,
    RunConfig,
    load_config,
)
from coxmra.estimator import ThetaDomain


def _base():
    return {"grid": {"s1": 10, "s2": 10}, "time": {"depth": 4, "j0": 1}}


def _load(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return load_config(path)


def test_minimal_config_defaults(tmp_path):
    cfg = _load(tmp_path, _base())
    assert cfg.grid.s1 == 10
    assert cfg.model.couple_l3
    assert cfg.theta_domain() == ThetaDomain()
    spec = cfg.sarh_spec()
    assert spec.truncation == 10
    np.testing.assert_allclose(spec.eigenvalues1, REFERENCE_EIGENVALUES_1)
    np.testing.assert_allclose(spec.eigenvalues2, REFERENCE_EIGENVALUES_2)


def test_unknown_key_rejected(tmp_path):
    payload = _base()
    payload["grid"]["s3"] = 4
    with pytest.raises(ConfigError, match="s3"):
        _load(tmp_path, payload)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


def test_config_byte_not_utf8_names_its_line(tmp_path):
    # a byte that is not UTF-8 is named with its line, as the record
    # loaders name it, not by its offset in a JSON decode error
    path = tmp_path / "config.json"
    path.write_bytes(b'{\n "grid": {"s1": "\xff"}\n}\n')
    with pytest.raises(ConfigError, match=r"config\.json: line 2: not UTF-8: byte 0xff$"):
        load_config(path)


def test_error_message_names_key_path(tmp_path):
    payload = _base()
    payload["time"]["depth"] = 99
    with pytest.raises(ConfigError, match="time.depth"):
        _load(tmp_path, payload)


def test_j0_bounded_by_depth(tmp_path):
    payload = _base()
    payload["time"]["j0"] = 5
    with pytest.raises(ConfigError):
        _load(tmp_path, payload)


def test_truncation_slices_model(tmp_path):
    payload = _base()
    payload["model"] = {"truncation": 4}
    spec = _load(tmp_path, payload).sarh_spec()
    assert spec.truncation == 4
    np.testing.assert_allclose(spec.eigenvalues1, REFERENCE_EIGENVALUES_1[:4])
    payload["model"] = {"truncation": 11}
    with pytest.raises(ValueError, match="truncation"):
        _load(tmp_path, payload).sarh_spec()


def test_bad_domain_rejected_at_load(tmp_path):
    payload = _base()
    for estimation, reason in (
        ({"bounds": [[0.5, -0.5], [-0.9, 0.9], [-0.9, 0.9]]}, "empty interval"),
        ({"bounds": [[-0.9, 0.9]] * 2}, "three coordinate intervals"),
        ({"bounds": [[-0.9, 0.9]] * 4}, "three coordinate intervals"),
        ({"bounds": [[0.9, 0.95]] * 3}, "no stationary candidate"),
        # the finite-grid search is gone: its keys are unknown
        ({"domain_mode": "box"}, "estimation.domain_mode"),
        ({"grid_points": [[0.1, 0.2, 0.0]]}, "estimation.grid_points"),
        # json reads Infinity and NaN; an infinite step would never shrink below the tolerance
        ({"bounds": [[-INF, 0.5], [-0.5, 0.5], [-0.5, 0.5]]}, "interval (-inf, 0.5) has no finite width"),
        ({"bounds": [[-0.5, 0.5], [-0.5, NAN], [-0.5, 0.5]]}, "interval (-0.5, nan) has no finite width"),
        ({"bounds": [[-1e308, 1e308], [-0.5, 0.5], [-0.5, 0.5]]}, "interval (-1e+308, 1e+308) has no finite width"),
    ):
        payload["estimation"] = estimation
        with pytest.raises(ConfigError, match="estimation") as err:
            _load(tmp_path, payload)
        assert reason in str(err.value)
    # coupled, the same box keeps stationary candidates
    payload["estimation"] = {"bounds": [[0.9, 0.95]] * 3, "couple_l3": True}
    assert _load(tmp_path, payload).theta_domain() == ThetaDomain(((0.9, 0.95),) * 3, True)


def test_unsupported_weight_rejected(tmp_path):
    payload = _base()
    payload["estimation"] = {"eta": "uniform"}
    with pytest.raises(ConfigError, match="estimation.eta"):
        _load(tmp_path, payload)


def test_io_section_rejected(tmp_path):
    # field files are CSV only; the section that chose their format is gone
    payload = _base()
    payload["io"] = {"format": "csv"}
    with pytest.raises(ConfigError, match=r"config\.json: io: Extra inputs are not permitted"):
        _load(tmp_path, payload)


def test_every_config_key_is_read():
    """Each leaf key of RunConfig is read somewhere in the package as
    `.<section>.<key>`, so a key that nothing consumes fails here."""
    source = "\n".join(p.read_text() for p in (Path(__file__).parents[1] / "src" / "coxmra").glob("*.py"))
    unread = [
        f"{section.name}.{key.name}"
        for section in fields(RunConfig)
        for key in fields(section.type)
        if not re.search(rf"\.{section.name}\.{key.name}\b", source)
    ]
    assert unread == []


def test_digest_stable_and_sensitive(tmp_path):
    cfg_a = _load(tmp_path, _base())
    cfg_b = RunConfig.model_validate(_base())
    assert cfg_a.digest() == cfg_b.digest()
    other = _base()
    other["grid"]["s1"] = 11
    assert RunConfig.model_validate(other).digest() != cfg_a.digest()


def test_custom_innovation_variances(tmp_path):
    payload = _base()
    payload["model"] = {
        "truncation": 3,
        "innovation_variances": [1.0, 0.5, 0.25],
    }
    spec = _load(tmp_path, payload).sarh_spec()
    np.testing.assert_allclose(spec.innovation_variances, [1.0, 0.5, 0.25])


def test_innovation_variances_reject_other_strings(tmp_path):
    payload = _base()
    payload["model"] = {"innovation_variances": "uniform"}
    with pytest.raises(ConfigError, match="model.innovation_variances") as exc:
        _load(tmp_path, payload)
    assert '"default", the only string accepted' in str(exc.value)


# sha256 of canonical_json(), computed with the earlier pydantic loader:
# every config_sha256 a manifest ever recorded must stay the same
PINNED_DIGESTS = [
    ("minimal", _base(), "65a52254cc0e86da28bb34b492e6efaff31d6fa4e5a4b3dd89c6a939954a0715"),
    (
        "all_keys",
        {
            "grid": {"s1": 12, "s2": 9},
            "time": {"depth": 5, "j0": 2},
            "model": {"eigenvalues1": [0.3, 0, 0.1], "eigenvalues2": [0.5, 0.4, 0],
                      "innovation_variances": [1, 0.5, 0.25], "couple_l3": True,
                      "eigenvalues3": None, "truncation": None},
            "estimation": {"bounds": [[-1, 1], [-0.5, 0.5], [0, 1]], "include_cross": False,
                           "couple_l3": True},
            "simulation": {"burn_in": 32, "seed": 11, "replications": 3},
            "validation": {"neighborhood_radius": 2, "period_length": 4, "max_folds": None},
            "counts": {"seed": 5, "area_scale": 2},
        },
        "0c45d08d240fce29c2322eb59194ae8e0e20b0eb1620a5d474616fa67e7afad2",
    ),
    (
        "all_keys_uncoupled",
        {
            "grid": {"s1": 2, "s2": 3},
            "time": {"depth": 1, "j0": 0},
            "model": {"eigenvalues1": [0.3, 0.2, 0.1], "eigenvalues2": [0.2, 0.1, 0.1],
                      "innovation_variances": "default", "couple_l3": False,
                      "eigenvalues3": [0.1, 0, 0.2], "truncation": 2},
            "estimation": {"bounds": [[-0.9, 0.9], [-0.9, 0.9], [-0.5, 0.5]], "include_cross": True,
                           "couple_l3": False},
            "simulation": {"burn_in": 0, "seed": 0, "replications": 1},
            "validation": {"neighborhood_radius": 0, "period_length": 1, "max_folds": 3},
            "counts": {"seed": 0, "area_scale": 0.5},
        },
        "1ba619c909fd106bf0a168bed52ab14e831cce91bd1ebe323eef950364e94680",
    ),
    # the set-up configs of the perfbench workloads at seed 1
    (
        "mc_study",
        {"grid": {"s1": 50, "s2": 50}, "time": {"depth": 4, "j0": 1},
         "simulation": {"seed": 1, "replications": 2}},
        "d830a8030ad11db408ef32f3b6015a0fa14eb6d91ed2197f34c0c1e34cabf2b3",
    ),
    (
        "loo_cross_fit",
        {"grid": {"s1": 12, "s2": 12}, "time": {"depth": 3, "j0": 1}, "model": {"truncation": 5},
         "estimation": {"include_cross": True, "couple_l3": True}, "simulation": {"seed": 1}},
        "def6d583d93fc2cf3c2cf3cb3a41d6ca77a07887532de58f509250fabfe8309e",
    ),
    (
        "loo_cross_folds",
        {"grid": {"s1": 12, "s2": 12}, "time": {"depth": 1, "j0": 0}, "model": {"truncation": 2},
         "estimation": {"couple_l3": True}, "simulation": {"seed": 2},
         "validation": {"neighborhood_radius": 1, "period_length": 1}},
        "fd34c07d56f7f61ec5cd7e361f4a03541bca5e6e90e6e30908579afd85595910",
    ),
    (
        "cli_counts",
        {"grid": {"s1": 200, "s2": 200}, "time": {"depth": 4, "j0": 1},
         "simulation": {"seed": 1, "replications": 2}, "counts": {"seed": 2}},
        "b604f7d71ee40eb69f093a4ea941593b57a42ff65a60b7065209cd71f466bc77",
    ),
]


@pytest.mark.parametrize("raw, digest", [c[1:] for c in PINNED_DIGESTS], ids=[c[0] for c in PINNED_DIGESTS])
def test_digest_pinned(tmp_path, raw, digest):
    assert RunConfig.model_validate(raw).digest() == digest
    assert _load(tmp_path, raw).digest() == digest


def test_int_in_float_key_stored_as_float():
    cfg = RunConfig.model_validate({**_base(), "counts": {"area_scale": 2}})
    assert type(cfg.counts.area_scale) is float
    assert cfg.estimation.bounds == ((-0.95, 0.95),) * 3


@pytest.mark.parametrize("section, patch, where, what", [
    ("grid", {"s1": "10"}, "grid.s1", "Input should be a valid int"),
    ("grid", {"s1": True}, "grid.s1", "Input should be a valid int"),
    ("grid", {"s1": 10.0}, "grid.s1", "Input should be a valid int"),
    ("grid", {"s1": 1}, "grid.s1", "Input should be greater than or equal to 2"),
    ("counts", {"area_scale": "2"}, "counts.area_scale", "Input should be a valid float"),
    ("counts", {"area_scale": 0}, "counts.area_scale", "Input should be greater than 0"),
    ("model", {"couple_l3": 1}, "model.couple_l3", "Input should be a valid bool"),
    ("model", {"truncation": 0}, "model.truncation", "Input should be greater than or equal to 1"),
    ("model", {"eigenvalues1": [0.3, "x"]}, "model.eigenvalues1.1", "Input should be a valid float"),
    ("model", {"eigenvalues3": 0.1}, "model.eigenvalues3", "Input should be a valid list"),
    ("estimation", {"bounds": [[-0.9, 0.9, 0.1]] * 3}, "estimation.bounds.0",
     "Input should be a list of 2 items, got 3"),
    ("time", {"depth": 15}, "time.depth", "Input should be less than or equal to 14"),
    ("validation", {"max_folds": "all"}, "validation.max_folds", "Input should be a valid int"),
    ("counts", {"area_scale": float("inf")}, "counts.area_scale", "Input should be a finite number"),
])
def test_type_errors_name_the_key(tmp_path, section, patch, where, what):
    payload = _base()
    payload[section] = {**payload.get(section, {}), **patch}
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, payload)
    assert str(err.value) == f"{tmp_path / 'config.json'}: {where}: {what}"


def test_section_level_errors(tmp_path):
    path = tmp_path / "config.json"
    for payload, message in (
        ({"grid": {"s1": 10, "s2": 10}, "time": {"depth": 4, "j0": 5}}, "time: j0=5 exceeds depth=4"),
        ({"time": {"depth": 4}}, "grid: Field required"),
        ({"grid": {"s1": 10}, "time": {"depth": 4}}, "grid.s2: Field required"),
        ({"grid": [10, 10], "time": {"depth": 4}}, "grid: Input should be an object"),
        ([1, 2], "config: Input should be an object"),
    ):
        with pytest.raises(ConfigError) as err:
            _load(tmp_path, payload)
        assert str(err.value) == f"{path}: {message}"


NAN, INF = float("nan"), float("inf")  # json.dumps writes NaN and Infinity, json.load reads them


@pytest.mark.parametrize("model, reason", [
    ({"truncation": 11}, "truncation 11 exceeds the 10 supplied eigenvalues"),
    ({"eigenvalues1": [0.5, 1.0], "eigenvalues2": [0.1, 0.1]}, "require |lambda_p1| < 1"),
    ({"eigenvalues1": [0.5, 0.4], "eigenvalues2": [0.1]}, "must share length"),
    ({"truncation": 2, "innovation_variances": [1.0]}, "must share length"),
    ({"couple_l3": False}, "eigenvalues3 required when couple_l3 is unset"),
    ({"eigenvalues1": [0.5, 0.4], "eigenvalues2": [0.1, 0.1, 0.1]}, "must share length"),
    ({"eigenvalues1": [NAN, 0.4], "eigenvalues2": [0.1, 0.1]}, "eigenvalues and innovation variances must be finite"),
    ({"eigenvalues1": [0.5, 0.4], "eigenvalues2": [0.1, NAN]}, "eigenvalues and innovation variances must be finite"),
    ({"eigenvalues1": [-INF, 0.4], "eigenvalues2": [0.1, 0.1]}, "eigenvalues and innovation variances must be finite"),
    ({"truncation": 2, "innovation_variances": [1.0, NAN]}, "eigenvalues and innovation variances must be finite"),
    ({"truncation": 2, "couple_l3": False, "eigenvalues3": [0.1, NAN]}, "eigenvalues3 must be finite"),
    # more components than the 16 time points of depth 4
    ({"eigenvalues1": [0.1] * 17, "eigenvalues2": [0.1] * 17}, "cannot build 17 orthogonal eigenfunctions on 16"),
])
def test_bad_model_rejected_at_load(tmp_path, model, reason):
    payload = {**_base(), "model": model}
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, payload)
    assert str(err.value).startswith(f"{tmp_path / 'config.json'}: model: ")
    assert reason in str(err.value)
