import json
import re
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
        f"{section}.{key}"
        for section, info in RunConfig.model_fields.items()
        for key in info.annotation.model_fields
        if not re.search(rf"\.{section}\.{key}\b", source)
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
