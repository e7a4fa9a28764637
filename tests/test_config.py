import json

import jsonschema
import pytest

from ergode.config import SCHEMA, ConfigError, load_config


def test_schema_is_valid_under_its_metaschema():
    jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)


def validate_message(cfg):
    """The ConfigError message built from what `jsonschema.validate` raises."""
    with pytest.raises(jsonschema.ValidationError) as info:
        jsonschema.validate(cfg, SCHEMA)
    where = "/".join(str(p) for p in info.value.absolute_path) or "(top level)"
    return f"config rejected at {where}: {info.value.message}"


BASE = {
    "command": "entropy",
    "experiment_id": "x",
    "system": {"kind": "full-shift", "k": 2},
}


@pytest.mark.parametrize("cfg, where", [
    ({**BASE, "colour": "red"}, "(top level)"),
    ({**BASE, "system": {"kind": "full-shift", "k": "two"}}, "system/k"),
    ({**BASE, "system": {"kind": "suspension", "base": {"kind": "full-shift", "k": 2.5},
                         "roof": {"constant": 1.0}}}, "system/base/k"),
])
def test_load_config_rejects_as_jsonschema_validate_does(tmp_path, cfg, where):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for _ in range(2):                  # the second call reuses the validator
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value) == validate_message(cfg)
        assert str(info.value).startswith(f"config rejected at {where}: ")
