import json

import pytest

from xkg.config import (
    ConfigError,
    default_config,
    default_resource_paths,
    load_config,
)


class TestDefaults:
    def test_bundled_resources_exist(self):
        paths = default_resource_paths()
        paths.validate()
        assert (paths.prompts_dir / "system.txt").is_file()
        assert len(list(paths.mock_dir.glob("*.ttl"))) == 11

    def test_default_config_loads(self):
        config = default_config()
        assert config.backend.endpoint == ""
        assert config.force_merge is False


class TestLoadConfig:
    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        mocks = tmp_path / "my-mocks"
        mocks.mkdir()
        (mocks / "FactualImpact.ttl").write_text("", encoding="utf-8")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "backend": {"endpoint": "https://api.example/chat", "model": "m"},
            "resources": {"mock_dir": "my-mocks"},
        }), encoding="utf-8")
        config = load_config(config_path)
        assert config.backend.endpoint == "https://api.example/chat"
        assert config.require_resources().mock_dir == mocks.resolve()
        # unspecified paths fall back to the bundled resources
        assert config.require_resources().rolesets == default_resource_paths().rolesets

    def test_missing_resource_path_rejected(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "resources": {"rolesets": "does-not-exist.json"},
        }), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(config_path)

    def test_unknown_backend_setting_rejected(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "backend": {"endpoint": "x://e", "api_key": "never-store-me"},
        }), encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(config_path)
        assert "api_key" in str(err.value)

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")
        with pytest.raises(ConfigError):
            load_config(tmp_path)
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError):
            load_config(binary)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(bad)

    @pytest.mark.parametrize("raw, message", [
        ([], "JSON object"),
        ("x", "JSON object"),
        ({"resources": "x"}, "'resources' must be a JSON object"),
        ({"backend": []}, "'backend' must be a JSON object"),
        ({"resources": {"mockdir": "mocks"}}, "mockdir"),
        ({"resource": {}}, "resource"),
        ({"backend": {"retries": "3"}}, "'retries' must be of type int"),
        ({"backend": {"timeout": True}}, "'timeout' must be of type float"),
        ({"backend": {"endpoint": 5}}, "'endpoint' must be of type str"),
        ({"resources": {"mock_dir": 5}}, "'mock_dir' must be a path"),
        ({"resources": {"mock_dir": "a\u0000b"}}, "'mock_dir' must be a path"),
        ({"force_merge": "false"}, "force_merge"),
    ])
    def test_malformed_config_rejected(self, tmp_path, raw, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(config_path)
        assert message in str(err.value)

    def test_numbers_accepted_for_float_settings(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"backend": {"timeout": 5, "temperature": 0.5}}),
                               encoding="utf-8")
        assert load_config(config_path).backend.timeout == 5

    def test_force_merge_flag(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"force_merge": True}), encoding="utf-8")
        assert load_config(config_path).force_merge is True
