"""Pipeline configuration: backend descriptor and resource paths.

Configs load from JSON; relative resource paths resolve against the config
file's directory. ``default_config`` points at the resources bundled with
the package, so the tool works out of the box in mock mode. Credentials are
never stored in the config, only the name of the environment variable that
holds them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .backends import MAX_RETRIES, BackendConfig


class ConfigError(Exception):
    pass


class ResourcePaths(NamedTuple):
    rolesets: Path
    alignments: Path
    links: Path
    mini_ontology: Path
    prompts_dir: Path
    mock_dir: Path

    def validate(self) -> None:
        for name in ("rolesets", "alignments", "links", "mini_ontology"):
            path: Path = getattr(self, name)
            if not path.is_file():
                raise ConfigError(f"resource file for {name!r} not found: {path}")
        for name in ("prompts_dir", "mock_dir"):
            path = getattr(self, name)
            if not path.is_dir():
                raise ConfigError(f"resource directory for {name!r} not found: {path}")


class PipelineConfig(NamedTuple):
    backend: BackendConfig = BackendConfig()
    resources: Optional[ResourcePaths] = None
    force_merge: bool = False

    def require_resources(self) -> ResourcePaths:
        if self.resources is None:
            raise ConfigError("no resource paths configured")
        return self.resources


def bundled_resources_root() -> Path:
    # The package's own directory, which is what importlib.resources.files
    # gives for a package on the file system; that module imports inspect on
    # CPython 3.12 and later.
    return Path(__file__).parent / "resources"


def default_resource_paths() -> ResourcePaths:
    root = bundled_resources_root()
    return ResourcePaths(
        rolesets=root / "maps" / "rolesets.json",
        alignments=root / "maps" / "alignments.json",
        links=root / "maps" / "links.json",
        mini_ontology=root / "ontology" / "mini-ontology.ttl",
        prompts_dir=root / "prompts",
        mock_dir=root / "mocks",
    )


def default_config() -> PipelineConfig:
    paths = default_resource_paths()
    paths.validate()
    return PipelineConfig(resources=paths)


def _section(raw: dict, name: str, known) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object")
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} settings: {sorted(unknown)}")
    return section


def load_config(path: Union[str, Path]) -> PipelineConfig:
    """Load a JSON config; unspecified resource paths fall back to bundled.

    The file is untrusted input: anything but an object of the known
    sections and keys, with values of the types of the defaults, raises
    ConfigError. So does a backend setting out of range: ``timeout``,
    ``max_concurrent`` and ``max_tokens`` must be positive, ``retries`` and
    ``temperature`` non-negative, all of them finite, and ``retries`` at most
    ``backends.MAX_RETRIES``.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {"backend", "resources", "force_merge"}
    if unknown:
        raise ConfigError(f"unknown config settings: {sorted(unknown)}")

    backend_raw = _section(raw, "backend", BackendConfig._fields)
    for name, value in backend_raw.items():
        kind = type(BackendConfig._field_defaults[name])
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise ConfigError(
                f"backend setting {name!r} must be of type {kind.__name__}, found {value!r}")
    backend = BackendConfig(**backend_raw)
    for name in ("timeout", "max_concurrent", "max_tokens"):
        value = getattr(backend, name)
        if not 0 < value < math.inf:
            raise ConfigError(
                f"backend setting {name!r} must be positive and finite, found {value!r}")
    for name in ("retries", "temperature"):
        value = getattr(backend, name)
        if not 0 <= value < math.inf:
            raise ConfigError(
                f"backend setting {name!r} must be non-negative and finite, found {value!r}")
    if backend.retries > MAX_RETRIES:
        raise ConfigError(f"backend setting 'retries' must be at most {MAX_RETRIES}, "
                          f"found {backend.retries!r}")

    base_dir = path.parent
    defaults = default_resource_paths()
    resources_raw = _section(raw, "resources", ResourcePaths._fields)

    def resolve(name: str) -> Path:
        value = resources_raw.get(name)
        if value is None:
            return getattr(defaults, name)
        if not isinstance(value, str) or "\0" in value:
            raise ConfigError(f"resource path {name!r} must be a path string, found {value!r}")
        candidate = Path(value)
        return candidate if candidate.is_absolute() else (base_dir / candidate).resolve()

    paths = ResourcePaths(**{name: resolve(name) for name in ResourcePaths._fields})
    paths.validate()
    force_merge = raw.get("force_merge", False)
    if not isinstance(force_merge, bool):
        raise ConfigError("force_merge must be true or false")
    return PipelineConfig(backend=backend, resources=paths, force_merge=force_merge)
