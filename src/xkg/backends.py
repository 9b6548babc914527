"""Completion backends: a generic HTTP client and deterministic mocks.

The enrichment stage is model-agnostic; a backend is anything with a
``complete(request) -> str`` method (and ``describe(image_path) -> str`` for
the multimodal description step). The HTTP backend posts an OpenAI-style
chat payload and retries transport failures with exponential backoff; mocks
replay canned responses keyed by the request tag so the whole pipeline runs
offline and byte-stable.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Protocol, Union

logger = logging.getLogger(__name__)

SUPPORTED_IMAGE_SUFFIXES = (".png", ".jpg", ".jpeg", ".webp", ".gif")


class BackendError(Exception):
    """Base class for completion backend failures."""


class TransportError(BackendError):
    """Network or server failure that survived all retries."""


class AuthError(BackendError):
    """Credential rejected; never retried."""


class BudgetExceededError(BackendError):
    """The request asked for more tokens than the configured cap."""


class UnsupportedImageFormatError(BackendError):
    pass


@dataclass(frozen=True)
class BackendConfig:
    endpoint: str = ""
    model: str = ""
    credential_env: str = "XKG_API_KEY"
    timeout: float = 60.0
    retries: int = 3
    max_concurrent: int = 4
    temperature: float = 0.0
    max_tokens: int = 2048
    max_tokens_cap: int = 8192


class Backend(Protocol):
    def complete(self, request) -> str: ...

    def describe(self, image_path: Path) -> str: ...


class MappingBackend:
    """Deterministic mock keyed by the request tag (the heuristic name)."""

    def __init__(self, responses: Mapping[str, str], description: str = ""):
        self.responses = dict(responses)
        self.description = description
        self.requests: list = []  # kept for assertions in tests

    def complete(self, request) -> str:
        self.requests.append(request)
        tag = getattr(request, "tag", None)
        if tag not in self.responses:
            raise TransportError(f"no canned response for {tag!r}")
        return self.responses[tag]

    def describe(self, image_path: Path) -> str:
        if not self.description:
            raise TransportError("no canned image description")
        return self.description


class MockBackend(MappingBackend):
    """Mock backed by a directory of ``<heuristic>.ttl`` canned responses.

    An optional ``description.txt`` in the same directory serves the
    multimodal description step.
    """

    def __init__(self, directory: Union[str, Path]):
        directory = Path(directory)
        if not directory.is_dir():
            raise FileNotFoundError(f"mock directory not found: {directory}")
        responses = {
            path.stem: path.read_text(encoding="utf-8")
            for path in sorted(directory.glob("*.ttl"))
        }
        description_file = directory / "description.txt"
        description = description_file.read_text(encoding="utf-8") if description_file.exists() else ""
        super().__init__(responses, description)
        self.directory = directory


def _default_post(url: str, payload: dict, headers: dict, timeout: float):
    import requests

    return requests.post(url, json=payload, headers=headers, timeout=timeout)


def _extract_text(body: dict) -> str:
    """Pull the completion text out of the common response shapes."""
    choices = body.get("choices")
    if isinstance(choices, list) and choices:
        message = choices[0].get("message", {})
        if isinstance(message.get("content"), str):
            return message["content"]
    content = body.get("content")
    if isinstance(content, list) and content and isinstance(content[0], dict):
        if isinstance(content[0].get("text"), str):
            return content[0]["text"]
    if isinstance(body.get("completion"), str):
        return body["completion"]
    raise TransportError(f"unrecognized response shape: {json.dumps(body)[:200]}")


class HttpBackend:
    """Minimal JSON-over-HTTP chat-completion client with retry."""

    def __init__(self, config: BackendConfig,
                 post: Optional[Callable] = None,
                 sleep: Callable[[float], None] = time.sleep):
        if not config.endpoint:
            raise ValueError("backend endpoint is not configured")
        self.config = config
        self._post = post or _default_post
        self._sleep = sleep

    def _credential(self) -> str:
        value = os.environ.get(self.config.credential_env, "")
        if not value:
            raise AuthError(f"environment variable {self.config.credential_env} is not set")
        return value

    def _send(self, payload: dict) -> str:
        headers = {
            "Authorization": f"Bearer {self._credential()}",
            "Content-Type": "application/json",
        }
        last_error: Optional[BackendError] = None
        for attempt in range(self.config.retries + 1):
            if attempt:
                delay = 0.5 * (2 ** (attempt - 1))
                logger.debug("retrying in %.1fs (attempt %d)", delay, attempt + 1)
                self._sleep(delay)
            try:
                response = self._post(self.config.endpoint, payload, headers, self.config.timeout)
            except Exception as exc:  # transport-level failure
                last_error = TransportError(str(exc))
                continue
            status = getattr(response, "status_code", 0)
            if status in (401, 403):
                raise AuthError(f"credential rejected (HTTP {status})")
            if status == 429 or status >= 500:
                last_error = TransportError(f"HTTP {status}")
                continue
            if status >= 400:
                raise TransportError(f"HTTP {status}: {getattr(response, 'text', '')[:200]}")
            try:
                return _extract_text(response.json())
            except BackendError:
                raise
            except Exception as exc:
                raise TransportError(f"bad response body: {exc}")
        raise last_error or TransportError("request failed")

    def complete(self, request) -> str:
        if request.max_tokens > self.config.max_tokens_cap:
            raise BudgetExceededError(
                f"max_tokens {request.max_tokens} exceeds the configured cap "
                f"{self.config.max_tokens_cap}")
        payload = {
            "model": self.config.model,
            "max_tokens": request.max_tokens,
            "temperature": request.temperature,
            "messages": [
                {"role": "system", "content": request.system_text},
                {"role": "user", "content": request.user_text},
            ],
        }
        return self._send(payload)

    def describe(self, image_path: Path) -> str:
        suffix = image_path.suffix.lower()
        if suffix not in SUPPORTED_IMAGE_SUFFIXES:
            raise UnsupportedImageFormatError(f"unsupported image format {suffix!r}")
        try:
            encoded = base64.b64encode(image_path.read_bytes()).decode("ascii")
        except OSError as exc:
            raise BackendError(f"cannot read image {image_path}: {exc}")
        mime = "image/jpeg" if suffix in (".jpg", ".jpeg") else f"image/{suffix[1:]}"
        payload = {
            "model": self.config.model,
            "max_tokens": self.config.max_tokens,
            "temperature": self.config.temperature,
            "messages": [
                {
                    "role": "user",
                    "content": [
                        {"type": "text",
                         "text": "Describe this picture in natural language, in one dense paragraph."},
                        {"type": "image_url",
                         "image_url": {"url": f"data:{mime};base64,{encoded}"}},
                    ],
                },
            ],
        }
        return self._send(payload)
