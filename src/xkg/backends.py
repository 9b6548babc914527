"""Completion backends: a generic HTTP client and deterministic mocks.

The enrichment stage is model-agnostic; a backend is anything with a
``complete(request) -> str`` method (and ``describe(image, mime) -> str``, for
the multimodal description step, given the image's bytes and MIME type). A
request carries only the prompt texts and a tag; the backend's own config
sets the model, token budget and temperature of every call. The HTTP
backend posts an OpenAI-style chat payload, retries transport failures with
capped exponential back-off (or after the seconds a 429 or 503 response's
``Retry-After`` asks for), and keeps at most ``max_concurrent`` requests in
flight however many threads call it; mocks replay canned responses keyed by
the request tag so the whole pipeline runs offline and byte-stable.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import threading
import time
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Optional, Protocol, Union

logger = logging.getLogger(__name__)


class BackendError(Exception):
    """Base class for completion backend failures."""


class TransportError(BackendError):
    """Network or server failure that survived all retries."""


class AuthError(BackendError):
    """Credential rejected; never retried."""


#: The most retries a config may ask for (``load_config`` rejects more).
MAX_RETRIES = 10
#: The first back-off, in seconds; each retry doubles it up to the ceiling.
FIRST_BACKOFF_S = 0.5
#: The ceiling of one back-off, in seconds.
MAX_BACKOFF_S = 30.0


class BackendConfig(NamedTuple):
    """How to reach a live model.

    ``retries`` is the number of retries after a first failed attempt (at
    most ``MAX_RETRIES`` in a loaded config), each after a back-off of
    ``FIRST_BACKOFF_S`` doubled per retry up to ``MAX_BACKOFF_S``, or after
    the seconds that a 429 or 503 response's ``Retry-After`` gives, capped at
    ``MAX_BACKOFF_S``.
    ``max_concurrent`` bounds the requests one ``HttpBackend`` has in flight
    at once, whoever calls it; a back-off or the decoding of a response
    holds no slot. ``model``, ``temperature`` and ``max_tokens`` go into
    every request ``HttpBackend`` posts.
    """

    endpoint: str = ""
    model: str = ""
    credential_env: str = "XKG_API_KEY"
    timeout: float = 60.0
    retries: int = 3
    max_concurrent: int = 4
    temperature: float = 0.0
    max_tokens: int = 2048


class Backend(Protocol):
    """What the pipeline calls: ``complete`` for a heuristic's prompt,
    ``describe`` for an image's bytes and MIME type, which
    ``pipeline.describe`` has checked and read; a backend opens no file.

    ``run_all`` may call ``complete`` from as many threads as there are
    heuristics at once, so a backend that waits on a remote service bounds
    its own requests in flight, as ``HttpBackend`` does with
    ``BackendConfig.max_concurrent``.
    """

    def complete(self, request) -> str: ...

    def describe(self, image: bytes, mime: str) -> str: ...


class MappingBackend:
    """Deterministic mock keyed by the request tag (the heuristic name); it
    keeps no request, as each prompt embeds the whole base graph's text."""

    def __init__(self, responses: Mapping[str, str], description: str = ""):
        self.responses = dict(responses)
        self.description = description

    def complete(self, request) -> str:
        tag = getattr(request, "tag", None)
        if tag not in self.responses:
            raise TransportError(f"no canned response for {tag!r}")
        return self.responses[tag]

    def describe(self, image: bytes, mime: str) -> str:
        if not self.description:
            raise TransportError("no canned image description")
        return self.description


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise BackendError(f"cannot read {path}: {exc}")


class MockBackend(MappingBackend):
    """Mock backed by a directory of ``<heuristic>.ttl`` canned responses.

    An optional ``description.txt`` serves the multimodal description
    step. A file that cannot be read as UTF-8 raises BackendError.
    """

    def __init__(self, directory: Union[str, Path]):
        directory = Path(directory)
        if not directory.is_dir():
            raise FileNotFoundError(f"mock directory not found: {directory}")
        responses = {path.stem: _read_text(path) for path in sorted(directory.glob("*.ttl"))}
        description_file = directory / "description.txt"
        description = _read_text(description_file) if description_file.exists() else ""
        super().__init__(responses, description)


def _default_post(url: str, payload: dict, headers: dict, timeout: float):
    import requests

    return requests.post(url, json=payload, headers=headers, timeout=timeout)


def _retry_after(response) -> Optional[float]:
    """The delay a response's ``Retry-After`` header gives in seconds, capped
    at ``MAX_BACKOFF_S``; None without one in seconds (an HTTP-date, say).
    A response without ``headers`` has none."""
    headers = getattr(response, "headers", None)
    value = headers.get("Retry-After") if headers is not None else None
    if isinstance(value, str) and value.strip().isdigit() and value.isascii():
        return min(float(value), MAX_BACKOFF_S)
    return None


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
    """Minimal JSON-over-HTTP chat-completion client with retry.

    Safe to call from many threads: a bounded semaphore of
    ``config.max_concurrent`` slots is held around each ``post`` alone, so
    at most that many requests are in flight, and a thread in back-off or
    decoding a response leaves its slot to the next request.
    """

    def __init__(self, config: BackendConfig,
                 post: Optional[Callable] = None,
                 sleep: Callable[[float], None] = time.sleep):
        if not config.endpoint:
            raise ValueError("backend endpoint is not configured")
        if config.max_concurrent < 1:
            raise ValueError(f"max_concurrent must be positive, found {config.max_concurrent!r}")
        self.config = config
        self._post = post or _default_post
        self._sleep = sleep
        self._slots = threading.BoundedSemaphore(config.max_concurrent)

    def _credential(self) -> str:
        value = os.environ.get(self.config.credential_env, "")
        if not value:
            raise AuthError(f"environment variable {self.config.credential_env} is not set")
        return value

    def _send(self, messages: list) -> str:
        """Post ``messages`` under the configured model, budget and
        temperature, with retries; the completion text."""
        payload = {
            "model": self.config.model,
            "max_tokens": self.config.max_tokens,
            "temperature": self.config.temperature,
            "messages": messages,
        }
        headers = {
            "Authorization": f"Bearer {self._credential()}",
            "Content-Type": "application/json",
        }
        last_error: Optional[BackendError] = None
        attempts = self.config.retries + 1
        delay = FIRST_BACKOFF_S
        asked: Optional[float] = None  # the last attempt's Retry-After
        for attempt in range(1, attempts + 1):
            if attempt > 1:
                wait = delay if asked is None else asked
                logger.debug("attempt %d of %d failed (%s); retrying in %.1fs",
                             attempt - 1, attempts, reason, wait)
                self._sleep(wait)
                delay = min(2 * delay, MAX_BACKOFF_S)
                asked = None
            try:
                with self._slots:
                    response = self._post(self.config.endpoint, payload, headers,
                                          self.config.timeout)
            except Exception as exc:  # transport-level failure
                reason = f"{type(exc).__name__}: {exc}"
                last_error = TransportError(str(exc))
                continue
            # Yield the interpreter lock, so that the thread woken for the
            # slot sends its request now rather than after this one has
            # decoded and parsed its response (up to the switch interval).
            time.sleep(0)
            status = getattr(response, "status_code", 0)
            if status in (401, 403):
                raise AuthError(f"credential rejected (HTTP {status})")
            if status == 429 or status >= 500:
                reason = f"HTTP {status}"
                last_error = TransportError(reason)
                if status == 429 or status == 503:
                    asked = _retry_after(response)
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
        return self._send([
            {"role": "system", "content": request.system_text},
            {"role": "user", "content": request.user_text},
        ])

    def describe(self, image: bytes, mime: str) -> str:
        encoded = base64.b64encode(image).decode("ascii")
        return self._send([
            {
                "role": "user",
                "content": [
                    {"type": "text",
                     "text": "Describe this picture in natural language, in one dense paragraph."},
                    {"type": "image_url",
                     "image_url": {"url": f"data:{mime};base64,{encoded}"}},
                ],
            },
        ])
