"""Pluggable text-generation backend.

Provides prompt templates as named slots, request/response types, a
bounded-concurrency batch executor with retries, an HTTP chat-completion
backend, and a deterministic mock backend whose output is format-valid for
every downstream parser, so the whole pipeline is testable offline.

The HTTP backend uses only the standard library (``urllib.request``), so
importing this module loads no third-party HTTP stack. Each request opens
its own connection; HTTPS verifies against the system CA store through
``ssl.create_default_context``; proxies come from ``HTTP(S)_PROXY`` and
``NO_PROXY``. The credential is never sent on to a redirect's target.
"""

from __future__ import annotations

import functools
import http.client
import json
import logging
import os
import random
import re
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence, Union
from urllib.parse import urlsplit

from .errors import DivedError

logger = logging.getLogger(__name__)


class TemplateId(str, Enum):
    DEFINITION_CURATION = "definition_curation"
    SAMPLE_CURATION = "sample_curation"
    DEFINITION_EXPANSION = "definition_expansion"


class TemplateNotFoundError(DivedError):
    pass


class MissingPlaceholderError(DivedError):
    """A template placeholder has no bound variable; lists all unbound names."""

    def __init__(self, names: Sequence[str]):
        self.names = sorted(names)
        super().__init__("unbound template placeholders: " + ", ".join(self.names))


class BackendConfigError(DivedError):
    """The backend is not usable as configured (e.g. missing credential)."""


class TransientBackendError(DivedError):
    """Retryable failure: rate limit, server error, network error.

    ``retry_after`` is the wait in seconds the server asked for, or None.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class PermanentBackendError(DivedError):
    """Non-retryable failure: client error or malformed response."""


# The request payload's decoding fields per template, in payload order.
# Curation wants consistent output, expansion wants diversity.
DEFAULT_DECODING: dict[TemplateId, dict[str, float | int]] = {
    TemplateId.DEFINITION_CURATION: {"temperature": 0.7, "max_tokens": 2048},
    TemplateId.SAMPLE_CURATION: {"temperature": 0.7, "max_tokens": 4096},
    TemplateId.DEFINITION_EXPANSION: {"temperature": 1.0, "max_tokens": 2048},
}


@dataclass(frozen=True)
class GenRequest:
    template_id: TemplateId
    variables: Mapping[str, str]


@dataclass(frozen=True)
class GenResponse:
    text: str
    attempts: int


@dataclass(frozen=True)
class GenFailure:
    """Per-request failure record produced by complete_batch."""

    error: str
    attempts: int


BatchResult = Union[GenResponse, GenFailure]

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


@functools.cache
def _load_template(template_id: TemplateId, templates_dir: str | Path | None) -> str:
    if templates_dir is not None:
        path = Path(templates_dir) / f"{template_id.value}.txt"
        if not path.is_file():
            raise TemplateNotFoundError(f"no template file {path}")
        return path.read_text(encoding="utf-8")
    ref = resources.files("dived").joinpath("templates", f"{template_id.value}.txt")
    try:
        return ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise TemplateNotFoundError(f"no packaged template {template_id.value!r}") from None


def render(
    template_id: TemplateId,
    variables: Mapping[str, str],
    templates_dir: str | Path | None = None,
) -> str:
    """Substitute {name} placeholders in the named template.

    Pure placeholder substitution: bytes outside placeholders are untouched.
    Raises MissingPlaceholderError listing every unbound placeholder.
    """
    text = _load_template(TemplateId(template_id), templates_dir)
    placeholders = set(_PLACEHOLDER_RE.findall(text))
    missing = placeholders - set(variables)
    if missing:
        raise MissingPlaceholderError(sorted(missing))
    return _PLACEHOLDER_RE.sub(lambda m: str(variables[m.group(1)]), text)


# In-context examples for the generation steps, one per template. These are
# data, like the templates: override by binding your own "example" variable.
DEFAULT_EXAMPLES: dict[TemplateId, str] = {
    TemplateId.DEFINITION_CURATION: (
        "Ontology:\n"
        "justice\n"
        "  arrest\n"
        "  pardon\n"
        "Definitions:\n"
        "justice\tdefinition: A legal or judicial action carried out as part of a formal legal process.\n"
        "arrest\tdefinition: Law enforcement takes a person into custody, usually on suspicion of a crime.\n"
        "pardon\tdefinition: An authority formally forgives a convicted person and lifts their sentence."
    ),
    TemplateId.SAMPLE_CURATION: (
        "Event type: arrest (Law enforcement takes a person into custody.)\n"
        "arrest\tsentence: Police detained the suspect outside the courthouse on Friday.\n"
        "arrest\ttrigger: detained\n"
        "arrest\tsentence: Officers apprehended two men after a chase through downtown.\n"
        "arrest\ttrigger: apprehended"
    ),
    TemplateId.DEFINITION_EXPANSION: (
        "Event type: arrest\n"
        "Definition: Law enforcement takes a person into custody.\n"
        "arrest\tparaphrase: A person is detained by police or another legal authority.\n"
        "arrest\tparaphrase: The act of taking someone into custody, typically on suspicion of a crime."
    ),
}


class Backend:
    """Interface for text-generation backends.

    ``waits_on_io`` says whether ``generate`` waits on something outside the
    process, such as a server. complete_batch then runs up to max_in_flight
    calls at once on worker threads, so such a backend must be safe to call
    from multiple threads. A backend that sets it to False only computes, and
    each batch runs on the calling thread.
    """

    waits_on_io = True

    def generate(self, request: GenRequest) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Deterministic mock backend
# ---------------------------------------------------------------------------

_MOCK_VERBS = [
    "struck", "marched", "bargained", "toppled", "signed", "fled",
    "gathered", "erupted", "crowned", "vetoed", "audited", "paraded",
    "chanted", "rallied", "seized", "bombed", "looted", "drafted",
    "spiked", "merged", "docked", "sailed", "hiked", "farmed",
]
_MOCK_PREFIXES = ["", "re", "mis", "over", "under", "out", "pre", "co", "de", "non"]
_MOCK_SUBJECTS = ["Officials", "Witnesses", "Reporters", "Villagers", "Analysts", "Neighbours"]
_MOCK_OBJECTS = ["crowd", "convoy", "market", "council", "factory", "harbour", "crew", "delegation"]
_MOCK_PLACES = ["the capital", "the border town", "the old square", "the northern district", "the port", "the stadium"]
_MOCK_DAYS = ["Monday", "Tuesday", "Friday", "Saturday", "Sunday morning", "late evening"]
_MOCK_ROLES = ["person", "group", "vehicle", "company", "community", "state actor"]
_MOCK_ACTS = [
    "changes the status of another party",
    "moves something of value between places",
    "alters the physical state of an object",
    "commits to a future course of action",
    "comes into open confrontation with others",
    "transfers control or ownership to someone else",
    "makes a public declaration with consequences",
    "causes other people to change location",
]
_MOCK_PARAPHRASE_FORMS = [
    "{event} covers cases where {clause}",
    "a {event} event is one in which {clause}",
    "any situation where {clause} counts as {event}",
    "whenever {clause}, the mention is labelled {event}",
    "an episode qualifies as {event} when {clause}",
    "in short, {event} means that {clause}",
    "{event} refers to moments when {clause}",
    "the label {event} applies whenever {clause}",
    "annotators mark {event} if {clause}",
    "{event} is recorded when {clause}",
    "a mention counts as {event} once {clause}",
    "{event} denotes instances where {clause}",
]


def _event_list(raw: str) -> list[str]:
    """Event names from an 'events' variable: one name per line (indented tree
    accepted); a name may contain a comma. The request builders send unique names."""
    return [ln.strip() for ln in raw.splitlines() if ln.strip()] or ["event"]


def _mock_rng(seed: int, request: GenRequest) -> random.Random:
    canonical = json.dumps(sorted((str(k), str(v)) for k, v in request.variables.items()), ensure_ascii=False)
    return random.Random(f"{seed}::{request.template_id.value}::{canonical}")


def _mock_bases(rng: random.Random, events: list[str]) -> list[str]:
    if len(events) <= len(_MOCK_VERBS):
        return rng.sample(_MOCK_VERBS, len(events))
    return [f"{_MOCK_VERBS[i % len(_MOCK_VERBS)]}{i // len(_MOCK_VERBS)}" for i in range(len(events))]


def mock_generate(seed: int, request: GenRequest) -> GenResponse:
    """Deterministic stand-in for a generation API.

    The output is a pure function of (seed, template_id, variables) and always
    parses under the grammar of the corresponding pipeline step: sample
    triggers are guaranteed substrings of their sentences, and triggers of
    different event types in one request never overlap.
    """
    rng = _mock_rng(seed, request)
    variables = request.variables
    lines: list[str]

    if request.template_id is TemplateId.DEFINITION_CURATION:
        events = _event_list(variables.get("events", "event"))
        lines = ["Here are the definitions for the requested ontology:"]
        for event in events:
            role = rng.choice(_MOCK_ROLES)
            act = rng.choice(_MOCK_ACTS)
            lines.append(f"{event}\tdefinition: An occurrence in which a {role} {act}, characteristic of {event}.")
    elif request.template_id is TemplateId.SAMPLE_CURATION:
        events = _event_list(variables.get("events", "event"))
        count = int(variables.get("count", "10"))
        bases = _mock_bases(rng, events)
        lines = ["Here are the generated samples:"]
        for event, base in zip(events, bases):
            for i in range(count):
                prefix = _MOCK_PREFIXES[i] if i < len(_MOCK_PREFIXES) else f"{_MOCK_PREFIXES[i % len(_MOCK_PREFIXES)]}{i}"
                trigger = f"{prefix}{base}"
                subject = rng.choice(_MOCK_SUBJECTS)
                obj = rng.choice(_MOCK_OBJECTS)
                place = rng.choice(_MOCK_PLACES)
                day = rng.choice(_MOCK_DAYS)
                sentence = f"{subject} reported that the {obj} {trigger} near {place} on {day}."
                lines.append(f"{event}\tsentence: {sentence}")
                lines.append(f"{event}\ttrigger: {trigger}")
    elif request.template_id is TemplateId.DEFINITION_EXPANSION:
        event = variables.get("event", "event").strip() or "event"
        count = int(variables.get("count", "10"))
        lines = [f"Here are the paraphrases for {event}:"]
        for i in range(count):
            form = _MOCK_PARAPHRASE_FORMS[i % len(_MOCK_PARAPHRASE_FORMS)]
            clause = f"a {rng.choice(_MOCK_ROLES)} {rng.choice(_MOCK_ACTS)}"
            text = form.format(event=event, clause=clause)
            text = text[0].upper() + text[1:] + "."
            if i >= len(_MOCK_PARAPHRASE_FORMS):
                text += f" (variant {i + 1})"
            lines.append(f"{event}\tparaphrase: {text}")
    else:  # pragma: no cover - TemplateId is closed
        raise ValueError(f"unknown template id {request.template_id!r}")

    return GenResponse(text="\n".join(lines), attempts=1)


class MockBackend(Backend):
    """Offline backend: wraps mock_generate with a fixed seed."""

    waits_on_io = False

    def __init__(self, seed: int = 0):
        self.seed = seed

    def generate(self, request: GenRequest) -> str:
        return mock_generate(self.seed, request).text


# ---------------------------------------------------------------------------
# HTTP backend
# ---------------------------------------------------------------------------


def _parse_retry_after(value: str | None) -> float | None:
    """Seconds to wait from a ``Retry-After`` header: delay-seconds or an
    HTTP-date (a date in the past means 0). None when absent or unparseable."""
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        return float(value)
    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:  # "-0000": UTC with no claim about local time
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


@dataclass
class HttpBackend(Backend):
    """Chat-completion style JSON-over-HTTP backend.

    Reads the credential from the environment (``DIVED_API_KEY`` by default)
    at request time so batches fail fast with a configuration error. An
    endpoint that is not an absolute http(s) URL with a host is rejected when
    the backend is built. Proxies are read from ``HTTP(S)_PROXY`` then too,
    ``NO_PROXY`` on each request.
    """

    endpoint: str
    model: str
    api_key_env: str = "DIVED_API_KEY"
    timeout: float = 60.0
    templates_dir: str | None = None

    def __post_init__(self) -> None:
        try:  # .port raises ValueError on a port that is not a number up to 65535
            url = urlsplit(self.endpoint)
            valid = url.scheme in ("http", "https") and bool(url.hostname) and url.port != 0
        except ValueError:
            valid = False
        if not valid:
            raise BackendConfigError(f"endpoint {self.endpoint!r} is not an absolute http:// or https:// URL with a host")
        self._opener = urllib.request.build_opener()

    def generate(self, request: GenRequest) -> str:
        api_key = os.environ.get(self.api_key_env)
        if not api_key:
            raise BackendConfigError(f"environment variable {self.api_key_env} is not set")
        prompt = render(request.template_id, request.variables, self.templates_dir)
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            **DEFAULT_DECODING[request.template_id],
        }
        req = urllib.request.Request(self.endpoint, data=json.dumps(payload).encode())
        req.add_header("Content-Type", "application/json")
        req.add_unredirected_header("Authorization", f"Bearer {api_key}")  # never sent on to a redirect's target
        try:
            try:
                resp = self._opener.open(req, timeout=self.timeout)
            except urllib.error.HTTPError as exc:  # a 3xx-5xx reply; it reads like a response
                resp = exc
            with resp:
                status, body = resp.status, resp.read()
        except (OSError, http.client.HTTPException) as exc:  # OSError covers URLError and timeouts
            raise TransientBackendError(f"network error: {exc}") from exc
        if status == 429 or status >= 500:
            raise TransientBackendError(f"HTTP {status}", retry_after=_parse_retry_after(resp.headers.get("Retry-After")))
        if status >= 300:  # a 4xx, or a redirect urllib does not follow for a POST (307, 308)
            raise PermanentBackendError(f"HTTP {status}: {body.decode('utf-8', 'replace')[:200]}")
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise PermanentBackendError(f"malformed response body: {exc}") from exc
        if not isinstance(content, str):
            raise PermanentBackendError(f"malformed response body: content is {type(content).__name__}, not a string")
        return content


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------


MAX_RETRY_AFTER = 300.0  # seconds; a server that asks for a longer wait fails the request
MAX_IN_FLIGHT = 64  # the most requests in flight at once, each on its own thread
MAX_RETRY_LIMIT = 10  # the most retries per request


def complete_batch(
    requests_: Sequence[GenRequest],
    backend: Backend,
    max_in_flight: int = 4,
    retry_limit: int = 3,
    backoff_base: float = 0.5,
) -> list[BatchResult]:
    """Run requests and return one result per request, in request order.

    For a backend that waits on I/O (``backend.waits_on_io``), up to
    max_in_flight requests run at once, each on a worker thread. Any other
    backend's requests run one after another on the calling thread, since
    threads would overlap no waiting; max_in_flight is then only checked.
    Transient failures are retried up to retry_limit extra attempts. Before
    each retry it waits the server's ``Retry-After`` when the error carries
    one (0 retries at once), and otherwise backoff_base * 2**(attempt - 1)
    seconds (no jitter, for reproducibility). A ``Retry-After`` above
    MAX_RETRY_AFTER ends the request at that attempt, without a wait. A
    request that still fails yields a GenFailure in its slot instead of
    aborting the batch.
    Configuration errors are raised immediately.
    """
    if max_in_flight < 1:
        raise ValueError("max_in_flight must be a positive integer")
    if retry_limit < 0:
        raise ValueError("retry_limit must not be negative")
    if not requests_:
        return []

    def run_one(request: GenRequest) -> BatchResult:
        attempts = 0
        while True:
            attempts += 1
            try:
                text = backend.generate(request)
                return GenResponse(text=text, attempts=attempts)
            except TransientBackendError as exc:
                if attempts > retry_limit:
                    logger.warning("request failed after %d attempts: %s", attempts, exc)
                    return GenFailure(error=str(exc), attempts=attempts)
                delay = exc.retry_after
                if delay is None:
                    delay = backoff_base * (2 ** (attempts - 1))
                elif delay > MAX_RETRY_AFTER:
                    error = f"{exc}: Retry-After {delay:g} s is above the {MAX_RETRY_AFTER:g} s cap"
                    logger.warning("request failed: %s", error)
                    return GenFailure(error=error, attempts=attempts)
                if delay > 0:
                    time.sleep(delay)
            except PermanentBackendError as exc:
                logger.warning("request failed permanently: %s", exc)
                return GenFailure(error=str(exc), attempts=attempts)

    workers = min(max_in_flight, len(requests_)) if backend.waits_on_io else 1
    if workers == 1:
        return [run_one(r) for r in requests_]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_one, requests_))
