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
from typing import Mapping, Sequence, Union
from urllib.parse import urlsplit

from .errors import DivedError

logger = logging.getLogger(__name__)


class TemplateId(str, Enum):
    DEFINITION_CURATION = "definition_curation"
    SAMPLE_CURATION = "sample_curation"
    DEFINITION_EXPANSION = "definition_expansion"


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
def _load_template(template_id: TemplateId) -> str:
    return resources.files("dived").joinpath("templates", f"{template_id.value}.txt").read_text(encoding="utf-8")


def render(template_id: TemplateId, variables: Mapping[str, str]) -> str:
    """Substitute {name} placeholders in the named template.

    Pure placeholder substitution in one pass: bytes outside placeholders
    are untouched, and a value that holds ``{name}`` text goes in as it is.
    Raises MissingPlaceholderError listing every unbound placeholder.
    """
    text = _load_template(TemplateId(template_id))
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


DEFAULT_MAX_IN_FLIGHT = 4  # a backend's max_in_flight unless it sets its own, and --max-in-flight's default
DEFAULT_RETRY_LIMIT = 3  # a backend's retry_limit unless it sets its own, and --retry-limit's default


class Backend:
    """Interface for text-generation backends.

    A backend carries its own batch limits: complete_batch runs up to
    ``max_in_flight`` calls at once and retries a transient failure up to
    ``retry_limit`` times. Above 1, the calls run on worker threads, so a
    backend that waits on something outside the process, such as a server,
    must be safe to call from multiple threads. A backend that only computes
    sets ``max_in_flight = 1``, and each batch runs on the calling thread.
    """

    max_in_flight = DEFAULT_MAX_IN_FLIGHT
    retry_limit = DEFAULT_RETRY_LIMIT

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


def mock_generate(seed: int, request: GenRequest) -> str:
    """Deterministic stand-in for a generation API: the reply text.

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

    return "\n".join(lines)


class MockBackend(Backend):
    """Offline backend: wraps mock_generate with a fixed seed; it only computes."""

    max_in_flight = 1

    def __init__(self, seed: int = 0):
        self.seed = seed

    def generate(self, request: GenRequest) -> str:
        return mock_generate(self.seed, request)


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


API_KEY_ENV = "DIVED_API_KEY"  # the environment variable that holds the credential
REQUEST_TIMEOUT_S = 60.0  # seconds; each request's socket timeout


@dataclass
class HttpBackend(Backend):
    """Chat-completion style JSON-over-HTTP backend.

    Reads the credential from the environment variable API_KEY_ENV at request
    time so batches fail fast with a configuration error. An endpoint that is
    not an absolute http(s) URL with a host is rejected when the backend is
    built. Proxies are read from ``HTTP(S)_PROXY`` then too, ``NO_PROXY`` on
    each request. max_in_flight and retry_limit are the server's limits.
    """

    endpoint: str
    model: str
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT
    retry_limit: int = DEFAULT_RETRY_LIMIT

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
        api_key = os.environ.get(API_KEY_ENV)
        if not api_key:
            raise BackendConfigError(f"environment variable {API_KEY_ENV} is not set")
        prompt = render(request.template_id, request.variables)
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
                resp = self._opener.open(req, timeout=REQUEST_TIMEOUT_S)
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


BACKOFF_BASE_S = 0.5  # seconds; the first wait without a usable Retry-After, doubled before each later retry
MAX_RETRY_AFTER = 300.0  # seconds; a server that asks for a longer wait fails the request
MAX_IN_FLIGHT = 64  # the most requests in flight at once, each on its own thread
MAX_RETRY_LIMIT = 10  # the most retries per request


def complete_batch(requests_: Sequence[GenRequest], backend: Backend) -> list[BatchResult]:
    """Run requests and return one result per request, in request order.

    Up to ``backend.max_in_flight`` requests run at once, each on a worker
    thread; with 1, they run one after another on the calling thread.
    Transient failures are retried up to ``backend.retry_limit`` extra
    attempts. Before each retry it waits the server's ``Retry-After`` when the
    error carries one (0 retries at once), and otherwise
    BACKOFF_BASE_S * 2**(attempt - 1) seconds (no jitter, for
    reproducibility). A ``Retry-After`` above MAX_RETRY_AFTER ends the request
    at that attempt, without a wait. A request that still fails yields a
    GenFailure in its slot instead of aborting the batch.
    A max_in_flight outside 1..MAX_IN_FLIGHT or a retry_limit outside
    0..MAX_RETRY_LIMIT raises ValueError before any request starts.
    """
    max_in_flight, retry_limit = backend.max_in_flight, backend.retry_limit
    if not (1 <= max_in_flight <= MAX_IN_FLIGHT and 0 <= retry_limit <= MAX_RETRY_LIMIT):
        raise ValueError(f"max_in_flight must be 1 to {MAX_IN_FLIGHT} and retry_limit 0 to {MAX_RETRY_LIMIT},"
                         f" not {max_in_flight} and {retry_limit}")

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
                    delay = BACKOFF_BASE_S * (2 ** (attempts - 1))
                elif delay > MAX_RETRY_AFTER:
                    error = f"{exc}: Retry-After {delay:g} s is above the {MAX_RETRY_AFTER:g} s cap"
                    logger.warning("request failed: %s", error)
                    return GenFailure(error=error, attempts=attempts)
                if delay > 0:
                    time.sleep(delay)
            except PermanentBackendError as exc:
                logger.warning("request failed permanently: %s", exc)
                return GenFailure(error=str(exc), attempts=attempts)

    workers = min(max_in_flight, len(requests_))
    if workers <= 1:  # also an empty batch, which gets []
        return [run_one(r) for r in requests_]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_one, requests_))
