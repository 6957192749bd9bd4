from __future__ import annotations

import json
import socket
import threading
import time
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from dived import llm_client
from dived.cli import main, manifest_path
from dived.curation import parse_samples
from dived.llm_client import (
    DEFAULT_DECODING,
    BackendConfigError,
    GenFailure,
    GenRequest,
    GenResponse,
    HttpBackend,
    MissingPlaceholderError,
    MockBackend,
    PermanentBackendError,
    TemplateId,
    complete_batch,
    mock_generate,
    render,
)

from conftest import TOY_ONTOLOGY, ScriptedBackend, WaitingMockBackend


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def test_render_substitutes_each_placeholder_once():
    prompt = render(TemplateId.DEFINITION_CURATION, {"events": "attack, protest", "example": "<ICE>"})
    assert prompt.count("attack, protest") == 1
    assert prompt.count("<ICE>") == 1
    assert "{events}" not in prompt and "{example}" not in prompt


def test_render_missing_placeholder_lists_unbound_names():
    with pytest.raises(MissingPlaceholderError) as err:
        render(TemplateId.DEFINITION_CURATION, {"events": "attack"})
    assert err.value.names == ["example"]


def test_render_is_deterministic():
    variables = {"events": "a\n  b", "example": "E"}
    assert render(TemplateId.DEFINITION_CURATION, variables) == render(TemplateId.DEFINITION_CURATION, variables)


def test_render_inserts_placeholder_text_in_a_value_as_is():
    """One pass: a value holding ``{example}`` or ``{UPPER}`` is not filled in again."""
    events = "a {example} b {UPPER} c {events}"
    prompt = render(TemplateId.DEFINITION_CURATION, {"events": events, "example": "E"})
    plain = render(TemplateId.DEFINITION_CURATION, {"events": "<EVENTS>", "example": "E"})
    assert prompt == plain.replace("<EVENTS>", events)
    assert prompt.count("{example}") == 1 and prompt.count("{UPPER}") == 1


def test_default_decoding_defaults():
    assert DEFAULT_DECODING[TemplateId.DEFINITION_CURATION]["temperature"] == 0.7
    assert DEFAULT_DECODING[TemplateId.DEFINITION_EXPANSION]["temperature"] == 1.0


# ---------------------------------------------------------------------------
# mock backend
# ---------------------------------------------------------------------------


def _sample_request(events: str = "attack\nprotest", count: str = "10") -> GenRequest:
    return GenRequest(TemplateId.SAMPLE_CURATION, {"events": events, "count": count, "definitions": "", "example": ""})


def test_mock_deterministic_for_same_seed_and_request():
    req = _sample_request()
    assert isinstance(mock_generate(3, req), str)
    assert mock_generate(3, req) == mock_generate(3, req)


def test_mock_differs_across_seeds():
    req = _sample_request()
    assert mock_generate(1, req) != mock_generate(2, req)


def test_mock_sample_output_parses_to_exact_counts():
    events = ["attack", "protest", "bombing"]
    req = _sample_request(events="\n".join(events))
    text = mock_generate(9, req)
    parses = parse_samples(text, events, per_event=10)
    for event in events:
        assert parses[event].score == len(parses[event].value) == 10
        assert parses[event].dropped == 0
        for sample in parses[event].value:
            assert sample.trigger in sample.sentence


def test_mock_triggers_disjoint_across_events_in_one_request():
    events = ["attack", "protest", "bombing", "ambush"]
    req = _sample_request(events="\n".join(events))
    parses = parse_samples(mock_generate(5, req), events, per_event=10)
    seen: dict[str, set[str]] = {e: {s.trigger for s in parses[e].value} for e in events}
    for a in events:
        for b in events:
            if a != b:
                assert not (seen[a] & seen[b])


def test_mock_definition_output_covers_all_events():
    events = ["attack", "protest"]
    req = GenRequest(TemplateId.DEFINITION_CURATION, {"events": "attack\nprotest", "example": ""})
    text = mock_generate(4, req)
    for event in events:
        assert f"{event}\tdefinition: " in text


def test_mock_expansion_emits_distinct_paraphrases():
    req = GenRequest(
        TemplateId.DEFINITION_EXPANSION,
        {"event": "attack", "definition": "seed", "ontology": "", "count": "10", "example": ""},
    )
    lines = [ln for ln in mock_generate(2, req).splitlines() if "\tparaphrase: " in ln]
    assert len(lines) == 10
    assert len(set(lines)) == 10


# ---------------------------------------------------------------------------
# complete_batch
# ---------------------------------------------------------------------------


def test_complete_batch_preserves_request_order():
    requests = [_sample_request(events=f"event{i}") for i in range(5)]
    results = complete_batch(requests, MockBackend(seed=1), max_in_flight=2)
    assert len(results) == 5
    for i, result in enumerate(results):
        assert isinstance(result, GenResponse)
        assert f"event{i}\t" in result.text


def test_complete_batch_mock_independent_of_max_in_flight():
    requests = [_sample_request(events=f"event{i}") for i in range(8)]
    one = complete_batch(requests, MockBackend(seed=3), max_in_flight=1)
    eight = complete_batch(requests, MockBackend(seed=3), max_in_flight=8)
    assert [r.text for r in one] == [r.text for r in eight]


def test_complete_batch_waiting_mock_independent_of_max_in_flight(thread_starts):
    requests = [_sample_request(events=f"event{i}") for i in range(8)]
    one = complete_batch(requests, WaitingMockBackend(seed=3), max_in_flight=1)
    assert thread_starts == []
    eight = complete_batch(requests, WaitingMockBackend(seed=3), max_in_flight=8)
    assert thread_starts, "a batch of 8 on a backend that waits runs on worker threads"
    on_caller = complete_batch(requests, MockBackend(seed=3), max_in_flight=8)
    assert [r.text for r in one] == [r.text for r in eight] == [r.text for r in on_caller]


def test_complete_batch_rejects_bad_max_in_flight():
    with pytest.raises(ValueError):
        complete_batch([_sample_request()], MockBackend(seed=0), max_in_flight=0)


def test_complete_batch_rejects_a_negative_retry_limit():
    with pytest.raises(ValueError, match="retry_limit"):
        complete_batch([_sample_request()], MockBackend(seed=0), retry_limit=-1)


class _ThreadRecordingBackend(llm_client.Backend):
    """Replies "ok" and records the thread of every call."""

    def __init__(self, waits_on_io: bool):
        self.waits_on_io = waits_on_io
        self.threads: list[int] = []

    def generate(self, request):
        self.threads.append(threading.get_ident())
        return "ok"


def test_a_backend_that_does_not_wait_runs_every_call_on_the_calling_thread(thread_starts):
    backend = _ThreadRecordingBackend(waits_on_io=False)
    results = complete_batch([_sample_request()] * 6, backend, max_in_flight=8)
    assert [r.text for r in results] == ["ok"] * 6
    assert backend.threads == [threading.get_ident()] * 6
    assert thread_starts == []


def test_a_one_request_batch_starts_no_thread(thread_starts):
    backend = _ThreadRecordingBackend(waits_on_io=True)
    assert complete_batch([_sample_request()], backend, max_in_flight=4)[0].text == "ok"
    assert backend.threads == [threading.get_ident()]
    assert thread_starts == []


def test_a_waiting_backend_has_max_in_flight_calls_in_flight_at_once():
    """Three calls meet at a barrier, so three run at once; the calls run on
    three threads, so no more than three do."""
    barrier = threading.Barrier(3, timeout=10)
    lock = threading.Lock()
    state = {"calls": 0, "in_flight": 0, "peak": 0}
    threads: set[int] = set()

    class Waiting(llm_client.Backend):
        def generate(self, request):
            with lock:
                call = state["calls"]
                state["calls"] += 1
                state["in_flight"] += 1
                state["peak"] = max(state["peak"], state["in_flight"])
                threads.add(threading.get_ident())
            if call < 3:
                barrier.wait()
            with lock:
                state["in_flight"] -= 1
            return f"ok-{call}"

    results = complete_batch([_sample_request()] * 7, Waiting(), max_in_flight=3)
    assert all(isinstance(r, GenResponse) for r in results)
    assert state["calls"] == 7
    assert state["peak"] == 3
    assert len(threads) == 3


def test_complete_batch_scripted_failure_does_not_abort_batch():
    from dived.llm_client import PermanentBackendError

    backend = ScriptedBackend(["ok-1", PermanentBackendError("HTTP 400"), "ok-3"])
    results = complete_batch([_sample_request()] * 3, backend, max_in_flight=1)
    assert isinstance(results[0], GenResponse) and results[0].text == "ok-1"
    assert isinstance(results[1], GenFailure) and "400" in results[1].error
    assert isinstance(results[2], GenResponse) and results[2].text == "ok-3"


def test_complete_batch_retries_transient_then_succeeds(sleeps):
    from dived.llm_client import TransientBackendError

    backend = ScriptedBackend([TransientBackendError("HTTP 429"), TransientBackendError("HTTP 429"), "ok"])
    results = complete_batch([_sample_request()], backend, max_in_flight=1)
    assert isinstance(results[0], GenResponse)
    assert results[0].attempts == 3
    assert sleeps == [0.5, 1.0]


# ---------------------------------------------------------------------------
# HTTP backend against a scripted local server
# ---------------------------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    """Replays ``script`` entries of (status, body) or (status, body, headers).
    A body of bytes is sent as it is; any other body as JSON."""

    script: list[tuple] = []
    seen_payloads: list[dict] = []
    seen_bodies: list[bytes] = []
    seen_headers: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        type(self).seen_headers.append(dict(self.headers))
        body = self.rfile.read(length)
        type(self).seen_bodies.append(body)
        type(self).seen_payloads.append(json.loads(body))
        status, body, *headers = type(self).script.pop(0) if type(self).script else (500, {})
        payload = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for key, value in (headers[0] if headers else {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):  # silence test output
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    _StubHandler.script = []
    _StubHandler.seen_payloads = []
    _StubHandler.seen_bodies = []
    _StubHandler.seen_headers = []
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()
    server.server_close()
    thread.join()


def _ok_body(text: str) -> dict:
    return {"choices": [{"message": {"content": text}}]}


def test_http_backend_requires_credential(stub_server, monkeypatch):
    monkeypatch.delenv("DIVED_API_KEY", raising=False)
    backend = HttpBackend(endpoint=stub_server, model="test-model")
    with pytest.raises(BackendConfigError):
        backend.generate(_sample_request())


def test_http_backend_retries_429_then_succeeds(stub_server, monkeypatch, sleeps):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    _StubHandler.script = [(429, {}), (429, {}), (200, _ok_body("generated text"))]
    backend = HttpBackend(endpoint=stub_server, model="test-model")
    results = complete_batch([_sample_request()], backend, max_in_flight=1)
    assert isinstance(results[0], GenResponse)
    assert results[0].text == "generated text"
    assert results[0].attempts == 3
    assert sleeps == [0.5, 1.0]
    assert _StubHandler.seen_payloads[0]["model"] == "test-model"
    assert "messages" in _StubHandler.seen_payloads[0]


def test_http_backend_retry_exhaustion_yields_failure_record(stub_server, monkeypatch, sleeps):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    _StubHandler.script = [(500, {})] * 10
    backend = HttpBackend(endpoint=stub_server, model="test-model")
    results = complete_batch([_sample_request()], backend, max_in_flight=1, retry_limit=2)
    assert isinstance(results[0], GenFailure)
    assert results[0].attempts == 3  # retry limit 2 = three attempts total
    assert "500" in results[0].error
    assert sleeps == [0.5, 1.0]  # no wait after the last attempt


def test_http_backend_client_error_is_permanent(stub_server, monkeypatch, sleeps):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    _StubHandler.script = [(404, {})]
    backend = HttpBackend(endpoint=stub_server, model="test-model")
    results = complete_batch([_sample_request()], backend, max_in_flight=1, retry_limit=3)
    assert isinstance(results[0], GenFailure)
    assert results[0].attempts == 1
    assert sleeps == []


@pytest.mark.parametrize("content", [None, [{"type": "text", "text": "parts"}], 7], ids=["null", "list", "number"])
def test_http_backend_non_string_content_is_permanent(stub_server, monkeypatch, sleeps, content):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    _StubHandler.script = [(200, {"choices": [{"message": {"content": content}}]})]
    backend = HttpBackend(endpoint=stub_server, model="test-model")
    results = complete_batch([_sample_request()], backend, max_in_flight=1, retry_limit=3)
    assert isinstance(results[0], GenFailure)
    assert results[0].attempts == 1 and "content" in results[0].error
    assert sleeps == []


def test_null_content_makes_a_generation_command_exit_2(stub_server, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    _StubHandler.script = [(200, {"choices": [{"message": {"content": None}}]})] * 3  # one request per tree
    out = tmp_path / "defs.jsonl"
    code = main(["curate-defs", "--ontology", str(TOY_ONTOLOGY), "--backend", "http", "--endpoint", stub_server,
                 "--model", "m", "--out", str(out)])
    assert code == 2
    assert json.loads(manifest_path(out).read_text())["counts"] == {"events": 12, "definitions": 0, "failures": 12}


# ---------------------------------------------------------------------------
# Retry-After
# ---------------------------------------------------------------------------


def _retry_once(stub_server, monkeypatch, first: tuple) -> GenResponse:
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    _StubHandler.script = [first, (200, _ok_body("generated text"))]
    backend = HttpBackend(endpoint=stub_server, model="test-model")
    results = complete_batch([_sample_request()], backend, max_in_flight=1)
    assert isinstance(results[0], GenResponse) and results[0].attempts == 2
    return results[0]


def test_retry_after_zero_on_429_retries_at_once(stub_server, monkeypatch, sleeps):
    _retry_once(stub_server, monkeypatch, (429, {}, {"Retry-After": "0"}))
    assert sleeps in ([], [0])


def test_retry_after_seconds_on_503_sets_the_wait(stub_server, monkeypatch, sleeps):
    _retry_once(stub_server, monkeypatch, (503, {}, {"Retry-After": "2"}))
    assert sleeps == [2.0]


def test_retry_after_http_date_in_the_past_waits_zero(stub_server, monkeypatch, sleeps):
    past = format_datetime(datetime.now(timezone.utc) - timedelta(hours=1), usegmt=True)
    _retry_once(stub_server, monkeypatch, (429, {}, {"Retry-After": past}))
    assert sleeps in ([], [0])


def test_retry_after_http_date_in_the_future_waits_until_then(stub_server, monkeypatch, sleeps):
    future = format_datetime(datetime.now(timezone.utc) + timedelta(seconds=30), usegmt=True)
    _retry_once(stub_server, monkeypatch, (429, {}, {"Retry-After": future}))
    assert len(sleeps) == 1 and 25 <= sleeps[0] <= 30


@pytest.mark.parametrize("headers", [{}, {"Retry-After": "soon"}, {"Retry-After": "-3"}, {"Retry-After": "1e9"}],
                         ids=["missing", "garbage", "negative", "not_an_integer"])
def test_missing_or_bad_retry_after_keeps_exponential_backoff(stub_server, monkeypatch, sleeps, headers):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    _StubHandler.script = [(429, {}, headers), (500, {}, headers), (200, _ok_body("generated text"))]
    backend = HttpBackend(endpoint=stub_server, model="test-model")
    results = complete_batch([_sample_request()], backend, max_in_flight=1)
    assert isinstance(results[0], GenResponse) and results[0].attempts == 3
    assert sleeps == [0.5, 1.0]


def test_retry_after_does_not_change_the_attempt_limit(stub_server, monkeypatch, sleeps):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    _StubHandler.script = [(429, {}, {"Retry-After": "1"})] * 10
    backend = HttpBackend(endpoint=stub_server, model="test-model")
    results = complete_batch([_sample_request()], backend, max_in_flight=1, retry_limit=2)
    assert isinstance(results[0], GenFailure) and results[0].attempts == 3
    assert sleeps == [1.0, 1.0]


def _far_future() -> str:
    return format_datetime(datetime.now(timezone.utc) + timedelta(days=1), usegmt=True)


@pytest.mark.parametrize("retry_after", ["1000000000000", str(int(llm_client.MAX_RETRY_AFTER) + 1), "9" * 400, None],
                         ids=["past_time_t", "cap_plus_one", "overflows_float", "http_date_tomorrow"])
def test_retry_after_above_the_cap_fails_the_request_without_sleeping(stub_server, monkeypatch, sleeps, retry_after):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    headers = {"Retry-After": retry_after or _far_future()}
    _StubHandler.script = [(429, {}, headers), (200, _ok_body("generated text"))]
    backend = HttpBackend(endpoint=stub_server, model="test-model")
    results = complete_batch([_sample_request()], backend, max_in_flight=1, retry_limit=3)
    assert isinstance(results[0], GenFailure) and results[0].attempts == 1
    assert results[0].error.startswith("HTTP 429: Retry-After ") and "cap" in results[0].error
    assert sleeps == [] and len(_StubHandler.seen_payloads) == 1


def test_retry_after_at_the_cap_is_waited(stub_server, monkeypatch, sleeps):
    _retry_once(stub_server, monkeypatch, (503, {}, {"Retry-After": str(int(llm_client.MAX_RETRY_AFTER))}))
    assert sleeps == [llm_client.MAX_RETRY_AFTER]


def test_retry_after_past_the_cap_makes_a_generation_command_exit_2(stub_server, monkeypatch, tmp_path, capsys, sleeps):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    _StubHandler.script = [(429, {}, {"Retry-After": "1000000000000"})] * 3  # one request per tree
    out = tmp_path / "defs.jsonl"
    code = main(["curate-defs", "--ontology", str(TOY_ONTOLOGY), "--backend", "http", "--endpoint", stub_server,
                 "--model", "m", "--out", str(out)])
    assert code == 2 and sleeps == []
    assert json.loads(manifest_path(out).read_text())["counts"]["failures"] == 12
    assert "Traceback" not in capsys.readouterr().err


def test_transient_error_carries_no_retry_after_by_default():
    assert llm_client.TransientBackendError("HTTP 429").retry_after is None


# ---------------------------------------------------------------------------
# HTTP transport: what goes on the wire and how each failure is classed
# ---------------------------------------------------------------------------


def _closed_port() -> int:
    """A local port nothing listens on: bound once, then released."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_http_backend_sends_credential_content_type_and_payload(stub_server, monkeypatch):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    _StubHandler.script = [(200, _ok_body("generated text"))]
    request = _sample_request()
    assert HttpBackend(endpoint=stub_server, model="test-model").generate(request) == "generated text"
    headers = _StubHandler.seen_headers[0]
    assert headers["Authorization"] == "Bearer secret"
    assert headers["Content-Type"] == "application/json"
    decoding = DEFAULT_DECODING[TemplateId.SAMPLE_CURATION]
    assert _StubHandler.seen_payloads == [{
        "model": "test-model",
        "messages": [{"role": "user", "content": render(request.template_id, request.variables)}],
        "temperature": decoding["temperature"],
        "max_tokens": decoding["max_tokens"],
    }]


@pytest.mark.parametrize(
    ("template_id", "decoding"),
    [
        (TemplateId.DEFINITION_CURATION, b'"temperature": 0.7, "max_tokens": 2048'),
        (TemplateId.SAMPLE_CURATION, b'"temperature": 0.7, "max_tokens": 4096'),
        (TemplateId.DEFINITION_EXPANSION, b'"temperature": 1.0, "max_tokens": 2048'),
    ],
)
def test_http_request_body_bytes_per_template(stub_server, monkeypatch, template_id, decoding):
    # The raw body, not its parsed JSON: key order and 1.0 (not 1) are part of the request.
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    _StubHandler.script = [(200, _ok_body("generated text"))]
    variables = {"events": "attack\nprotest", "definitions": "attack: d", "count": "3", "event": "attack",
                 "definition": "d", "ontology": "parent: none", "example": "E"}
    HttpBackend(endpoint=stub_server, model="test-model").generate(GenRequest(template_id, variables))
    content = json.dumps(render(template_id, variables)).encode()
    assert _StubHandler.seen_bodies == [
        b'{"model": "test-model", "messages": [{"role": "user", "content": ' + content + b'}], ' + decoding + b"}"
    ]


def test_http_backend_non_json_reply_is_malformed(stub_server, monkeypatch):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    _StubHandler.script = [(200, b"<html>not json</html>")]
    with pytest.raises(PermanentBackendError, match="^malformed response body"):
        HttpBackend(endpoint=stub_server, model="test-model").generate(_sample_request())


def test_http_backend_client_error_names_the_body(stub_server, monkeypatch):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    _StubHandler.script = [(404, b"no such model: test-model")]
    with pytest.raises(PermanentBackendError, match="^HTTP 404: no such model: test-model$"):
        HttpBackend(endpoint=stub_server, model="test-model").generate(_sample_request())


def test_redirect_of_the_post_is_not_followed_and_names_its_status(stub_server, monkeypatch):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    _StubHandler.script = [(307, b"moved", {"Location": stub_server}), (200, _ok_body("generated text"))]
    with pytest.raises(PermanentBackendError, match="^HTTP 307: moved$"):
        HttpBackend(endpoint=stub_server, model="test-model").generate(_sample_request())
    assert len(_StubHandler.seen_payloads) == 1


class _GetRecorder(BaseHTTPRequestHandler):
    """A redirect's target: records the headers of each GET and replies 401."""

    seen_headers: list[dict] = []

    def do_GET(self):
        type(self).seen_headers.append(dict(self.headers))
        self.send_response(401)
        self.send_header("Content-Length", "12")
        self.end_headers()
        self.wfile.write(b"unauthorized")

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("status", [301, 302, 303])
def test_a_redirect_target_on_another_host_never_sees_the_credential(stub_server, monkeypatch, status):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    monkeypatch.setattr(_GetRecorder, "seen_headers", [])
    target = HTTPServer(("127.0.0.1", 0), _GetRecorder)
    thread = threading.Thread(target=target.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        location = f"http://127.0.0.1:{target.server_address[1]}/elsewhere"
        _StubHandler.script = [(status, b"moved", {"Location": location})]
        with pytest.raises(PermanentBackendError, match="^HTTP 401: unauthorized$"):
            HttpBackend(endpoint=stub_server, model="test-model").generate(_sample_request())
    finally:
        target.shutdown()
        target.server_close()
    assert _StubHandler.seen_headers[0]["Authorization"] == "Bearer secret"
    assert len(_GetRecorder.seen_headers) == 1
    assert "Authorization" not in _GetRecorder.seen_headers[0]


def test_refused_connection_is_a_transient_network_error(monkeypatch, sleeps):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    backend = HttpBackend(endpoint=f"http://127.0.0.1:{_closed_port()}/v1/chat/completions", model="test-model")
    results = complete_batch([_sample_request()], backend, max_in_flight=1, retry_limit=2)
    assert isinstance(results[0], GenFailure) and results[0].attempts == 3
    assert results[0].error.startswith("network error")
    assert sleeps == [0.5, 1.0]


class _CutShortHandler(BaseHTTPRequestHandler):
    """Sends 10 of the 100 body bytes it announces, then holds the connection
    ``hold`` seconds before closing it."""

    hold = 0.0

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Length", "100")
        self.end_headers()
        self.wfile.write(b'{"choices"')
        self.wfile.flush()
        time.sleep(self.hold)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("hold", [0.0, 0.5], ids=["closed_mid_body", "stalled_mid_body"])
def test_a_body_cut_short_is_a_transient_network_error(monkeypatch, hold):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    monkeypatch.setattr(_CutShortHandler, "hold", hold)
    server = HTTPServer(("127.0.0.1", 0), _CutShortHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        backend = HttpBackend(endpoint=f"http://127.0.0.1:{server.server_address[1]}/v1", model="m", timeout=0.1)
        with pytest.raises(llm_client.TransientBackendError, match="^network error"):
            backend.generate(_sample_request())
    finally:
        server.shutdown()
        server.server_close()


def test_proxy_comes_from_the_environment_and_no_proxy_bypasses_it(stub_server, monkeypatch):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{_closed_port()}")
    backend = HttpBackend(endpoint=stub_server, model="test-model")
    with pytest.raises(llm_client.TransientBackendError, match="^network error"):
        backend.generate(_sample_request())  # the dead proxy is used
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    _StubHandler.script = [(200, _ok_body("generated text"))]
    assert backend.generate(_sample_request()) == "generated text"
