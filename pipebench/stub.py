"""Local chat-completion stub for the ``http_stub`` workload.

Run as ``python3 stub.py --latency-ms 10 --reject-every 20``; it prints the
port it listens on (127.0.0.1 only) and serves until terminated.

It answers the three generation prompts of the pipeline with text from its
own deterministic generator (never ``dived.mock_generate``), so the dataset
the pipeline writes can be checked against what the stub says it served.
Every reply waits a fixed latency. Of the distinct request bodies, in order
of first arrival, every ``reject_every``-th is first answered 429 with
``Retry-After: 0``; its retry succeeds. The number of 429s is therefore
fixed by the number of requests, whatever the thread timing.

``GET /stats`` returns the counters (TCP connections that carried a
completion request, requests, 200s, 429s) and the served content per event.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_DEFS_MARK = "Now write the definitions for this ontology:\n"
_SAMPLES_MARK = "Event ontology:\n"
_SAMPLES_END = "\n\nEvent definitions:"
_WORDS = ["harbour", "council", "convoy", "market", "tribunal", "plant", "ferry", "union"]


def _h(*parts: object) -> int:
    return int.from_bytes(hashlib.sha256("|".join(map(str, parts)).encode()).digest()[:8], "big")


def definition_text(event: str) -> str:
    return f"Stub seed definition {_h(event, 'def') % 10**6:06d}: an occurrence recorded as {event}."


def sample_pairs(event: str, count: int) -> list[tuple[str, str]]:
    pairs = []
    for i in range(count):
        trigger = f"qx{_h(event) % 10**8:08d}t{i}"
        word = _WORDS[_h(event, i) % len(_WORDS)]
        pairs.append((f"The {word} {trigger} as the stub reported, case {i}.", trigger))
    return pairs


def paraphrases(event: str, count: int) -> list[str]:
    return [f"Stub paraphrase {i} ({_h(event, 'para', i) % 10**6:06d}) of what {event} means." for i in range(count)]


def reply_for(prompt: str) -> tuple[str, dict[str, dict]] | None:
    """The completion text for one rendered prompt, and what it served per event."""
    served: dict[str, dict] = {}
    if _DEFS_MARK in prompt:
        events = [ln.strip() for ln in prompt.split(_DEFS_MARK, 1)[1].splitlines() if ln.strip()]
        lines = []
        for event in events:
            served[event] = {"definition": definition_text(event)}
            lines.append(f"{event}\tdefinition: {served[event]['definition']}")
    elif _SAMPLES_MARK in prompt and _SAMPLES_END in prompt:
        block = prompt.split(_SAMPLES_MARK, 1)[1].split(_SAMPLES_END, 1)[0]
        count = int(re.search(r"write (\d+) short", prompt).group(1))
        lines = []
        for event in (ln.strip() for ln in block.splitlines() if ln.strip()):
            pairs = sample_pairs(event, count)
            served[event] = {"samples": [{"sentence": s, "trigger": t} for s, t in pairs]}
            for sentence, trigger in pairs:
                lines += [f"{event}\tsentence: {sentence}", f"{event}\ttrigger: {trigger}"]
    elif "Paraphrase the event definition below" in prompt:
        count = int(re.search(r"below (\d+) times", prompt).group(1))
        event = re.findall(r"^Event type: (.*)$", prompt, flags=re.M)[-1].strip()
        served[event] = {"paraphrases": paraphrases(event, count)}
        lines = [f"{event}\tparaphrase: {p}" for p in served[event]["paraphrases"]]
    else:
        return None
    return "\n".join(["Here is the answer:"] + lines), served


class StubState:
    def __init__(self, latency_s: float, reject_every: int):
        self.latency_s = latency_s
        self.reject_every = reject_every
        self.lock = threading.Lock()
        self.first_seen: dict[str, int] = {}
        self.counts = {"connections": 0, "requests": 0, "replies_200": 0, "replies_429": 0}
        self.served: dict[str, dict] = {}

    def should_reject(self, body: bytes) -> bool:
        digest = hashlib.sha256(body).hexdigest()
        with self.lock:
            if digest in self.first_seen:
                return False
            self.first_seen[digest] = len(self.first_seen)
            return self.reject_every > 0 and self.first_seen[digest] % self.reject_every == self.reject_every - 1


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    state: StubState  # set on the subclass made by main()

    def setup(self) -> None:
        super().setup()
        self.counted = False

    def log_message(self, format, *args) -> None:  # noqa: A002 - BaseHTTPRequestHandler hook
        pass

    def _send(self, status: int, body: bytes, headers: dict[str, str] | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler hook
        if self.path != "/stats":
            self._send(404, b"{}")
            return
        with self.state.lock:
            body = json.dumps({**self.state.counts, "served": self.state.served}).encode()
        self._send(200, body)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler hook
        state = self.state
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with state.lock:
            state.counts["requests"] += 1
            if not self.counted:
                self.counted = True
                state.counts["connections"] += 1
        time.sleep(state.latency_s)
        try:
            prompt = json.loads(body)["messages"][0]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            self._send(400, b'{"error": "bad request"}')
            return
        reply = reply_for(prompt)
        if reply is None:
            self._send(400, b'{"error": "unknown prompt"}')
            return
        if state.should_reject(body):
            with state.lock:
                state.counts["replies_429"] += 1
            self._send(429, b'{"error": "rate limited"}', {"Retry-After": "0"})
            return
        text, served = reply
        with state.lock:
            state.counts["replies_200"] += 1
            for event, facts in served.items():
                state.served.setdefault(event, {}).update(facts)
        self._send(200, json.dumps({"choices": [{"message": {"role": "assistant", "content": text}}]}).encode())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--latency-ms", type=float, default=10.0)
    parser.add_argument("--reject-every", type=int, default=20)
    args = parser.parse_args()
    handler = type("BoundHandler", (Handler,), {"state": StubState(args.latency_ms / 1000.0, args.reject_every)})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
