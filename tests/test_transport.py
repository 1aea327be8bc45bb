"""The HTTP transport both endpoint clients share, run through each client."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest
import requests

from movingtargets import transport
from movingtargets.embed import EmbeddingError, EncoderTransportError, HttpEncoderClient
from movingtargets.extract import ExtractionError, HttpChatCompletionClient, TransportError


class StubResponse:
    def __init__(self, status_code, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("no json body")
        return self._payload


class StubSession:
    """Answers each ``post`` with the next response, or raises it if it is an exception."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, **kwargs):
        self.requests.append((url, kwargs))
        outcome = self.responses.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


@dataclass(frozen=True)
class Endpoint:
    """One client, how one request of it runs with its retries, and its errors."""

    client: type[transport.JsonEndpointClient]
    request: Callable[[transport.JsonEndpointClient], object]
    ok: dict
    transient: type[Exception]
    final: type[Exception]
    payload_kind: str


def chat_request(client):
    return transport.with_retries(lambda: client.complete("prompt"), TransportError)


ENDPOINTS = [
    Endpoint(
        HttpChatCompletionClient,
        chat_request,
        {"choices": [{"message": {"content": "{}"}}]},
        TransportError,
        ExtractionError,
        "completion",
    ),
    Endpoint(
        HttpEncoderClient,
        lambda client: client.embed(["x"]),
        {"data": [{"index": 0, "embedding": [1.0, 0.0]}]},
        EncoderTransportError,
        EmbeddingError,
        "embeddings",
    ),
]


@pytest.fixture(params=ENDPOINTS, ids=["chat", "encoder"])
def endpoint(request):
    return request.param


@pytest.fixture()
def slept(monkeypatch):
    waits = []
    monkeypatch.setattr(transport.time, "sleep", waits.append)
    return waits


def client_with(endpoint, *responses, api_key=None):
    session = StubSession(responses)
    return endpoint.client("http://endpoint", "model-x", api_key, session=session), session


@pytest.mark.parametrize(
    "failure",
    [requests.ConnectionError("refused"), requests.Timeout("slow"), StubResponse(503),
     StubResponse(500), StubResponse(429)],
    ids=["connection", "timeout", "503", "500", "429"],
)
def test_transient_failure_is_retried(endpoint, slept, failure):
    client, session = client_with(endpoint, failure, StubResponse(200, endpoint.ok))
    endpoint.request(client)
    assert len(session.requests) == 2
    assert slept == [transport.BACKOFF_BASE_S]


def test_budget_is_three_attempts_per_request(endpoint, slept):
    client, session = client_with(endpoint, *[StubResponse(502)] * 3)
    with pytest.raises(endpoint.transient, match="after 3 attempts: .* returned 502"):
        endpoint.request(client)
    assert len(session.requests) == 3
    assert slept == [0.5, 1.0]


@pytest.mark.parametrize(
    "status, retry_after, wait",
    [
        (429, "3", 3.0),
        (503, "2", 2.0),
        (503, "0", transport.BACKOFF_BASE_S),
        (429, "86400", transport.RETRY_AFTER_CAP_S),
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", transport.BACKOFF_BASE_S),
        (503, "1.5", transport.BACKOFF_BASE_S),
        (429, "-1", transport.BACKOFF_BASE_S),
        (429, "\u00b2", transport.BACKOFF_BASE_S),
        (500, "3", transport.BACKOFF_BASE_S),
        (502, "3", transport.BACKOFF_BASE_S),
    ],
    ids=["429", "503", "zero", "capped", "http-date", "fraction", "negative", "non-ascii-digit",
         "500-ignores-it", "502-ignores-it"],
)
def test_retry_after_delay_seconds_lengthens_the_wait(status, retry_after, wait):
    chat = ENDPOINTS[0]
    failure = StubResponse(status, headers={"Retry-After": retry_after})
    client, session = client_with(chat, failure, StubResponse(200, chat.ok))
    waits = []
    transport.with_retries(lambda: client.complete("prompt"), TransportError, sleep=waits.append)
    assert len(session.requests) == 2
    assert waits == [wait]


def test_retry_after_is_read_by_both_clients_and_never_shortens_the_backoff(endpoint, slept):
    client, session = client_with(
        endpoint,
        StubResponse(429, headers={"Retry-After": "5"}),
        StubResponse(503, headers={"Retry-After": "0"}),
        StubResponse(200, endpoint.ok),
    )
    endpoint.request(client)
    assert len(session.requests) == 3
    assert slept == [5.0, 1.0]


@pytest.mark.parametrize("status", [400, 401, 404, 422])
def test_client_error_fails_at_once_with_body_excerpt(endpoint, slept, status):
    body = "no such model " + "x" * 300
    client, session = client_with(
        endpoint, StubResponse(status, text=body), StubResponse(200, endpoint.ok)
    )
    with pytest.raises(endpoint.final) as raised:
        endpoint.request(client)
    assert not isinstance(raised.value, endpoint.transient)
    assert str(raised.value).endswith(f"returned {status}: {body[:200]}")
    assert len(session.requests) == 1
    assert slept == []


def test_non_json_body_is_unexpected_payload(endpoint, slept):
    client, session = client_with(endpoint, StubResponse(200, text="<html>busy</html>"))
    with pytest.raises(endpoint.final, match=f"unexpected {endpoint.payload_kind} payload"):
        endpoint.request(client)
    assert len(session.requests) == 1
    assert slept == []


def test_one_post_with_fixed_headers_and_timeout(endpoint):
    ok = StubResponse(200, endpoint.ok)
    client, session = client_with(endpoint, ok, ok, api_key="sk-test")
    endpoint.request(client)
    endpoint.request(client)
    assert len(session.requests) == 2
    for url, kwargs in session.requests:
        assert url == "http://endpoint"
        assert kwargs["headers"] == {
            "Content-Type": "application/json",
            "Authorization": "Bearer sk-test",
        }
        assert kwargs["timeout"] == transport.TIMEOUT_S
        assert kwargs["json"]["model"] == "model-x"

