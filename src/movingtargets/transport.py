"""The HTTP protocol of the chat-completion and embeddings endpoints.

A connection failure, a 5xx or a 429 (RFC 9110 §15.6, RFC 6585 §4) is
transient and retried by ``with_retries``; any other non-200 status is
final. A 429 or 503 carries its ``Retry-After`` delay in seconds, if it
gives one (RFC 9110 §10.2.3), as the error's ``retry_after``. requests is
imported only when a client is built or posts.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, TypeVar

if TYPE_CHECKING:
    import requests

TRANSPORT_ATTEMPTS = 3
BACKOFF_BASE_S = 0.5
# The longest wait a Retry-After can ask for, so one reply cannot stall a run.
RETRY_AFTER_CAP_S = 60.0
TIMEOUT_S = 120.0

T = TypeVar("T")


class JsonEndpointClient:
    """JSON POSTs for one model to one endpoint, with the headers built once.

    A subclass names its ``role`` and ``payload_kind`` for messages, and the
    ``transient_error`` and ``final_error`` types it raises.
    """

    role: str
    payload_kind: str
    transient_error: type[Exception]
    final_error: type[Exception]

    def __init__(
        self,
        endpoint: str,
        model_id: str,
        api_key: str | None = None,
        *,
        session: requests.Session | None = None,
    ) -> None:
        import requests

        self.endpoint = endpoint
        self.model_id = model_id
        self.session = session or requests.Session()
        self.headers = {"Content-Type": "application/json"}
        if api_key:
            self.headers["Authorization"] = f"Bearer {api_key}"

    def post(self, payload: dict[str, Any], read: Callable[[Any], T]) -> T:
        """One POST; ``read`` takes the decoded JSON body of a 200 reply."""

        import requests

        try:
            response = self.session.post(
                self.endpoint, json=payload, headers=self.headers, timeout=TIMEOUT_S
            )
        except requests.RequestException as exc:
            raise self.transient_error(f"{self.role} request failed: {exc}") from exc
        if response.status_code >= 500 or response.status_code == 429:
            error = self.transient_error(f"{self.role} endpoint returned {response.status_code}")
            if response.status_code in (429, 503):
                error.retry_after = _retry_after_s(response.headers.get("Retry-After"))
            raise error
        if response.status_code != 200:
            raise self.final_error(
                f"{self.role} endpoint returned {response.status_code}: {response.text[:200]}"
            )
        try:
            return read(response.json())
        except (ValueError, KeyError, IndexError, TypeError, OverflowError, RecursionError) as exc:
            raise self.final_error(f"unexpected {self.payload_kind} payload: {exc}") from exc


def _retry_after_s(value: str | None) -> float | None:
    """The delay-seconds form of a ``Retry-After`` value; None for an HTTP-date or anything else."""

    text = (value or "").strip()
    # isdigit alone would also take non-ASCII digits such as "²".
    return float(text) if text.isascii() and text.isdigit() else None


def with_retries(
    call: Callable[[], T], transient: type[Exception], sleep: Callable[[float], None] | None = None
) -> T:
    """``call()``, called again on ``transient`` up to ``TRANSPORT_ATTEMPTS`` times in all.

    Waits ``BACKOFF_BASE_S`` before the second call and twice as long before
    each later one, or longer if the failure's ``retry_after`` asks, up to
    ``RETRY_AFTER_CAP_S``, with ``sleep`` or else ``time.sleep`` looked up at
    the wait. After the last failure, raises ``transient`` chained to it.
    """

    for attempt in range(TRANSPORT_ATTEMPTS):
        if attempt:
            wait = BACKOFF_BASE_S * 2 ** (attempt - 1)
            retry_after = getattr(last, "retry_after", None)
            if retry_after is not None:
                wait = max(wait, min(retry_after, RETRY_AFTER_CAP_S))
            (sleep or time.sleep)(wait)
        try:
            return call()
        except transient as exc:
            last = exc
    raise transient(f"transport failed after {TRANSPORT_ATTEMPTS} attempts: {last}") from last
