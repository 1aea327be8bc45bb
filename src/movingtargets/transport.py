"""The HTTP protocol of the chat-completion and embeddings endpoints.

A connection failure, a 5xx or a 429 (RFC 9110 §15.6, RFC 6585 §4) is
transient and retried by ``with_retries``; any other non-200 status is
final, a 3xx too: no redirect is followed. A 429 or 503 carries its
``Retry-After`` delay in seconds, if it gives one (RFC 9110 §10.2.3), as the
error's ``retry_after``.

``KeepAliveSession`` speaks HTTP/1.1 through the standard library, over one
keep-alive connection per thread. ``http.client``, ``urllib.request`` and
``ssl`` are imported only when a client is built. A 200 body is decoded into
text once, as ``json.loads`` decodes bytes, and dropped before the parse, so
a reply is never held as bytes, text and parsed values at once.
"""

from __future__ import annotations

import time
from json import detect_encoding, dumps, loads
from typing import TYPE_CHECKING, Any, Callable, TypeVar

from .config import ConfigError

if TYPE_CHECKING:
    import http.client
    from email.message import Message
    from urllib.parse import SplitResult

TRANSPORT_ATTEMPTS = 3
BACKOFF_BASE_S = 0.5
# The longest wait a Retry-After can ask for, so one reply cannot stall a run.
RETRY_AFTER_CAP_S = 60.0
TIMEOUT_S = 120.0
# What a request target keeps unquoted: requests' ``requote_uri`` set.
_SAFE = "!#$%&'()*+,/:;=?@[]~"

T = TypeVar("T")


class JsonEndpointClient:
    """JSON POSTs for one model to one endpoint, with the headers built once.

    A subclass names its ``role`` and ``payload_kind`` for messages, and the
    ``transient_error`` and ``final_error`` types it raises. ``session``
    stands in for the ``KeepAliveSession`` built from ``endpoint``.
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
        session: Any = None,
    ) -> None:
        self.endpoint = endpoint
        self.model_id = model_id
        self.session = session or KeepAliveSession(endpoint)
        self.headers = {"Content-Type": "application/json"}
        if api_key:
            # A header carries no control character and, as sent, only Latin-1.
            if not (api_key.isascii() and api_key.isprintable()):
                raise ConfigError(f"the {self.role} API key is not printable ASCII")
            self.headers["Authorization"] = f"Bearer {api_key}"

    def post(
        self,
        payload: dict[str, Any],
        read: Callable[[Any], T],
        object_hook: Callable[[dict[str, Any]], Any] | None = None,
    ) -> T:
        """One POST; ``read`` takes the JSON body of a 200 reply.

        ``object_hook`` is ``json.loads``'s: each JSON object of the body is
        passed to it as it is parsed, and replaced by what it returns.
        """

        import http.client

        try:
            response = self.session.post(
                self.endpoint, json=payload, headers=self.headers, timeout=TIMEOUT_S
            )
        except (OSError, http.client.HTTPException) as exc:
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
            return read(response.json(object_hook=object_hook))
        except (ValueError, KeyError, IndexError, TypeError, OverflowError, RecursionError) as exc:
            raise self.final_error(f"unexpected {self.payload_kind} payload: {exc}") from exc


class Response:
    """A reply as ``JsonEndpointClient.post`` reads it: status, headers and body.

    ``json`` parses the body once: it drops ``content`` before the parse.
    """

    def __init__(self, status_code: int, headers: Message, content: bytes) -> None:
        self.status_code = status_code
        self.headers = headers
        self.content = content

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", errors="replace")

    def json(self, object_hook: Callable[[dict[str, Any]], Any] | None = None) -> Any:
        # Decoded as json.loads decodes bytes; the bytes go before the parse begins.
        content, self.content = self.content, b""
        text = content.decode(detect_encoding(content), "surrogatepass")
        del content
        return loads(text, object_hook=object_hook)


class KeepAliveSession:
    """POSTs to one ``http(s)://host`` endpoint, each thread over its own connection.

    A connection is kept open between requests. Before one is reused it is
    checked, as urllib3 does: if the server closed it while it sat idle, it
    is reopened, so the request is sent once and spends no retry. The proxy
    is chosen once, from ``HTTP_PROXY``, ``HTTPS_PROXY`` and ``NO_PROXY``;
    credentials in a proxy URL go in ``Proxy-Authorization``, and HTTPS goes
    through a proxy in a CONNECT tunnel. HTTPS is verified against the
    system's trust store (``ssl.create_default_context``), and the request
    body is ``json.dumps(payload, allow_nan=False)`` in UTF-8.
    """

    def __init__(self, endpoint: str) -> None:
        import http.client
        import ssl
        import threading
        import urllib.request
        import weakref
        from urllib.parse import quote

        parts = _split(endpoint, ("http", "https"))
        if parts is None:
            raise ConfigError(f"endpoint must be an http(s)://host URL, got {endpoint!r}")
        netloc = parts.netloc.rpartition("@")[2]
        path = parts.path or "/"
        # Percent-encoded as requests did, so the request line is ASCII.
        self._path = quote(f"{path}?{parts.query}" if parts.query else path, safe=_SAFE)
        # Credentials in the endpoint URL are sent as Basic authorization.
        self._headers = _basic_auth(parts, "Authorization")

        proxy_url = urllib.request.getproxies().get(parts.scheme)
        if proxy_url and urllib.request.proxy_bypass(netloc):
            proxy_url = None
        https = parts.scheme == "https"
        context = ssl.create_default_context() if https else None
        host, port, tunnel = parts.hostname, parts.port, None
        if proxy_url is not None:
            proxy = _split(proxy_url if "://" in proxy_url else f"http://{proxy_url}", ("http",))
            if proxy is None:
                raise ConfigError(f"the {parts.scheme} proxy must be an http://host URL")
            proxy_auth = _basic_auth(proxy, "Proxy-Authorization")
            host, port = proxy.hostname, proxy.port or 80
            if https:
                tunnel = (parts.hostname, parts.port, proxy_auth)
            else:
                # A proxy takes the absolute URL, and its credentials, with each request.
                self._path = f"http://{netloc}{self._path}"
                self._headers.update(proxy_auth)

        def connect(timeout: float) -> http.client.HTTPConnection:
            if not https:
                return http.client.HTTPConnection(host, port, timeout=timeout)
            connection = http.client.HTTPSConnection(host, port, timeout=timeout, context=context)
            if tunnel is not None:
                connection.set_tunnel(*tunnel)
            return connection

        self._connect = connect
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[http.client.HTTPConnection] = []
        # Should no one call ``close``, the connections close with the session.
        weakref.finalize(self, _close_all, self._connections)

    def post(
        self, url: str, *, json: Any, headers: dict[str, str], timeout: float
    ) -> Response:
        """POST ``json`` to the endpoint (``url`` is the one it was built for)."""

        body = dumps(json, allow_nan=False).encode("utf-8")
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connect(timeout)
            with self._lock:
                self._connections.append(connection)
        elif connection.sock is not None and _readable(connection.sock):
            # Idle, yet readable: the server closed it, or sent what no request asked for.
            connection.close()
        try:
            connection.request("POST", self._path, body, {**headers, **self._headers})
            reply = connection.getresponse()
            content = reply.read()
        except BaseException:
            # A request cut short leaves the connection in no state to reuse.
            connection.close()
            raise
        return Response(reply.status, reply.headers, content)

    def close(self) -> None:
        """Close every thread's connection; a later ``post`` opens a new one."""

        with self._lock:
            _close_all(self._connections)


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    for connection in connections:
        connection.close()


def _split(url: str, schemes: tuple[str, ...]) -> SplitResult | None:
    """The parts of ``url`` if it is a ``scheme://host[:port]`` URL of one of ``schemes``."""

    from urllib.parse import urlsplit

    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError on a port that is no number
    except ValueError:
        return None
    return parts if parts.scheme in schemes and parts.hostname else None


def _basic_auth(parts: SplitResult, header: str) -> dict[str, str]:
    """``{header: "Basic ..."}`` for the user and password of a URL, if it has a user."""

    if parts.username is None:
        return {}
    from base64 import b64encode
    from urllib.parse import unquote

    credentials = f"{unquote(parts.username)}:{unquote(parts.password or '')}"
    return {header: "Basic " + b64encode(credentials.encode("utf-8")).decode("ascii")}


def _readable(sock: Any) -> bool:
    """Whether ``sock`` has something to read, or an end of stream, right now."""

    import select

    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


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
