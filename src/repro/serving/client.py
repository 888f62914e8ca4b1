"""The one HTTP/1.1 client for the serving endpoints.

:class:`HttpClient` holds one keep-alive connection and speaks the part of
HTTP/1.1 that :mod:`repro.serving.server` speaks: a JSON or bytes body plus
caller headers, and a response framed by its ``Content-Length`` (the server
always sends one).  :func:`request` is the one-shot form.  An unreadable
response raises :class:`HttpResponseError` and a connection failure
:class:`OSError`; either closes the connection.  There are no timeouts,
retries or pacing: callers that need them wrap the client.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass

from repro.errors import ServingError

__all__ = ["HttpClient", "HttpResponseError", "Response", "request"]


class HttpResponseError(ServingError):
    """An unreadable response: empty, a bad status line or ``Content-Length``,
    or a body shorter than it.  The request may have reached the server."""


@dataclass(frozen=True)
class Response:
    status: int
    content_type: str
    body: bytes

    def json(self):
        """The body decoded as JSON (an empty body decodes to ``{}``)."""
        return json.loads(self.body or b"{}")


class HttpClient:
    """One keep-alive HTTP/1.1 connection, opened on first use."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, int(port)
        self._reader = self._writer = None

    async def __aenter__(self) -> "HttpClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def request(self, method: str, path: str, body: object = None,
                      headers: dict[str, str] | None = None) -> Response:
        """Send one request: ``bytes`` go as-is, ``None`` as no body, the rest as JSON."""
        if not isinstance(body, bytes):
            body = b"" if body is None else json.dumps(body).encode()
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\nContent-Length: {len(body)}\r\n"
        head += "".join(f"{name}: {value}\r\n" for name, value in (headers or {}).items())
        try:
            if self._writer is None:
                self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
            self._writer.write((head + "\r\n").encode("latin-1") + body)
            await self._writer.drain()
            return await self._read_response()
        except BaseException:
            await self.close()
            raise

    async def _read_response(self) -> Response:
        status_line = await self._reader.readline()
        version, _, rest = status_line.partition(b" ")
        if not version.startswith(b"HTTP/") or not rest[:3].isdigit():
            raise HttpResponseError(f"bad or empty status line {status_line[:80]!r}")
        headers = {}
        while (line := await self._reader.readline()) not in (b"\r\n", b"\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "")
        if not length.isdigit():
            raise HttpResponseError(f"bad Content-Length {length!r}")
        try:
            body = await self._reader.readexactly(int(length))
        except asyncio.IncompleteReadError as exc:
            raise HttpResponseError(f"body cut at {len(exc.partial)} of {length} bytes") from None
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return Response(int(rest[:3]), headers.get("content-type", ""), body)

    async def close(self) -> None:
        """Close the connection; the next request opens a new one."""
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def request(host: str, port: int, method: str, path: str, body: object = None,
                  headers: dict[str, str] | None = None) -> Response:
    """One request on its own connection: open, send, read, close."""
    async with HttpClient(host, port) as client:
        return await client.request(method, path, body, headers)
