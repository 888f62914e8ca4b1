"""The one HTTP client, against a stub asyncio server that misbehaves on cue."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ServingError
from repro.serving.client import HttpClient, HttpResponseError, request
from repro.serving.server import read_http_request


def with_stub(reply: bytes, scenario, *, keep_alive=True):
    """Run ``scenario(port)`` against a stub answering every request with
    ``reply``; returns ``(result, connections opened, requests read)``."""

    async def main():
        connections, requests = [], []

        async def serve(reader, writer):
            connections.append(writer)
            while (received := await read_http_request(reader)) is not None:
                requests.append(received)
                writer.write(reply)
                await writer.drain()
                if not keep_alive:
                    break
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        try:
            result = await scenario(server.sockets[0].getsockname()[1])
        finally:
            server.close()
            await server.wait_closed()
        return result, len(connections), requests

    return asyncio.run(main())


OK = b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 8\r\n\r\n{"n": 1}'


@pytest.mark.parametrize(
    "reply",
    [b"", b"ceci n'est pas du HTTP\r\nContent-Length: 2\r\n\r\n{}", OK[:-3]],
    ids=["empty", "garbage-status-line", "short-body"],
)
def test_unreadable_responses_raise_the_typed_error(reply):
    async def scenario(port):
        with pytest.raises(HttpResponseError) as caught:
            await request("127.0.0.1", port, "POST", "/delta", {"x": 1})
        return caught.value

    error, _, _ = with_stub(reply, scenario, keep_alive=False)
    assert isinstance(error, ServingError)


def test_requests_reuse_one_connection():
    async def scenario(port):
        async with HttpClient("127.0.0.1", port) as client:
            return [await client.request("POST", "/predict", {"nodes": [0]}),
                    await client.request("GET", "/healthz")]

    responses, connections, requests = with_stub(OK, scenario)
    assert connections == 1
    assert [(r.status, r.content_type, r.json()) for r in responses] == [
        (200, "application/json", {"n": 1})
    ] * 2
    assert [(method, path, body) for method, path, body, _, _ in requests] == [
        ("POST", "/predict", b'{"nodes": [0]}'), ("GET", "/healthz", b"")
    ]


def test_caller_headers_reach_the_server():
    async def scenario(port):
        await request("127.0.0.1", port, "POST", "/delta", b"{}",
                      headers={"x-repro-trace": "abc-123"})

    _, _, requests = with_stub(OK, scenario)
    assert requests[0][2] == b"{}"
    assert requests[0][4] == "abc-123"  # the trace header, as the server parses it
