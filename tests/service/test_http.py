"""The minimal HTTP layer: request parsing, JSON bodies, error statuses."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service.http import (
    HTTPError,
    HTTPRequest,
    MAX_BODY_BYTES,
    read_request,
)


def parse(raw: bytes):
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(main())


def test_parse_simple_get():
    request = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
    assert request is not None
    assert request.method == "GET"
    assert request.path == "/healthz"
    assert request.headers["host"] == "x"
    assert request.body == b""
    assert request.json() is None


def test_parse_query_string_and_path_parts():
    request = parse(b"GET /sessions/my%20db/worlds?limit=3&engine=sat HTTP/1.1\r\n\r\n")
    assert request is not None
    assert request.query == {"limit": "3", "engine": "sat"}
    assert request.path_parts() == ["sessions", "my db", "worlds"]


def test_parse_post_with_json_body():
    body = json.dumps({"problem": "consistency"}).encode()
    raw = (
        b"POST /sessions/s/decide HTTP/1.1\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )
    request = parse(raw)
    assert request is not None
    assert request.json() == {"problem": "consistency"}


def test_headers_are_lowercased():
    request = parse(b"GET / HTTP/1.1\r\nX-Repro-Token: abc\r\n\r\n")
    assert request is not None
    assert request.headers["x-repro-token"] == "abc"


def test_clean_eof_returns_none():
    assert parse(b"") is None


def test_truncated_request_raises_400():
    with pytest.raises(HTTPError) as err:
        parse(b"GET / HTTP/1.1\r\nHost")
    assert err.value.status == 400


def test_malformed_request_line_raises_400():
    with pytest.raises(HTTPError) as err:
        parse(b"NONSENSE\r\n\r\n")
    assert err.value.status == 400


def test_non_http_version_rejected():
    with pytest.raises(HTTPError) as err:
        parse(b"GET / GOPHER/7\r\n\r\n")
    assert err.value.status == 400


def test_bad_content_length_raises():
    with pytest.raises(HTTPError) as err:
        parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
    assert err.value.status == 400
    with pytest.raises(HTTPError) as err:
        parse(b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
    assert err.value.status == 413
    with pytest.raises(HTTPError) as err:
        parse(
            f"POST / HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
        )
    assert err.value.status == 413


def test_chunked_request_bodies_rejected():
    with pytest.raises(HTTPError) as err:
        parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
    assert err.value.status == 400


def test_truncated_body_raises_400():
    with pytest.raises(HTTPError) as err:
        parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
    assert err.value.status == 400


def test_bad_json_body_raises_400():
    request = HTTPRequest(method="POST", path="/", body=b"{not json")
    with pytest.raises(HTTPError) as err:
        request.json()
    assert err.value.status == 400


@pytest.mark.parametrize("number", [b"NaN", b"Infinity", b"-Infinity", b"1e400"])
def test_non_finite_json_numbers_raise_400(number):
    request = HTTPRequest(
        method="POST", path="/", body=b'{"add_rows": {"R": [[1, ' + number + b"]]}}"
    )
    with pytest.raises(HTTPError) as err:
        request.json()
    assert err.value.status == 400
    assert "non-finite" in str(err.value)


def test_finite_json_numbers_still_parse():
    request = HTTPRequest(method="POST", path="/", body=b'[1.5, -2e3, 1e308, 0]')
    assert request.json() == [1.5, -2000.0, 1e308, 0]


@pytest.mark.parametrize(
    "raw, keep_alive",
    [
        (b"GET / HTTP/1.1\r\n\r\n", True),
        (b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n", True),
        (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", False),
        (b"GET / HTTP/1.1\r\nConnection: Upgrade, Close\r\n\r\n", False),
        (b"GET / HTTP/1.0\r\n\r\n", False),
        (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", False),
    ],
)
def test_keep_alive_follows_the_version_and_the_connection_header(raw, keep_alive):
    request = parse(raw)
    assert request is not None
    assert request.keep_alive is keep_alive

