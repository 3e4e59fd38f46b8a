"""HTTP/1.1 framing of the estimation endpoint, over raw sockets.

``urllib`` hides framing, so these tests write request bytes by hand and
read the answer's head byte for byte: the request-line forms, the
header limits, ``Expect`` and ``Connection`` handling, the exact head of
every JSON status the server answers, one socket write per JSON
response, and the 400 that closes a connection whose body framing is
ambiguous (RFC 9112 §5.1, §6.3).
"""

import json
import math
import re
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler

import pytest

from repro.serve import ServingApp
from repro.serve.http import MAX_BODY_BYTES

QUERY = (
    "SELECT ?x ?y WHERE { ?x <ub:advisor> ?y . "
    "?x <ub:takesCourse> ?z . }"
)
UNCOVERED = (
    "SELECT ?x WHERE { ?x <ub:advisor> ?a . "
    "?x <ub:takesCourse> ?b . ?x <ub:memberOf> ?c . "
    "?x <ub:worksFor> ?d . ?x <ub:telephone> ?e . "
    "?x <ub:emailAddress> ?f . }"
)
BODY = json.dumps({"queries": [QUERY]}).encode("utf-8")

DATE = re.compile(
    rb"Date: [A-Z][a-z]{2}, \d{2} [A-Z][a-z]{2} \d{4} "
    rb"\d{2}:\d{2}:\d{2} GMT\r\n"
)


@pytest.fixture(scope="module")
def app(snapshot_dir, checkpoint_dir):
    app = ServingApp(snapshot_dir, checkpoint_dir, port=0).start()
    yield app
    app.close()


def request(method, path, body=b"", headers=(), version="HTTP/1.1"):
    """Request bytes: *headers* as ``(name, value)`` pairs, in order."""
    head = f"{method} {path} {version}\r\nHost: test\r\n"
    for name, value in headers:
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1") + body


def post(body=BODY, path="/estimate", headers=(), **kwargs):
    headers = (("Content-Length", len(body)),) + tuple(headers)
    return request("POST", path, body, headers, **kwargs)


def exchange(app, data, timeout=10.0):
    """Send *data* in one write; everything read until the server
    closes the connection."""
    with socket.create_connection((app.host, app.port), timeout) as sock:
        sock.sendall(data)
        received = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return received
                received += chunk
        except socket.timeout:
            raise AssertionError(
                f"connection left open after {received!r}"
            ) from None


def read_response(stream):
    """One response from a socket file: ``(status, head, body)``."""
    head = stream.readline()
    while not head.endswith(b"\r\n\r\n"):
        line = stream.readline()
        assert line, f"connection closed inside the head {head!r}"
        head += line
    length = re.search(rb"\r\nContent-Length: (\d+)\r\n", head)
    body = stream.read(int(length.group(1))) if length else b""
    return int(head.split(b" ", 2)[1]), head, body


def split(raw):
    """``(status, head, body)`` of the one response in *raw*."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    assert sep, f"no complete head in {raw!r}"
    return int(head.split(b" ", 2)[1]), head + sep, body


def pinned_head(status, body, extra=""):
    """The exact head of a JSON answer, ``Date`` masked."""
    return (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        f"Server: repro-serve/1.0 {BaseHTTPRequestHandler.sys_version}\r\n"
        "Date: *\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}\r\n"
    ).encode("latin-1")


def assert_pinned(raw, status, extra=""):
    got, head, body = split(raw)
    assert got == status
    masked, dates = DATE.subn(b"Date: *\r\n", head)
    assert dates == 1, head
    assert masked == pinned_head(status, body, extra)
    return json.loads(body)


def assert_error_page(raw, status):
    """A request line the server cannot read is answered as HTTP/0.9,
    as the stdlib does: its HTML error page without a head."""
    assert not raw.startswith(b"HTTP/"), raw
    assert b"<p>Error code: %d</p>" % status in raw


class TestRequestLine:
    def test_well_formed_keeps_the_connection_open(self, app):
        with socket.create_connection((app.host, app.port), 10) as sock:
            stream = sock.makefile("rb")
            for _ in range(2):
                sock.sendall(request("GET", "/stats"))
                status, _, body = read_response(stream)
                assert status == 200
                assert "requests" in json.loads(body)

    def test_http09_get_is_answered_with_the_body_alone(self, app):
        raw = exchange(app, b"GET /stats\r\n\r\n")
        assert not raw.startswith(b"HTTP/")
        assert "requests" in json.loads(raw)

    @pytest.mark.parametrize(
        "line, status",
        [
            (b"HELLO", 400),
            (b"POST /estimate", 400),  # HTTP/0.9 knows only GET
            (b"GET / HTTP/1.1 extra", 400),
            (b"GET / HTTP/1.x", 400),
            (b"GET / HTTP/1.1.1", 400),
            (b"GET / HTTQ/1.1", 400),
            (b"GET / HTTP/2.0", 505),
        ],
    )
    def test_bad_request_line(self, app, line, status):
        raw = exchange(app, line + b"\r\nHost: test\r\n\r\n")
        assert_error_page(raw, status)

    def test_double_slash_path_collapses(self, app):
        status, _, body = split(
            exchange(app, request("GET", "//stats", headers=[
                ("Connection", "close")]))
        )
        assert status == 200
        assert "requests" in json.loads(body)


class TestHeaderLimits:
    @pytest.mark.parametrize(
        "fields, status",
        # the stdlib's limit counts the head's closing blank line
        [(99, 200), (100, 431), (101, 431)],
    )
    def test_header_count(self, app, fields, status):
        headers = [(f"X-Field-{i}", "v") for i in range(fields - 2)]
        raw = exchange(
            app,
            # Host and Connection make up the rest of *fields*
            request("GET", "/stats", headers=headers + [
                ("Connection", "close")]),
        )
        assert split(raw)[0] == status

    @pytest.mark.parametrize(
        "line_bytes, status", [(65536, 200), (65537, 431)]
    )
    def test_header_line_length(self, app, line_bytes, status):
        name = "X-Long"
        value = "a" * (line_bytes - len(name) - len(": \r\n"))
        raw = exchange(
            app,
            request("GET", "/stats", headers=[
                (name, value), ("Connection", "close")]),
        )
        assert split(raw)[0] == status


class TestConnectionHandling:
    def test_expect_100_continue(self, app):
        head = post(headers=[("Expect", "100-continue")])[: -len(BODY)]
        with socket.create_connection((app.host, app.port), 10) as sock:
            stream = sock.makefile("rb")
            sock.sendall(head)
            assert stream.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert stream.readline() == b"\r\n"
            sock.sendall(BODY)
            status, _, body = read_response(stream)
        assert status == 200
        assert json.loads(body)["count"] == 1

    def test_connection_close(self, app):
        raw = exchange(app, post(headers=[("Connection", "close")]))
        assert split(raw)[0] == 200

    def test_http10_closes_without_keep_alive(self, app):
        raw = exchange(app, post(version="HTTP/1.0"))
        assert split(raw)[0] == 200

    def test_lower_case_content_length(self, app):
        data = request("POST", "/estimate", BODY, [
            ("content-length", len(BODY)), ("connection", "close")])
        status, _, body = split(exchange(app, data))
        assert status == 200
        assert json.loads(body)["count"] == 1


class TestPinnedHeads:
    def test_200(self, app):
        payload = assert_pinned(
            exchange(app, post(headers=[("Connection", "close")])), 200
        )
        assert payload["count"] == 1

    def test_400(self, app):
        payload = assert_pinned(
            exchange(app, post(b"{not json", headers=[
                ("Connection", "close")])),
            400,
        )
        assert "invalid JSON" in payload["error"]

    def test_404(self, app):
        assert_pinned(
            exchange(app, request("GET", "/nope", headers=[
                ("Connection", "close")])),
            404,
        )

    def test_413(self, app):
        data = request("POST", "/estimate", headers=[
            ("Content-Length", MAX_BODY_BYTES + 1)])
        assert_pinned(exchange(app, data), 413)

    def test_422(self, app):
        body = json.dumps({"queries": [UNCOVERED]}).encode("utf-8")
        payload = assert_pinned(
            exchange(app, post(body, headers=[("Connection", "close")])),
            422,
        )
        assert payload["reason"] == "uncovered_shape"

    def test_429_with_retry_after(self, gated_app):
        app, gate, entered = gated_app(
            first_only=True, max_batch=1, max_queue=1
        )
        with ThreadPoolExecutor(max_workers=2) as pool:
            blocker = pool.submit(exchange, app, post(
                headers=[("Connection", "close")]), 60.0)
            assert entered.wait(30.0)
            filler = pool.submit(exchange, app, post(
                headers=[("Connection", "close")]), 60.0)
            deadline = time.monotonic() + 30.0
            while (
                app.scheduler.stats()["queue_depth"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            raw = exchange(app, post(headers=[("Connection", "close")]))
            gate.set()
            assert split(blocker.result(30.0))[0] == 200
            assert split(filler.result(30.0))[0] == 200
        _, _, body = split(raw)
        retry = max(1, math.ceil(json.loads(body)["retry_after_s"]))
        payload = assert_pinned(raw, 429, f"Retry-After: {retry}\r\n")
        assert payload["reason"] == "queue_full"

    def test_503_while_draining(self, snapshot_dir, checkpoint_dir):
        app = ServingApp(snapshot_dir, checkpoint_dir, port=0).start()
        try:
            app.server.begin_drain()
            payload = assert_pinned(exchange(app, post()), 503)
        finally:
            app.close()
        assert payload["reason"] == "draining"


class TestOneWritePerResponse:
    def test_each_json_response_is_one_write(self, app, monkeypatch):
        writes = []

        class Spy(app.server.RequestHandlerClass):
            def setup(self):
                super().setup()
                write = self.wfile.write

                def spy(data):
                    writes.append(bytes(data))
                    return write(data)

                self.wfile.write = spy

        monkeypatch.setattr(app.server, "RequestHandlerClass", Spy)
        requests = [
            post(),
            post(b"{not json"),
            request("GET", "/stats"),
            request("GET", "/nope", headers=[("Connection", "close")]),
        ]
        raw = exchange(app, b"".join(requests))
        assert len(writes) == len(requests)
        assert b"".join(writes) == raw
        assert [split(write)[0] for write in writes] == [200, 400, 200, 404]
        for write in writes:
            _, head, body = split(write)
            assert head.endswith(b"Content-Length: %d\r\n\r\n" % len(body))


class TestAmbiguousFraming:
    """A head whose body framing is ambiguous is a 400 that closes the
    connection, so no byte after it is read as another request."""

    SMUGGLED = b"GET /stats HTTP/1.1\r\nHost: test\r\n\r\n"

    def test_duplicate_content_length(self, app):
        data = request(
            "POST", "/estimate", BODY + self.SMUGGLED,
            [
                ("Content-Length", len(BODY)),
                ("Content-Length", len(BODY) + len(self.SMUGGLED)),
            ],
        )
        raw = exchange(app, data)
        assert raw.count(b"HTTP/1.1 ") == 1
        status, head, _ = split(raw)
        assert status == 400
        assert b"\r\nConnection: close\r\n" in head

    def test_transfer_encoding_with_content_length(self, app):
        data = request(
            "POST", "/estimate", BODY + self.SMUGGLED,
            [
                ("Content-Length", len(BODY)),
                ("Transfer-Encoding", "chunked"),
            ],
        )
        raw = exchange(app, data)
        assert raw.count(b"HTTP/1.1 ") == 1
        status, head, _ = split(raw)
        assert status == 400
        assert b"\r\nConnection: close\r\n" in head

    @pytest.mark.parametrize(
        "bad_line",
        [b"X-No-Colon", b"X-Note : a", b"X-Note: a\r\n  folded"],
        ids=["no-colon", "space-before-colon", "obs-fold"],
    )
    def test_malformed_header_line(self, app, bad_line):
        data = (
            b"POST /estimate HTTP/1.1\r\nHost: test\r\n" + bad_line
            + b"\r\nContent-Length: %d\r\n\r\n" % len(BODY)
            + BODY + self.SMUGGLED
        )
        raw = exchange(app, data)
        assert raw.count(b"HTTP/1.1 ") == 1
        assert split(raw)[0] == 400
