"""Single-threaded open-loop HTTP/1.1 load generator.

Requests go out on a fixed schedule whatever the server does: each one
is written when it falls due, pipelined onto the keep-alive connection
with the fewest requests in flight, and its latency is timed from the
moment it was *due*, so a stall is charged to every request queued
behind it (no coordinated omission).  How late the generator itself
wrote each request is recorded too, as a validity check on the
generator.

Responses are kept as raw bytes and decoded after the run, so the
generator spends its time on the wire, not on JSON.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

now = time.perf_counter

#: Seconds the generator waits for responses after the last request
#: falls due; a request still unanswered then counts as timed out.
REQUEST_TIMEOUT = 5.0


def http_request(path: str, payload: Dict[str, object]) -> bytes:
    """One complete keep-alive POST with a JSON body."""
    body = json.dumps(payload).encode("utf-8")
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


def http_get(port: int, path: str, timeout: float = 5.0
             ) -> Tuple[int, bytes]:
    """One blocking GET on a fresh connection: ``(status, body)``."""
    with socket.create_connection(("127.0.0.1", port), timeout) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1")
        )
        data = bytearray()
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _sep, body = bytes(data).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


class Request:
    """One scheduled request and what became of it."""

    __slots__ = ("due", "payload", "heavy", "sent", "done", "status",
                 "body")

    def __init__(self, due: float, payload: bytes, heavy: bool) -> None:
        self.due = due          # seconds after the run's start
        self.payload = payload  # the full request bytes
        self.heavy = heavy      # long-running (e.g. /accept)
        self.sent: Optional[float] = None
        self.done: Optional[float] = None
        self.status = 0         # 0 = no response (timeout / reset)
        self.body = b""

    @property
    def latency(self) -> float:
        """Seconds from due to response (``inf`` when none came)."""
        if self.done is None:
            return float("inf")
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator wrote this request after it was due."""
        return 0.0 if self.sent is None else self.sent - self.due

    @property
    def ok(self) -> bool:
        return self.status == 200


class _Connection:
    __slots__ = ("sock", "inflight", "rbuf", "wbuf", "heavy")

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), 5.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.inflight: Deque[Request] = deque()
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        self.heavy = 0


class OpenLoop:
    """Keep-alive connections to one server, driven on a schedule."""

    def __init__(self, port: int, connections: int) -> None:
        if connections < 1:
            raise ValueError("need at least one connection")
        self._conns = [_Connection(port) for _ in range(connections)]
        self._selector = selectors.DefaultSelector()
        for conn in self._conns:
            self._selector.register(conn.sock, selectors.EVENT_READ, conn)

    def close(self) -> None:
        self._selector.close()
        for conn in self._conns:
            conn.sock.close()

    def __enter__(self) -> "OpenLoop":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _pick(self) -> _Connection:
        # A connection holding a long request would head-of-line block
        # everything pipelined behind it; prefer the others.
        return min(self._conns, key=lambda c: (c.heavy, len(c.inflight)))

    def run(self, requests: Sequence[Request]) -> None:
        """Send ``requests`` on schedule.

        Request times (``sent``/``done``) are absolute ``perf_counter``
        readings; ``due`` is converted to absolute in place.
        """
        start = now() + 0.005
        for request in requests:
            request.due += start
        total = len(requests)
        finished = 0
        index = 0
        hard_stop = (requests[-1].due if requests else start) + REQUEST_TIMEOUT
        selector = self._selector
        while finished < total:
            t = now()
            while index < total and requests[index].due <= t:
                request = requests[index]
                conn = self._pick()
                conn.wbuf += request.payload
                conn.inflight.append(request)
                if request.heavy:
                    conn.heavy += 1
                request.sent = t
                index += 1
            writing = False
            for conn in self._conns:
                if conn.wbuf:
                    try:
                        sent = conn.sock.send(conn.wbuf)
                    except BlockingIOError:
                        sent = 0
                    del conn.wbuf[:sent]
                    writing = writing or bool(conn.wbuf)
            if t > hard_stop:
                break
            if writing:
                timeout = 0.0
            elif index < total:
                timeout = max(0.0, requests[index].due - now())
            else:
                timeout = 0.05
            for key, _mask in selector.select(timeout):
                finished += self._read(key.data)

    def _read(self, conn: _Connection) -> int:
        try:
            data = conn.sock.recv(262144)
        except BlockingIOError:
            return 0
        if not data:
            raise ConnectionError("server closed a keep-alive connection")
        t = now()
        buf = conn.rbuf
        buf += data
        finished = 0
        while True:
            head_end = buf.find(b"\r\n\r\n")
            if head_end < 0:
                break
            head = bytes(buf[:head_end])
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _sep, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            end = head_end + 4 + length
            if len(buf) < end:
                break
            request = conn.inflight.popleft()
            request.status = int(head.split(b" ", 2)[1])
            request.body = bytes(buf[head_end + 4:end])
            request.done = t
            if request.heavy:
                conn.heavy -= 1
            del buf[:end]
            finished += 1
        return finished


def schedule(rate: float, payloads: Sequence[bytes],
             heavy_at: Optional[Dict[int, bytes]] = None) -> List[Request]:
    """Requests due ``i / rate`` seconds after the run starts;
    ``heavy_at`` replaces the payload at those slots with a
    long-running request."""
    heavy_at = heavy_at or {}
    out = []
    for i, payload in enumerate(payloads):
        heavy = heavy_at.get(i)
        out.append(Request(
            i / rate, payload if heavy is None else heavy,
            heavy is not None,
        ))
    return out
