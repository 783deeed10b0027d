"""Line protocol for serving and querying one-step oracles across processes.

Request lines read "STEP <x...> <nu...> <d...>" with space-separated decimals
in signature order; responses are "OK <x'...>" or "ERR <message>".  One request
per line; responses arrive in request order, so a client may pipeline.  The
client side enforces a per-query timeout and surfaces "ERR" responses and
malformed replies as oracle/protocol errors.  A pipelining client keeps at
most WINDOW_BYTES of requests unanswered, well under one pipe buffer, so its
writes never block while the server waits for it to read replies.
"""

from __future__ import annotations

import os
import select
import shlex
import subprocess
import time

import numpy as np

from .errors import OracleError, ProtocolError
from .model import BlackBoxSystem, SystemSignature

Array = np.ndarray

# Request bytes a pipelining client may have unanswered at once.  A pipe holds
# 64 KiB on Linux and at least 16 KiB elsewhere; staying well below that means
# the server's input never fills, so a client write never blocks.
WINDOW_BYTES = 8192


def format_request(x, nu, d) -> str:
    parts = ["STEP"]
    for vec in (x, nu, d):
        parts.extend(repr(float(v)) for v in np.atleast_1d(np.asarray(vec, dtype=float)))
    return " ".join(parts)


def serve_oracle(sys: BlackBoxSystem, stdin=None, stdout=None) -> None:
    """Answer STEP requests on stdin until end of stream."""
    import sys as _sys
    stdin = stdin if stdin is not None else _sys.stdin
    stdout = stdout if stdout is not None else _sys.stdout
    sig = sys.signature
    n, m, p = sig.state_dim, sig.input_dim, sig.disturbance_dim
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] != "STEP":
            stdout.write(f"ERR unknown command {fields[0]}\n")
            stdout.flush()
            continue
        try:
            values = [float(v) for v in fields[1:]]
            if len(values) != n + m + p:
                raise ValueError(f"expected {n + m + p} numbers, got {len(values)}")
            x = np.asarray(values[:n])
            nu = np.asarray(values[n:n + m])
            d = np.asarray(values[n + m:])
            y = sys.step(x, nu, d)
            stdout.write("OK " + " ".join(repr(float(v)) for v in y) + "\n")
        except Exception as err:  # report, keep serving
            stdout.write(f"ERR {err}\n")
        stdout.flush()


class ExternalOracle:
    """Client for a subprocess speaking the STEP protocol."""

    def __init__(self, command, signature: SystemSignature, timeout: float = 5.0):
        if isinstance(command, str):
            command = shlex.split(command)
        self.signature = signature
        self.timeout = float(timeout)
        self._proc = subprocess.Popen(
            list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            bufsize=0)
        self._buf = b""

    def close(self) -> None:
        proc = self._proc
        if proc.stdin and not proc.stdin.closed:
            proc.stdin.close()
        try:
            proc.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        finally:
            if proc.stdout and not proc.stdout.closed:
                proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _send(self, data: bytes) -> None:
        proc = self._proc
        if proc.poll() is not None:
            raise OracleError("oracle process has exited")
        try:
            proc.stdin.write(data)
            proc.stdin.flush()
        except BrokenPipeError as err:
            raise OracleError("oracle process closed its input") from err

    def _read_line(self) -> str:
        deadline = time.monotonic() + self.timeout
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise OracleError(f"oracle reply timed out after {self.timeout} s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                raise OracleError(f"oracle reply timed out after {self.timeout} s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ProtocolError("oracle closed the stream mid-conversation")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode().strip()

    def _parse(self, line: str) -> Array:
        if not line:
            raise ProtocolError("empty oracle response")
        if line.startswith("ERR"):
            raise OracleError(line[3:].strip() or "oracle reported an error")
        if not line.startswith("OK"):
            raise ProtocolError(f"malformed oracle response {line!r}")
        try:
            values = [float(v) for v in line[2:].split()]
        except ValueError as err:
            raise ProtocolError(f"non-numeric oracle response {line!r}") from err
        if len(values) != self.signature.state_dim:
            raise ProtocolError(
                f"oracle returned {len(values)} values, expected "
                f"{self.signature.state_dim}")
        return np.asarray(values)

    @staticmethod
    def _request(x, nu, d) -> bytes:
        return (format_request(x, nu, np.empty(0) if d is None else d)
                + "\n").encode()

    def step(self, x, nu, d=None) -> Array:
        self._send(self._request(x, nu, d))
        return self._parse(self._read_line())

    def step_many(self, requests) -> list:
        """Pipeline many (x, nu, d) queries; responses in request order.

        At most WINDOW_BYTES of requests are unanswered at a time (one
        request when a single one is larger).  Every reply is read before any
        is parsed, so an "ERR" reply leaves the stream in step."""
        lines = [self._request(x, nu, d) for x, nu, d in requests]
        replies = []
        sent = 0
        in_flight = 0  # bytes of the requests sent and not yet answered
        while len(replies) < len(lines):
            first = sent
            while sent < len(lines) and (
                    sent == len(replies)
                    or in_flight + len(lines[sent]) <= WINDOW_BYTES):
                in_flight += len(lines[sent])
                sent += 1
            if sent > first:
                self._send(b"".join(lines[first:sent]))
            replies.append(self._read_line())
            in_flight -= len(lines[len(replies) - 1])
        return [self._parse(line) for line in replies]

    def as_system(self) -> BlackBoxSystem:
        """This oracle behind the batched contract: each batch of rows goes
        out pipelined through step_many."""
        n = self.signature.state_dim

        def oracle(x, nu, d):
            return np.asarray(self.step_many(zip(x, nu, d))).reshape(len(x), n)

        return BlackBoxSystem(signature=self.signature, oracle=oracle)
