"""Drive a ``repro serve`` subprocess over one NDJSON connection.

The server is started as ``python -m repro serve`` (or, for the traced
run, through ``serve_launcher.py``, which wraps the server's public entry
points first) on a free port.  Set-up time runs from the spawn to the first
answered ping.  One connection and one request in flight at a time keep
the order of cache hits, misses and snapshot publishes the same on every
run.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

READY = re.compile(rb" on [^ ]+:(\d+) ")
START_TIMEOUT_S = 120.0
IO_TIMEOUT_S = 60.0


def child_env(root: Path, **extra: str) -> Dict[str, str]:
    """The environment of a process that hosts the program: the checkout's
    ``src`` first on the path, one BLAS/OpenMP thread (a run has one CPU,
    see ``run.main``) and a fixed string-hash seed, so set and dict
    layouts do not vary between runs."""
    return dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", PYTHONHASHSEED="0", **extra)


def reap(proc: subprocess.Popen, timeout: float):
    """Wait up to *timeout* for *proc*, killing it past that; return its
    exit code and resource usage (peak RSS in ``ru_maxrss``)."""
    deadline = time.monotonic() + timeout
    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    while pid == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    if pid == 0:
        proc.kill()
        pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


class Server:
    """One server process plus the NDJSON connection to it."""

    def __init__(self, root: Path, csv_path: str, spans_path: Optional[Path] = None):
        if spans_path is None:
            env = child_env(root)
            argv = [sys.executable, "-m", "repro", "serve"]
        else:
            env = child_env(root, PERFBENCH_SPANS=str(spans_path))
            argv = [sys.executable, str(root / "perfbench" / "serve_launcher.py")]
        argv += ["--data", csv_path, "--port", "0"]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.sock: Optional[socket.socket] = None
        try:
            port = self._await_port()
            self.sock = socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT_S)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.reader = self.sock.makefile("rb")
            self._next_id = 0
            pong, _ = self.request({"op": "ping"})
            if not pong.get("pong"):
                raise RuntimeError(f"bad ping answer {pong!r}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        fd = self.proc.stderr.fileno()
        seen = b""
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    break
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                seen += chunk
                match = READY.search(seen)
                if match:
                    return int(match.group(1))
        raise RuntimeError(f"server did not start: {seen.decode(errors='replace')}")

    def request(self, frame: Dict[str, Any]) -> Tuple[Dict[str, Any], int]:
        """Send one frame, wait for its answer; return it with its size."""
        frame = dict(frame, id=self._next_id)
        self._next_id += 1
        self.sock.sendall(json.dumps(frame).encode() + b"\n")
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line), len(line)

    def stop(self) -> int:
        """SIGTERM, wait, and return the server's peak RSS in KiB."""
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = None
        if self.proc.returncode is not None:
            return 0
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + START_TIMEOUT_S
        fd = self.proc.stderr.fileno()
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(fd, selectors.EVENT_READ)
                # Drain stderr until the server exits and closes it.
                while time.monotonic() < deadline and sel.select(
                    timeout=deadline - time.monotonic()
                ):
                    if not os.read(fd, 65536):
                        break
            _, usage = reap(self.proc, max(deadline - time.monotonic(), 0.0))
        finally:
            self.proc.stderr.close()
        return usage.ru_maxrss


def _frame(op: dict, alpha: float) -> Dict[str, Any]:
    if op["op"] == "read":
        spec = {"kind": "causality", "an": op["an"], "q": op["q"], "alpha": alpha}
    elif op["kind"] == "delete":
        spec = {"kind": "update", "deletes": [op["id"]]}
    else:
        entry = [op["id"], op["samples"], op["probabilities"], None]
        spec = {"kind": "update", op["kind"] + "s": [entry]}
    return {"op": "query", "spec": spec}


def _row(answer: Dict[str, Any], size: int, ms: float, op: dict) -> Dict[str, Any]:
    row: Dict[str, Any] = {"ms": ms, "ok": bool(answer.get("ok")), "bytes": size,
                           "version": answer.get("session_version")}
    result = answer.get("result")
    if not row["ok"] or result is None:
        row["ok"] = False
        row["error"] = (answer.get("error") or (result or {}).get("error") or {}).get("code")
        return row
    run = result["run"]
    row["engine_ms"] = run["elapsed_s"] * 1e3
    row["cached"] = run["cached"]
    value = result["value"]
    if op["op"] == "read":
        row["node_accesses"] = run["node_accesses"]
        row["causes"] = [
            [c["id"], c["responsibility"], c["contingency_set"]] for c in value["causes"]
        ]
        row["stats"] = value["stats"]
    else:
        row["n_objects"] = value["n_objects"]
    return row


def run_sequence(server: Server, ops: List[dict], round_len: int, alpha: float,
                 seconds: Optional[float], limit: Optional[int]) -> dict:
    """Closed loop over *ops* in whole rounds (see ``inproc.run_pass``)."""
    rows: List[Dict[str, Any]] = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if limit is not None and i >= limit:
            break
        if (
            seconds is not None
            and i % round_len == 0
            and time.perf_counter() - start >= seconds
        ):
            break
        frame = _frame(op, alpha)
        began = time.perf_counter()
        try:
            answer, size = server.request(frame)
        except (OSError, ValueError) as exc:
            rows.append({"ms": (time.perf_counter() - began) * 1e3, "ok": False,
                         "error": f"{type(exc).__name__}: {exc}"})
            continue
        rows.append(_row(answer, size, (time.perf_counter() - began) * 1e3, op))
    return {"rows": rows, "window_s": time.perf_counter() - start}


def _decode(value: Any) -> Any:
    """Undo the wire's tagged tuple encoding of contingency sets."""
    if isinstance(value, dict) and "$tuple" in value:
        return [_decode(v) for v in value["$tuple"]]
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def decode_rows(rows: List[Dict[str, Any]]) -> None:
    for row in rows:
        if "causes" in row:
            row["causes"] = [[c, r, _decode(g)] for c, r, g in row["causes"]]
