"""The process that hosts the program for the in-process workloads.

Run by ``run.py`` as ``python3 perfbench/inproc.py JOB.json`` with the
checkout's ``src`` on ``PYTHONPATH``; writes its measurements to the
``out`` path named in the job.  Keeping the program in its own process
keeps the benchmark's inputs and reference data out of its peak RSS.

A job holds ``manifest`` (inputs from ``gen.py``), ``seconds`` (the timed
window), ``setups`` (how many set-ups to time), ``trace`` and, for a
replay of the serve sequence, ``limit`` (how many ops to replay).  Rows
of each pass go to ``<out>.timed.ndjson`` / ``<out>.traced.ndjson``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, TextIO, Tuple

from gen import ops_of
from tracing import Recorder, aggregate


def open_client(csv_path: str):
    """Load the CSV into a warm session: packed index, tensor, fingerprint."""
    from repro.api import connect

    client = connect(csv_path)
    client.session.dataset.tensor
    client.fingerprint
    return client


def _write(client, op: dict):
    if op["kind"] == "delete":
        return client.delete(op["id"])
    call = client.insert if op["kind"] == "insert" else client.update
    return call(op["id"], samples=op["samples"], probabilities=op["probabilities"])


def _record(client, op: dict, alpha: float) -> Dict[str, Any]:
    """Run one op; return its latency and what the checks need."""
    stats = client.session.dataset.access_stats
    before = stats.snapshot()
    start = time.perf_counter()
    try:
        if op["op"] == "prsq":
            env = client.prsq(op["q"], alpha=alpha, want="probabilities")
        elif op["op"] == "read":
            env = client.causality(op["an"], op["q"], alpha)
        else:
            env = _write(client, op)
    except Exception as exc:  # a failed operation is counted, not fatal
        return {"ms": (time.perf_counter() - start) * 1e3, "ok": False,
                "error": f"{type(exc).__name__}: {exc}"}
    ms = (time.perf_counter() - start) * 1e3
    row: Dict[str, Any] = {
        "ms": ms,
        "ok": env.ok,
        "cached": env.run.cached,
        "engine_ms": env.run.elapsed_s * 1e3,
        "node_accesses": (stats.snapshot() - before).node_accesses,
    }
    if not env.ok:
        row["error"] = env.error.code
    elif op["op"] == "prsq":
        row["probabilities"] = env.value.probabilities
    elif op["op"] == "read":
        row["causes"] = [
            [c.id, c.responsibility, list(c.contingency_set)] for c in env.value.causes
        ]
        row["stats"] = env.value.stats.to_dict()
    else:
        row["version"] = env.value.version
        row["n_objects"] = env.value.n_objects
    return row


def run_pass(client, ops: Iterable[dict], round_len: int, alpha: float,
             seconds: Optional[float], limit: Optional[int], sink: TextIO) -> dict:
    """Closed loop over *ops* in whole rounds until *seconds* pass (or
    *limit* ops ran, or the ops run out).  Each op's row goes to *sink* as
    one JSON line, so the rows do not grow this process's memory."""
    done = 0
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
        sink.write(json.dumps(_record(client, op, alpha)) + "\n")
        done += 1
    return {"ops": done, "window_s": time.perf_counter() - start}


def timed_setups(csv_path: str, count: int) -> Tuple[Any, List[float]]:
    """Open *count* clients, timing each; return the last and the times."""
    client, times = None, []
    for _ in range(count):
        started = time.perf_counter()
        client = open_client(csv_path)
        times.append(time.perf_counter() - started)
    return client, times


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    out = Path(job["out"])
    if "fingerprint_of" in job:
        client = open_client(job["fingerprint_of"])
        out.write_text(json.dumps({"fingerprint": client.fingerprint}))
        return
    manifest = json.loads(Path(job["manifest"]).read_text())
    alpha = manifest["alpha"]
    round_len = manifest["round"]
    data = manifest["data"]

    # Half the set-ups before the window and half after, so a change of
    # machine speed during the run moves their median less.
    client, setups = timed_setups(data, (job["setups"] + 1) // 2)
    with open(out.with_suffix(".timed.ndjson"), "w") as sink:
        timed = run_pass(client, ops_of(manifest), round_len, alpha,
                         job["seconds"], job.get("limit"), sink)
    # Peak RSS of the program with its inputs, before anything else runs.
    timed["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _, more = timed_setups(data, job["setups"] // 2)
    result: Dict[str, Any] = {"setup_s": setups + more, "timed": timed}
    if job["trace"]:
        client = open_client(data)
        recorder = Recorder().install()
        try:
            with open(out.with_suffix(".traced.ndjson"), "w") as sink:
                traced = run_pass(client, ops_of(manifest), round_len, alpha,
                                  None, timed["ops"], sink)
        finally:
            recorder.uninstall()
        traced["spans"] = aggregate(recorder.spans)
        result["traced"] = traced
    out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
