"""The benchmark: one seeded workload, timed, checked, summarised.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cp-explain --seed 1 --seconds 25 --trace 0

Workloads: ``prsq-scan`` (whole-dataset PRSQ probabilities), ``cp-explain``
(Algorithm CP on distinct non-answers) and ``serve-mixed`` (CP reads and
writes through a ``repro serve`` subprocess).  Inputs come from
``gen.py``; every output is checked against ``reference.py``.  The last
line printed is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from a separate traced pass) with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import gen
import reference
import servebench
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("prsq-scan", "cp-explain", "serve-mixed")
INPROC_SETUPS = 10         # set-ups timed per in-process run (median reported)
SERVE_SETUPS = 4           # server spawns timed per serve run
WORKER_TIMEOUT_S = 170.0

# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------
def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile; a failed op is +inf and stays in."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == math.inf:
        return ordered[lo] if pos == lo else math.inf
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latencies(rows: List[dict]) -> List[float]:
    return [row["ms"] if row["ok"] else math.inf for row in rows]


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def run_worker(work: Path, job: Dict[str, Any]) -> dict:
    """Run ``inproc.py`` on *job*; return its result, each pass with the
    ``rows`` it streamed."""
    name = f"job-{len(list(work.glob('job-*.json')))}"
    job = dict(job, out=str(work / f"{name}.out.json"))
    job_path = work / f"{name}.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "inproc.py"), str(job_path)],
        cwd=ROOT, env=servebench.child_env(ROOT),
        stdin=subprocess.DEVNULL,
    )
    code, _ = servebench.reap(proc, WORKER_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"in-process worker failed with exit code {code}")
    out = Path(job["out"])
    result = json.loads(out.read_text())
    for name in ("timed", "traced"):
        if name in result:
            with out.with_suffix(f".{name}.ndjson").open() as rows:
                result[name]["rows"] = [json.loads(line) for line in rows]
    return result


# ---------------------------------------------------------------------------
# checks against the reference
# ---------------------------------------------------------------------------
class _Pair:
    """The reference of one (non-answer, query point) pair, its shift
    margin once needed, and the problems found per distinct result."""

    def __init__(self, ref: reference.PairReference):
        self.ref = ref
        self.margin: Optional[float] = None
        self.verdicts: Dict[Tuple[int, str], List[str]] = {}


class Checker:
    """Marks failed rows; a failed check also makes the run incorrect."""

    def __init__(self, table: reference.Table, alpha: float):
        self.table = table
        self.alpha = alpha
        self.correct = True
        self.problems: List[str] = []
        self._pairs: Dict[Tuple[str, Tuple[float, ...]], _Pair] = {}

    def fail(self, row: dict, message: str) -> None:
        row["ok"] = False
        self.correct = False
        if len(self.problems) < 5:
            self.problems.append(message)

    def prsq(self, row: dict, q: List[float]) -> None:
        expected = reference.direct_probabilities(self.table.objects, q)
        got = row["probabilities"]
        if sorted(got) != sorted(self.table.ids):
            return self.fail(row, f"prsq at {q}: object ids differ")
        for oid, want in zip(self.table.ids, expected):
            have = got[oid]
            if not 0.0 <= have <= 1.0 or not reference.close(have, float(want)):
                return self.fail(row, f"prsq at {q}: Pr({oid}) = {have}, reference {want}")

    def cp(self, row: dict, op: dict) -> None:
        """Definition 1 for one CP result.  An op whose ``q`` is its pair's
        ``q0`` moved by less than the pair's reference margin has exactly
        the reference of ``q0``, so its verdict is looked up by result."""
        q0 = tuple(op.get("q0", op["q"]))
        shift = max(abs(a - b) for a, b in zip(op["q"], q0))
        pair = self._pairs.get((op["an"], q0))
        if pair is None:
            pair = self._pairs[(op["an"], q0)] = _Pair(
                reference.PairReference(self.table, op["an"], q0, self.alpha)
            )
        if shift > 0 and pair.margin is None:
            pair.margin = reference.PairReference.margin(self.table, op["an"], q0)
        if shift > 0 and pair.margin <= 2 * shift:
            pair = _Pair(reference.PairReference(self.table, op["an"], op["q"], self.alpha))
        got = (row["stats"]["candidates"], json.dumps(row["causes"]))
        problems = pair.verdicts.get(got)
        if problems is None:
            problems = pair.verdicts[got] = pair.ref.check(row["causes"])
            if got[0] != len(pair.ref.candidates):
                problems.append(f"{got[0]} candidates, reference {len(pair.ref.candidates)}")
        if problems:
            self.fail(row, f"cp {op['an']} at {op['q']}: {problems[0]}")

    def rows(self, ops: List[dict], rows: List[dict], n_objects: int) -> Dict[str, dict]:
        """Check every ok row of one pass against its op.  Served reads
        must echo the current version; each write must advance it by one
        and leave the right object count.  Returns the benchmark-owned
        objects present after the acknowledged writes (id -> insert or
        update op)."""
        live: Dict[str, dict] = {}
        version = None
        for op, row in zip(ops, rows):
            if not row["ok"]:
                continue
            if op["op"] == "prsq":
                self.prsq(row, op["q"])
            elif op["op"] == "read":
                self.cp(row, op)
                seen = row.get("version")
                if version is None:
                    version = seen
                elif seen is not None and seen != version:
                    self.fail(row, f"read saw version {seen}, expected {version}")
            else:
                if op["kind"] == "delete":
                    live.pop(op["id"], None)
                else:
                    live[op["id"]] = op
                if row["n_objects"] != n_objects + len(live):
                    self.fail(row, f"write left {row['n_objects']} objects, "
                                   f"expected {n_objects + len(live)}")
                if version is not None and row["version"] != version + 1:
                    self.fail(row, f"write gave version {row['version']} after {version}")
                version = row["version"]
        return live


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
def window(args) -> float:
    """The untraced window: all of ``--seconds``, or half of it in a traced
    run, whose traced pass repeats the same operations."""
    return args.seconds / 2 if args.trace else args.seconds


def end_to_end(setups: List[float], rows: List[dict], window_s: float,
               reads: List[dict], rss_kb: int) -> Dict[str, float]:
    done = sum(1 for row in rows if row["ok"])
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": done / window_s,
        "read_p50_ms": quantile(latencies(reads), 0.5),
        "read_p99_ms": quantile(latencies(reads), 0.99),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def stats_means(reads: List[dict]) -> Dict[str, float]:
    computed = [row for row in reads if row["ok"] and not row.get("cached")]
    stats = [row["stats"] for row in computed if "stats" in row]
    return {
        "index.node_accesses": mean([row["node_accesses"] or 0 for row in computed]),
        "prsq.oracle_evaluations": mean([s["oracle_evaluations"] for s in stats]),
        "core.candidates": mean([s["candidates"] for s in stats]),
        "core.subsets_examined": mean([s["subsets_examined"] for s in stats]),
    }


def span_metrics(spans: Dict[str, dict], per_read: int, per_op: int) -> Dict[str, float]:
    """Figures from one traced pass's span aggregate: the read-path ones
    per read, the envelope and layer totals per operation."""
    per_read, per_op = max(per_read, 1), max(per_op, 1)
    busy = tracing.busy_ms
    layers = tracing.layer_totals(spans)
    out = {
        "index.filter_ms": layers["index"]["busy_s"] * 1e3 / per_read,
        "prsq.probability_ms": busy(spans, "prsq.eq2") / per_read,
        "prsq.eq2_calls": tracing.count(spans, "prsq.eq2") / per_read,
        "prsq.oracle_build_ms": busy(spans, "prsq.oracle_build") / per_read,
        "core.refine_ms": (
            busy(spans, "core.compute_causality")
            - busy(spans, "core.find_candidate_causes")
            - busy(spans, "prsq.oracle_build")
        ) / per_read,
        "api.envelope_ms": busy(spans, "api.from_outcome", "api.to_dict") / per_op,
    }
    for layer, figures in layers.items():
        out[f"layer.{layer}.count"] = figures["count"] / per_op
        out[f"layer.{layer}.busy_ms"] = figures["busy_s"] * 1e3 / per_op
        out[f"layer.{layer}.self_ms"] = figures["self_s"] * 1e3 / per_op
    return out


def overhead(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    base = quantile(latencies(untraced), 0.5)
    with_trace = quantile(latencies(traced), 0.5)
    return {
        "trace.overhead_ms": with_trace - base,
        "trace.overhead_pct": 100.0 * (with_trace - base) / base,
    }


def run_inprocess(args, work: Path, manifest: dict, checker: Checker) -> dict:
    result = run_worker(work, {
        "manifest": str(work / "manifest.json"), "seconds": window(args),
        "setups": INPROC_SETUPS, "trace": bool(args.trace),
    })
    ops = list(gen.ops_of(manifest))
    passes = ["timed", "traced"] if args.trace else ["timed"]
    for name in passes:
        checker.rows(ops, result[name]["rows"], len(checker.table.ids))
    all_rows = [row for name in passes for row in result[name]["rows"]]
    summary = {"attempted": len(all_rows), "failed": sum(not r["ok"] for r in all_rows)}

    timed = result["timed"]["rows"]
    if not args.trace:
        summary["metrics"] = end_to_end(result["setup_s"], timed,
                                        result["timed"]["window_s"], timed,
                                        result["timed"]["rss_kb"])
        return summary

    reads = result["traced"]["rows"]
    spans = result["traced"]["spans"]
    metrics = span_metrics(spans, len(reads), len(reads))
    metrics.update(stats_means(reads))
    metrics.update({
        "engine.query_ms": tracing.busy_ms(spans, "engine.query") / max(len(reads), 1),
        "engine.cache_hit_ratio": mean([float(bool(row.get("cached"))) for row in reads]),
    })
    metrics.update(overhead(timed, reads))
    summary["metrics"] = metrics
    return summary


def _serve_pass(args, manifest: dict, ops: List[dict], spans_path: Optional[Path],
                limit: Optional[int], setups: int) -> Tuple[dict, List[float], int, dict]:
    """Run the op sequence against a fresh server; time *setups* spawns in
    all, half before the sequence (the last of them serves it) and half
    after.  Return the pass, the set-up times, the serving process's peak
    RSS and its final ``stats`` answer."""
    times: List[float] = []

    def spawn() -> servebench.Server:
        server = servebench.Server(ROOT, manifest["data"], spans_path)
        times.append(server.setup_s)
        return server

    for _ in range((setups + 1) // 2 - 1):
        spawn().stop()
    server = spawn()
    try:
        seq = servebench.run_sequence(
            server, ops, manifest["round"], manifest["alpha"],
            None if limit is not None else window(args), limit,
        )
        stats, _ = server.request({"op": "stats"})
    finally:
        rss_kb = server.stop()
    for _ in range(setups // 2):
        spawn().stop()
    servebench.decode_rows(seq["rows"])
    return seq, times, rss_kb, stats


def check_final_state(work: Path, manifest: dict, live: Dict[str, dict],
                      stats: dict, checker: Checker) -> None:
    """The final object set must be the initial set plus the acknowledged
    deltas (*live*): same object count, and the server's fingerprint equal
    to that of a fresh load of the expected dataset."""
    expected_csv = work / "expected.csv"
    shutil.copyfile(manifest["data"], expected_csv)
    with expected_csv.open("a", newline="") as handle:
        for op in live.values():
            for sample, prob in zip(op["samples"], op["probabilities"]):
                handle.write(",".join([op["id"], repr(prob)] + [repr(v) for v in sample]) + "\n")
    fresh = run_worker(work, {"fingerprint_of": str(expected_csv)})
    info = stats["datasets"]["default"]
    want_n = len(checker.table.ids) + len(live)
    if info["objects"] != want_n or info["fingerprint"] != fresh["fingerprint"]:
        checker.correct = False
        checker.problems.append(
            f"final state: {info['objects']} objects (expected {want_n}), "
            f"fingerprint match {info['fingerprint'] == fresh['fingerprint']}"
        )


def run_serve(args, work: Path, manifest: dict, checker: Checker) -> dict:
    ops = manifest["ops"]
    n = len(checker.table.ids)
    seq, setups, rss_kb, stats = _serve_pass(
        args, manifest, ops, None, None, 1 if args.trace else SERVE_SETUPS
    )
    rows = seq["rows"]
    check_final_state(work, manifest, checker.rows(ops, rows, n), stats, checker)
    attempted = len(rows)
    reads = [row for op, row in zip(ops, rows) if op["op"] == "read"]
    writes = [row for op, row in zip(ops, rows) if op["op"] == "write"]
    if not args.trace:
        metrics = end_to_end(setups, rows, seq["window_s"], reads, rss_kb)
        return {"attempted": attempted, "failed": sum(not r["ok"] for r in rows),
                "metrics": metrics}

    # Traced: the same op prefix again through the span-wrapping launcher,
    # and in-process through the client for the engine-only comparison.
    spans_path = work / "server-spans.json"
    traced, _, _, traced_stats = _serve_pass(args, manifest, ops, spans_path, len(rows), 1)
    check_final_state(work, manifest, checker.rows(ops, traced["rows"], n),
                      traced_stats, checker)
    spans = json.loads(spans_path.read_text())
    replay = run_worker(work, {
        "manifest": str(work / "manifest.json"), "seconds": None, "limit": len(rows),
        "setups": 1, "trace": False,
    })
    replay_rows = replay["timed"]["rows"]
    checker.rows(ops, replay_rows, n)
    attempted += len(traced["rows"]) + len(replay_rows)
    failed = sum(not r["ok"] for r in rows + traced["rows"] + replay_rows)

    t_rows = traced["rows"]
    t_reads = [row for op, row in zip(ops, t_rows) if op["op"] == "read"]
    t_writes = [row for op, row in zip(ops, t_rows) if op["op"] == "write"]
    replay_reads = [row for op, row in zip(ops, replay_rows) if op["op"] == "read"]
    metrics = span_metrics(spans, len(t_reads), len(t_rows))
    metrics.update(stats_means(reads))
    apply_ms = tracing.busy_ms(spans, "uncertain.apply") / max(len(t_writes), 1)
    publish_ms = tracing.busy_ms(spans, "uncertain.read_snapshot") / max(len(t_writes), 1)
    roundtrip = mean([row["ms"] for row in reads if row["ok"]])
    engine = mean([row["engine_ms"] for row in reads if row["ok"]])
    metrics.update({
        "engine.query_ms": mean([row["ms"] for row in replay_reads if row["ok"]]),
        "engine.cache_hit_ratio": mean([float(bool(row.get("cached"))) for row in reads]),
        "uncertain.apply_ms": apply_ms,
        "uncertain.publish_ms": publish_ms,
        "serve.roundtrip_ms": roundtrip,
        "serve.engine_ms": engine,
        "serve.wire_ms": roundtrip - engine,
        "serve.write_p50_ms": quantile(latencies(writes), 0.5),
        "serve.write_ack_ms": mean([row["ms"] for row in t_writes if row["ok"]])
        - apply_ms - publish_ms,
        "serve.response_bytes": mean([row["bytes"] for row in rows if "bytes" in row]),
    })
    metrics.update(overhead(reads, t_reads))
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    # Every process of the run shares one CPU: a served request then wakes
    # the server and the client on the same CPU, not through a cross-CPU
    # wake-up, whose cost on a shared virtual machine swings from run to
    # run; one closed-loop caller keeps just one process busy at a time.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        reference.self_check(np.random.default_rng([args.seed, 1]))
        manifest, table = gen.generate(args.workload, args.seed, work)
        checker = Checker(table, manifest["alpha"])
        run = run_serve if args.workload == "serve-mixed" else run_inprocess
        summary = run(args, work, manifest, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # left alone while not empty
            work.parent.rmdir()

    # Names and units come from BENCHMARK.json.  A per-layer metric of a
    # layer the workload does not reach reads 0; an end-to-end one must exist.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {
        m["name"]: {
            "value": float(summary["metrics"].get(m["name"], 0.0) if args.trace
                           else summary["metrics"][m["name"]]),
            "unit": m["unit"],
        }
        for m in declared[kind]
    }
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
