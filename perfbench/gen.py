"""Seeded inputs for every workload, made before any timing starts.

Everything derives from one integer seed; the same seed gives byte-equal
files.  Regenerate the inputs of one workload with::

    python3 perfbench/gen.py --workload cp-explain --seed 1 --out /tmp/inputs

The generator imports nothing from the program under test: datasets are
written as the program's long-format CSV (``id,probability,attr0,...``),
and non-answers are chosen with the independent reference.
"""

from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from reference import PairReference, Table

DOMAIN = 10_000.0
DIMS = 2
SAMPLES = (2, 4)          # samples per object, inclusive
RADIUS = 150.0            # object radius ~ U[0, RADIUS]

PRSQ_N = 1_000
PRSQ_ALPHA = 0.5
PRSQ_REGION = (4_500.0, 5_500.0)       # query points, every coordinate
PRSQ_OPS = 400                         # query points made per run

CP_N = 2_000
CP_ALPHA = 0.6
CP_REGION = (1_500.0, 8_500.0)         # query points, every coordinate
CP_SPAN = range(1, 11)                 # Lemma-2 candidate counts, 1..10
CP_PER_COUNT = 400                     # pairs made per candidate count
CP_PASSES = 12                         # times a run may go through them ...
CP_Q_STEP = 1e-9                       # ... shifting q by this much each time
CP_NEAR = 1_500.0                      # non-answers looked for this close to q
CP_EXPECTED_MAX = 24.0                 # ... and with at most this many expected candidates

SERVE_HOT = range(1, 9)                # candidate counts of the hot set ...
SERVE_HOT_PER_COUNT = 3                # ... and pairs per count
SERVE_READS_PER_WRITE = 9
SERVE_ROUNDS = 4_000                   # rounds made; a run uses a prefix
FAR = -1.0e6                           # benchmark-owned objects live here
ANCHORS = 102                          # one full R-tree leaf of them
OWN_SEED = 20_260_101                  # they are the same for every seed


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed] + [ord(c) for c in stream])


def make_objects(seed: int, n: int, stream: str) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Uniform centers in the domain; each object's samples lie uniformly in
    a rectangle inscribed in a circle of radius ~U[0, RADIUS]; equal
    sample probabilities."""
    rng = _rng(seed, stream)
    centers = rng.uniform(0.0, DOMAIN, size=(n, DIMS))
    radii = rng.uniform(0.0, RADIUS, size=n)
    counts = rng.integers(SAMPLES[0], SAMPLES[1] + 1, size=n)
    objects = []
    for center, radius, count in zip(centers, radii, counts):
        direction = np.abs(rng.normal(size=DIMS)) + 1e-9
        half = radius * direction / np.linalg.norm(direction)
        samples = center + rng.uniform(-1.0, 1.0, size=(count, DIMS)) * half
        objects.append((samples, np.full(count, 1.0 / count)))
    return objects


def anchors() -> List[Tuple[np.ndarray, np.ndarray]]:
    """Benchmark-owned objects in the serve dataset, at ``FAR``.

    With one leaf's worth of them (4 KiB pages hold 102 2-d entries), the
    bulk load packs them into a leaf of their own, so the served writes,
    which land beside them, meet the same tree on every seed.
    """
    rng = np.random.default_rng(OWN_SEED)
    return [(FAR + rng.uniform(0.0, 100.0, size=(2, DIMS)), np.full(2, 0.5))
            for _ in range(ANCHORS)]


def write_csv(path: Path, ids: Sequence[str], objects) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "probability"] + [f"attr{i}" for i in range(DIMS)])
        for oid, (samples, probs) in zip(ids, objects):
            for sample, prob in zip(samples, probs):
                writer.writerow([oid, repr(float(prob))] + [repr(float(v)) for v in sample])


def ids_for(n: int) -> List[str]:
    return [f"o{i}" for i in range(n)]


def cp_pairs(seed: int, table: Table, per_count: int, span: range) -> Dict[int, List[dict]]:
    """Distinct (non-answer, query point) pairs, bucketed by candidate count.

    Query points are drawn in ``CP_REGION``; for each, the objects whose
    first sample is near it are tried in a seeded order.  A pair is kept
    when the object is a non-answer at ``CP_ALPHA``, its candidate count is
    in *span*, its bucket is not full, and no subset restriction of its
    candidates lands in the alpha band.
    """
    rng = _rng(seed, "cp-pairs")
    buckets: Dict[int, List[dict]] = {k: [] for k in span}
    firsts = table.samples[:, 0, :]
    density = len(table.ids) / DOMAIN ** DIMS
    while any(len(b) < per_count for b in buckets.values()):
        q = rng.uniform(*CP_REGION, size=DIMS)
        # Expected candidate count of an object: the area of its first
        # sample's Lemma-2 rectangle times the object density.
        reach = np.abs(firsts - q)
        expected = (2.0 ** DIMS) * reach.prod(axis=1) * density
        near = np.flatnonzero((expected < CP_EXPECTED_MAX) & (reach.max(axis=1) < CP_NEAR))
        for row in rng.permutation(near):
            an = table.ids[row]
            ref = PairReference(table, an, q, CP_ALPHA)
            k = len(ref.candidates)
            if k not in buckets or len(buckets[k]) >= per_count:
                continue
            if ref.member() is not False or not ref.decidable():
                continue
            buckets[k].append({"an": an, "q": [float(v) for v in q], "k": k})
    return buckets


def interleave(buckets: Dict[int, List[dict]]) -> List[dict]:
    """Round-robin over the buckets: every run of ``len(buckets)``
    consecutive pairs holds one pair of each candidate count."""
    out = []
    for i in range(min(len(b) for b in buckets.values())):
        out.extend(bucket[i] for _, bucket in sorted(buckets.items()))
    return out


def cp_ops(manifest: dict) -> Iterator[dict]:
    """The cp-explain op sequence: the interleaved pairs, then the same
    pairs again with every query coordinate moved by ``CP_Q_STEP``, and so
    on.  Each op is a distinct (non-answer, query point) pair, so the
    result cache always misses; the shift is far below any distance in
    the data, so the work repeats.  ``q0`` is the unshifted point; the
    checks answer for the shifted one (see ``run.Checker.cp``)."""
    for j in range(CP_PASSES):
        for pair in manifest["pairs"]:
            yield {"op": "read", "an": pair["an"], "k": pair["k"], "q0": pair["q"],
                   "q": [v + j * CP_Q_STEP for v in pair["q"]]}


def ops_of(manifest: dict) -> Iterator[dict]:
    """The op sequence of a workload's manifest, made as it is consumed."""
    if "queries" in manifest:
        return ({"op": "prsq", "q": q} for q in manifest["queries"])
    if "pairs" in manifest:
        return cp_ops(manifest)
    return iter(manifest["ops"])


def write_op(rng: np.random.Generator, r: int) -> dict:
    """Write number *r* of a cycle: insert, update, then delete object
    ``bench{r // 3}``, placed at ``FAR`` where it can dominate nothing a
    read depends on and is never read itself."""
    oid = f"bench{r // 3}"
    if r % 3 == 2:
        return {"op": "write", "kind": "delete", "id": oid}
    count = int(rng.integers(SAMPLES[0], SAMPLES[1] + 1))
    samples = FAR + rng.uniform(0.0, 100.0, size=(count, DIMS))
    return {
        "op": "write",
        "kind": "insert" if r % 3 == 0 else "update",
        "id": oid,
        "samples": samples.tolist(),
        "probabilities": [1.0 / count] * count,
    }


def serve_ops(buckets: Dict[int, List[dict]], rounds: int) -> List[dict]:
    """The fixed serve sequence: rounds of 9 CP reads then 1 write.

    The hot set holds ``SERVE_HOT_PER_COUNT`` pairs per count in
    ``SERVE_HOT``.  Round ``r`` reads the next three hot pairs, each three
    times (a b c a b c a b c): the repeats hit the shared result cache, and
    a first read hits only when the same pair was read before under the
    same fingerprint (a delete restores the state of three writes before).
    The writes cycle as in :func:`write_op`.
    """
    rng = np.random.default_rng(OWN_SEED + 1)
    hot = [pair for k in SERVE_HOT for pair in buckets[k]]
    ops: List[dict] = []
    for r in range(rounds):
        picks = [hot[(3 * r + j) % len(hot)] for j in range(3)]
        for j in range(SERVE_READS_PER_WRITE):
            pair = picks[j % 3]
            ops.append({"op": "read", "an": pair["an"], "q": pair["q"], "k": pair["k"]})
        ops.append(write_op(rng, r))
    return ops


def generate(workload: str, seed: int, out: Path) -> Tuple[dict, Table]:
    """Write the inputs of *workload* under *out*; return the manifest and
    the dataset as a reference table."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "prsq-scan":
        ids = ids_for(PRSQ_N)
        objects = make_objects(seed, PRSQ_N, "prsq-data")
        rng = _rng(seed, "prsq-queries")
        queries = rng.uniform(*PRSQ_REGION, size=(PRSQ_OPS, DIMS)).tolist()
        manifest = {"queries": queries, "alpha": PRSQ_ALPHA, "round": 1}
    elif workload == "cp-explain":
        ids = ids_for(CP_N)
        objects = make_objects(seed, CP_N, "cp-data")
        buckets = cp_pairs(seed, Table(ids, objects), CP_PER_COUNT, CP_SPAN)
        manifest = {"pairs": interleave(buckets), "alpha": CP_ALPHA,
                    "round": len(CP_SPAN)}
    else:
        ids = ids_for(CP_N)
        objects = make_objects(seed, CP_N, "cp-data")
        buckets = cp_pairs(seed, Table(ids, objects), SERVE_HOT_PER_COUNT, SERVE_HOT)
        manifest = {"ops": serve_ops(buckets, SERVE_ROUNDS), "alpha": CP_ALPHA,
                    "round": SERVE_READS_PER_WRITE + 1}
        ids = ids + [f"anchor{i}" for i in range(ANCHORS)]
        objects = objects + anchors()
    write_csv(out / "data.csv", ids, objects)
    manifest.update(workload=workload, seed=seed, data=str(out / "data.csv"))
    (out / "manifest.json").write_text(json.dumps(manifest))
    return manifest, Table(ids, objects)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["prsq-scan", "cp-explain", "serve-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
