"""Independent reference for the benchmark's correctness checks.

Nothing here imports the program under test.  Three parts:

* ``direct_probabilities`` — Eq. (2)/(3) over every object, straight from
  the definitions: no index, no pruning, every (center sample, point) pair
  compared;
* ``PairReference`` — the Eq. (3) survival matrix of one non-answer, from
  which Definition 1 is checked for a CP result and, for small candidate
  sets, the complete cause set with minimal contingency sets is found by
  brute force over every subset;
* ``world_probabilities`` — exhaustive possible-worlds enumeration, used on
  tiny inputs to check ``direct_probabilities`` itself.

Objects are ``(samples, probabilities)`` pairs of NumPy arrays: samples
``(S, d)``, probabilities ``(S,)``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Relative / absolute tolerance between a program probability and the
#: reference (the two sum and multiply in different orders).
REL_TOL = 1e-9
ABS_TOL = 1e-12
#: Within this distance of alpha the reference does not decide membership.
ALPHA_BAND = 1e-9
#: Largest candidate set on which causes are brute-forced over all subsets.
BRUTE_FORCE_MAX = 10

Obj = Tuple[np.ndarray, np.ndarray]


def _dominates(points: np.ndarray, q: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Definition 3: ``points ≺_center q`` — at least as close to *center*
    as ``q`` in every dimension and strictly closer in one.  Broadcasts
    over leading axes of *points* and *center*."""
    dp = np.abs(points - center)
    dq = np.abs(q - center)
    return np.logical_and((dp <= dq).all(axis=-1), (dp < dq).any(axis=-1))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


# ---------------------------------------------------------------------------
# Eq. (2)/(3) over all objects
# ---------------------------------------------------------------------------
def direct_probabilities(objects: Sequence[Obj], q: Sequence[float]) -> np.ndarray:
    """``Pr(u)`` for every object, in input order.

    Every sample of every object is a center; for each center every sample
    of every other object is tested for dynamic dominance over ``q``
    (Eq. (3) sums the dominating samples' probabilities per object), and
    Eq. (2) multiplies the survivals over all other objects.
    """
    qq = np.asarray(q, dtype=float)
    points = np.concatenate([s for s, _ in objects])
    weights = np.concatenate([p for _, p in objects])
    counts = np.array([len(p) for _, p in objects])
    owner = np.repeat(np.arange(len(objects)), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    per_center = np.empty(len(points))
    chunk = max(1, 1_000_000 // max(1, len(points)))
    for lo in range(0, len(points), chunk):
        centers = points[lo:lo + chunk]
        # Definition 3 one dimension at a time, on (centers, points) planes.
        within = np.ones((len(centers), len(points)), dtype=bool)
        closer = np.zeros((len(centers), len(points)), dtype=bool)
        for dim in range(points.shape[1]):
            dp = np.abs(points[None, :, dim] - centers[:, None, dim])
            dq = np.abs(qq[dim] - centers[:, None, dim])
            within &= dp <= dq
            closer |= dp < dq
        eq3 = np.add.reduceat((within & closer) * weights, starts, axis=1)
        survival = 1.0 - eq3
        own = owner[lo:lo + chunk]
        survival[np.arange(len(centers)), own] = 1.0
        per_center[lo:lo + chunk] = survival.prod(axis=1)
    return np.add.reduceat(weights * per_center, starts)


def world_probabilities(objects: Sequence[Obj], q: Sequence[float]) -> np.ndarray:
    """``Pr(u)`` by enumerating every possible world (tiny inputs only).

    A world picks one sample per object, with probability the product of
    the picks; ``u`` is a reverse skyline object in a world when no other
    object's pick dominates ``q`` with respect to ``u``'s pick.
    """
    qq = np.asarray(q, dtype=float)
    out = np.zeros(len(objects))
    ranges = [range(len(p)) for _, p in objects]
    for picks in itertools.product(*ranges):
        weight = 1.0
        for (_, probs), j in zip(objects, picks):
            weight *= probs[j]
        chosen = [samples[j] for (samples, _), j in zip(objects, picks)]
        for u, center in enumerate(chosen):
            if not any(
                _dominates(chosen[v], qq, center)
                for v in range(len(objects)) if v != u
            ):
                out[u] += weight
    return out


def self_check(rng: np.random.Generator, cases: int = 20) -> None:
    """Check ``direct_probabilities`` against world enumeration on tiny,
    seeded inputs (coordinates on a coarse grid so ties occur)."""
    for _ in range(cases):
        n = int(rng.integers(2, 6))
        objects = []
        for _ in range(n):
            s = int(rng.integers(1, 4))
            samples = rng.integers(0, 5, size=(s, 2)).astype(float)
            probs = rng.random(s) + 0.1
            objects.append((samples, probs / probs.sum()))
        q = rng.integers(0, 5, size=2).astype(float)
        direct = direct_probabilities(objects, q)
        worlds = world_probabilities(objects, q)
        if not all(close(a, b) for a, b in zip(direct, worlds)):
            raise AssertionError(
                f"reference Eq. (2) disagrees with world enumeration: "
                f"{direct.tolist()} vs {worlds.tolist()}"
            )


# ---------------------------------------------------------------------------
# Definition 1 for one non-answer
# ---------------------------------------------------------------------------
class Table:
    """A dataset as padded arrays: ``samples (n, S_max, d)`` with NaN rows
    past each object's samples (NaN never dominates), ``probs (n, S_max)``
    with zeros there."""

    def __init__(self, ids: Sequence[str], objects: Sequence[Obj]):
        self.ids = list(ids)
        self.row = {oid: i for i, oid in enumerate(self.ids)}
        s_max = max(len(p) for _, p in objects)
        d = objects[0][0].shape[1]
        self.samples = np.full((len(objects), s_max, d), np.nan)
        self.probs = np.zeros((len(objects), s_max))
        for i, (samples, probs) in enumerate(objects):
            self.samples[i, : len(probs)] = samples
            self.probs[i, : len(probs)] = probs
        self.objects = list(objects)
        self.lo = np.nanmin(self.samples, axis=1)
        self.hi = np.nanmax(self.samples, axis=1)


class PairReference:
    """Eq. (3) rows of every object against one non-answer ``an`` at ``q``.

    ``candidates`` are the ids whose row is non-zero (Lemma 1): only they
    can change ``Pr(an)``, so only they can be causes or belong to a
    minimal contingency set.
    """

    def __init__(self, table: Table, an: str, q: Sequence[float], alpha: float):
        self.an = an
        self.alpha = alpha
        qq = np.asarray(q, dtype=float)
        an_samples, self.weights = table.objects[table.row[an]]
        # Only objects with a sample inside the bounding box of an's
        # Lemma-2 rectangles can dominate; the rest have all-zero rows.
        reach = np.abs(qq - an_samples)
        lo = (an_samples - reach).min(axis=0)
        hi = (an_samples + reach).max(axis=0)
        rows = np.flatnonzero(
            ((table.hi >= lo) & (table.lo <= hi)).all(axis=1)
        )
        rows = rows[rows != table.row[an]]
        # dom[i, v, j]: sample j of object v dominates q w.r.t. sample i of an
        dom = _dominates(
            table.samples[rows][None, :, :, :], qq, an_samples[:, None, None, :]
        )
        eq3 = (dom * table.probs[rows][None, :, :]).sum(axis=2).T    # (v, S_an)
        hit = np.flatnonzero(eq3.any(axis=1))
        self.candidates = [table.ids[i] for i in rows[hit]]
        self._col = {oid: i for i, oid in enumerate(self.candidates)}
        self.survival = 1.0 - eq3[hit]

    @staticmethod
    def margin(table: Table, an: str, q: Sequence[float]) -> float:
        """The smallest ``| |p - c| - |q - c| |`` over every dimension, every
        sample ``p`` of every object and every sample ``c`` of *an*.

        Moving ``q`` by less than this in every coordinate decides no
        Definition 3 comparison differently, so the Eq. (3) rows, the
        candidates and every answer of this class stay exactly the same.
        """
        centers = table.objects[table.row[an]][0][:, None, None, :]
        dq = np.abs(np.asarray(q, dtype=float) - centers)
        return float(np.nanmin(np.abs(np.abs(table.samples[None] - centers) - dq)))

    def probability(self, removed=()) -> float:
        """``Pr(an)`` over ``P − removed``."""
        keep = np.ones(len(self.candidates), dtype=bool)
        for oid in removed:
            col = self._col.get(oid)
            if col is not None:
                keep[col] = False
        return float(self.weights @ self.survival[keep].prod(axis=0))

    def member(self, removed=()) -> Optional[bool]:
        """``(P − removed) ⊨ PRSQ(an)``; ``None`` inside the alpha band."""
        pr = self.probability(removed)
        if abs(pr - self.alpha) <= ALPHA_BAND:
            return None
        return pr >= self.alpha

    def subset_probabilities(self) -> np.ndarray:
        """``Pr(an)`` over ``P − Γ`` for every ``Γ ⊆ candidates``, indexed by
        the bitmask of removed candidates (bit ``c`` = ``candidates[c]``)."""
        kept = np.ones((1, len(self.weights)))
        for row in self.survival:
            kept = np.concatenate([kept * row, kept])
        return kept @ self.weights

    def decidable(self) -> bool:
        """No subset restriction lands inside the alpha band."""
        return bool(
            (np.abs(self.subset_probabilities() - self.alpha) > ALPHA_BAND).all()
        )

    def brute_force_causes(self) -> Dict[str, int]:
        """Every actual cause with its minimal ``|Γ|``, over all subsets."""
        k = len(self.candidates)
        answer = self.subset_probabilities() >= self.alpha
        masks = np.arange(1 << k)
        sizes = ((masks[:, None] >> np.arange(k)) & 1).sum(axis=1)
        causes: Dict[str, int] = {}
        for c, oid in enumerate(self.candidates):
            bit = 1 << c
            without = masks[(masks & bit) == 0]
            ok = ~answer[without] & answer[without | bit]
            if ok.any():
                causes[oid] = int(sizes[without[ok]].min())
        return causes

    def check(self, causes: Sequence[Tuple[str, float, Sequence[str]]]) -> List[str]:
        """Problems with a CP result, as messages (empty when it is right).

        *causes* lists ``(cause id, responsibility, contingency set)``.
        """
        problems: List[str] = []
        if self.member() is not False:
            problems.append(f"{self.an} is not a non-answer")
        for oid, resp, gamma in causes:
            gamma = list(gamma)
            if oid == self.an or oid in gamma:
                problems.append(f"cause {oid}: bad contingency set {gamma}")
                continue
            if self.member(gamma) is True:
                problems.append(f"cause {oid}: P-Γ is an answer")
            if self.member(gamma + [oid]) is False:
                problems.append(f"cause {oid}: P-Γ-{{c}} is a non-answer")
            if resp != 1.0 / (1.0 + len(gamma)):
                problems.append(f"cause {oid}: responsibility {resp} != 1/(1+|Γ|)")
        if len(self.candidates) <= BRUTE_FORCE_MAX:
            expected = self.brute_force_causes()
            got = {oid: len(list(gamma)) for oid, _, gamma in causes}
            if got != expected:
                problems.append(f"causes {got} != brute force {expected}")
        return problems
