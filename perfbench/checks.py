"""Correctness checks for every benchmark job.

Each check compares a job's output with a reference that shares no code
with the path that produced it: ``insdel.oracles.edit_graph_distance``
(0-1 BFS on the alignment grid) for insdel distances and LCS lengths,
``gfref`` for field arithmetic and the RS criterion, and closed forms
written out here for the bounds and the bucketing guarantee.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations

from gfref import RefField, rs2_first_collision
from insdel.oracles import edit_graph_distance
from insdel.words import Word
from workloads import bucketing_prime


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def oracle_distance(q: int, u, v) -> int:
    return edit_graph_distance(Word(q, tuple(u)), Word(q, tuple(v)))


def singleton(q: int, n: int, d: int) -> int:
    return q ** (n - d // 2 + 1)


def upper_bound(q: int, n: int, d: int) -> tuple[int, str]:
    """The paper's upper bound on I_q(n, d), clause by clause."""
    if d == 2:
        return q**n, "i"
    if d == 2 * n:
        return q, "i"
    options = []
    if 4 <= d <= 2 * n - 2:
        options.append(((q ** (n - d // 2 + 1) + q ** (n - d // 2)) // 2, "ii"))
    if 2 * q <= d <= 2 * n - 2:
        options.append((q ** (n - d // 2), "iii"))
    return min(options) if options else (singleton(q, n, d), "singleton")


def levenshtein_lower(q: int, n: int, d: int) -> Fraction:
    """Sphere-counting lower bound q^(n + d/2) / |ball of radius d/2|^2."""
    ball = sum(math.comb(n, i) * (q - 1) ** i for i in range(d // 2 + 1))
    return Fraction(q ** (n + d // 2), ball * ball)


def read_code(path: str, kind: str, q: int, n: int, size: int) -> list[tuple[int, ...]]:
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    expect(lines[0] == f"{kind} {q} {n} {size}", f"{path}: header {lines[0]!r}")
    rows = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    expect(len(rows) == size, f"{path}: {len(rows)} rows, header says {size}")
    expect(len(set(rows)) == size, f"{path}: repeated rows")
    return rows


class Checker:
    """Checks one job at a time; holds the pipeline state and field tables."""

    def __init__(self):
        self._fields: dict[int, RefField] = {}
        self._pipelines: dict[int, dict] = {}

    def field(self, q: int) -> RefField:
        if q not in self._fields:
            self._fields[q] = RefField(q)
        return self._fields[q]

    def check(self, job, stdout: str, path) -> None:
        """Raise CheckFailed unless stdout (and any file the job wrote) is right.

        path maps a job's file placeholder to the file's real path.
        """
        if job.kind == "dist":
            p = job.params
            expect(stdout.strip() == str(oracle_distance(p["q"], p["u"], p["v"])), "dist differs from the oracle")
            return
        rep = json.loads(stdout)
        getattr(self, "_" + job.kind.replace("-", "_"))(job.params, rep, path)

    # -- construct ----------------------------------------------------

    def _construct_l1(self, p, rep, path):
        q, n, delta = p["q"], p["n"], p["delta"]
        r = bucketing_prime(q)
        units = r ** (delta - 2) * (r - 1)
        floor = -(-math.comb(n + q - 1, n) // units)
        expect((rep["q"], rep["n"], rep["delta"], rep["r"]) == (q, n, delta, r), "parameters not echoed")
        expect(rep["guaranteed_lower_bound"] == floor, "pigeonhole guarantee differs")
        expect(rep["size"] >= max(floor, 2), "fibre smaller than the pigeonhole guarantee")
        expect(rep["verified_min_l1"] >= 2 * delta, "fibre below L1 distance 2*delta")
        rows = read_code(path(p["l1"]), "CWL1", q, n, rep["size"])
        expect(all(len(c) == q and sum(c) == n and min(c) >= 0 for c in rows), "bad composition row")
        min_l1 = min(sum(abs(x - y) for x, y in zip(a, b)) for a, b in combinations(rows, 2))
        expect(rep["verified_min_l1"] == min_l1, "verified_min_l1 differs from the file")
        self._pipelines[p["pipeline"]] = {"rows": rows, "min": min_l1}

    def _lift(self, p, rep, path):
        state = self._pipelines[p["pipeline"]]
        size = len(state["rows"])
        expect(rep["verified"] is True and rep["size"] == size, "lift not verified")
        expect(rep["pairs"] == size * (size - 1) // 2, "pair count differs")
        expect(rep["min_insdel"] == state["min"], "lifted min_insdel differs from verified_min_l1")
        words = read_code(path(p["lift"]), "INSDEL", p["q"], p["n"], size)
        sorted_words = [tuple(s for s, c in enumerate(row) for _ in range(c)) for row in state["rows"]]
        expect(words == sorted_words, "lifted rows are not the sorted words of the L1 rows")
        u, v = rep["witness"]
        expect(oracle_distance(p["q"], u, v) == rep["min_insdel"], "lift witness distance differs")
        state["words"] = set(words)

    def _code_distance(self, p, rep, path):
        state = self._pipelines[p["pipeline"]]
        expect(rep["kind"] == "INSDEL" and rep["metric"] == "INSDEL", "wrong kind or metric")
        expect(rep["size"] == len(state["rows"]), "size differs")
        expect(rep["min_distance"] == state["min"], "min_distance differs from verified_min_l1")
        u, v = rep["witness"]
        expect({tuple(u), tuple(v)} <= state["words"] and u != v, "witness not in the code")
        expect(oracle_distance(p["q"], u, v) == rep["min_distance"], "witness distance differs")

    # -- sweep --------------------------------------------------------

    def _verify_rs2(self, p, rep, path):
        q, alphas = p["q"], p["alphas"]
        n = len(alphas)
        expect((rep["q"], rep["n"], rep["target_distance"]) == (q, n, 2 * n - 4), "parameters not echoed")
        first = rs2_first_collision(self.field(q), alphas)
        expect(rep["criterion_holds"] == (first is None), "criterion differs from the reference")
        if first is not None:
            i, j, a, b = first
            expect(rep["witness_i"] == [x + 1 for x in i] and rep["witness_j"] == [x + 1 for x in j], "witness triples differ")
            expect(rep["witness_map"] == {"a": a, "b": b}, "witness map differs")
        if "exhaustive_min_insdel" in rep:
            d = rep["exhaustive_min_insdel"]
            expect(rep["agrees"] is True, "criterion and exhaustive sweep disagree")
            expect(d == 2 * n - 4 if first is None else d <= 2 * n - 6, "exhaustive distance inconsistent")

    def _exact_iq(self, p, rep, path):
        q, n, d = p["q"], p["n"], p["d"]
        size, words = rep["size"], [tuple(w) for w in rep["witness"]]
        expect(levenshtein_lower(q, n, d) <= size <= upper_bound(q, n, d)[0], "size outside the bounds")
        expect(len(words) == size == len(set(words)), "witness size differs")
        expect(all(len(w) == n and all(0 <= s < q for s in w) for w in words), "bad witness word")
        expect(all(oracle_distance(q, u, v) >= d for u, v in combinations(words, 2)), "witness pair too close")

    # -- queries ------------------------------------------------------

    def _bounds(self, p, rep, path):
        q, n, d = p["q"], p["n"], p["d"]
        low = levenshtein_lower(q, n, d)
        expect(rep["singleton"] == singleton(q, n, d), "singleton differs")
        expect((rep["upper_bound"], rep["upper_bound_clause"]) == upper_bound(q, n, d), "upper bound differs")
        got = Fraction(int(rep["levenshtein_lower"]["numerator"]), int(rep["levenshtein_lower"]["denominator"]))
        expect(got == low and rep["levenshtein_lower_floor"] == math.floor(low), "lower bound differs")

    def _counterexample(self, p, rep, path):
        q, n = p["q"], p["n"]
        expect((rep["q"], rep["n"], rep["size"]) == (q, n, q + 1), "size differs")
        expect(rep["min_insdel"] == 2 * n - 2, "distance differs")
        expect(rep["power_bound"] == q and q < rep["size"], "power bound not beaten")

    def _witness_rs(self, p, rep, path):
        q, k, alphas = p["q"], p["k"], p["alphas"]
        n = len(alphas)
        F = self.field(q)
        expect((rep["q"], rep["n"], rep["k"]) == (q, n, k), "parameters not echoed")
        f, g = rep["f"], rep["g"]
        expect(f != g and len(f) <= k and len(g) <= k, "messages equal or too long")
        cf, cg = rep["codeword_f"], rep["codeword_g"]
        expect(cf == [F.horner(f, a) for a in alphas], "codeword_f is not f at the alphas")
        expect(cg == [F.horner(g, a) for a in alphas], "codeword_g is not g at the alphas")
        i, j = rep["i"], rep["j"]
        expect(len(i) == len(j) == 2 * k - 2, "index vectors have the wrong length")
        expect(all(1 <= x < y <= n for x, y in zip(i, i[1:])) and all(1 <= x < y <= n for x, y in zip(j, j[1:])), "indices not increasing")
        expect(all(cf[a - 1] == cg[b - 1] for a, b in zip(i, j)), "indexed symbols differ")
        lcs = n - oracle_distance(q, cf, cg) // 2
        expect(lcs >= 2 * k - 2 and rep["lcs_lower_bound"] == lcs, "LCS below 2k-2 or misreported")
        expect(rep["distance_upper_bound"] == 2 * n - 4 * k + 4, "distance bound differs")

    def _construct_rs2(self, p, rep, path):
        q, n = p["q"], p["n"]
        alphas = rep["alphas"]
        expect((rep["q"], rep["n"]) == (q, n), "parameters not echoed")
        expect(rep["threshold"] == n * (n - 1) ** 2 * (n - 2) ** 2 // 4, "threshold differs")
        expect(len(alphas) == n == len(set(alphas)) and all(0 <= a < q for a in alphas), "bad evaluation vector")
        expect(rs2_first_collision(self.field(q), alphas) is None, "vector fails the reference criterion")
