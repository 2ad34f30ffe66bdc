"""Seeded job lists for the benchmark workloads.

A job is one CLI invocation, ``insdel.cli.main(argv)``. One pass runs a
workload's job list in order, closed loop: one client, each job starts
after the previous one returns. The seed picks the job contents (words,
evaluation vectors, bucketing points, order); the parameter classes are
fixed, so a pass costs about the same for every seed and the per-job
percentiles sit on the same jobs.

This module imports nothing from insdel: job lists are made before the
program is imported, and their set-up work goes to probe.py as arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from gfref import RefField, rs2_first_collision

WORKLOADS = ("construct", "sweep", "queries")
SIZES = ("full", "tiny")


@dataclass
class Job:
    argv: list[str]
    kind: str  # names the check in checks.py
    params: dict = field(default_factory=dict)


@dataclass
class JobList:
    jobs: list[Job]
    fields: list[int]  # field sizes the jobs use, built during set-up
    l1_specs: list[tuple[int, int, int, int]]  # (q, n, delta, alpha)

    def setup_tokens(self) -> list[str]:
        """The set-up work as probe.py arguments."""
        return [f"F{q}" for q in self.fields] + [
            "L" + ",".join(map(str, s)) for s in self.l1_specs
        ]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def bucketing_prime(q: int) -> int:
    """Smallest prime r in [q+1, 2(q+1)]: the ring size construct-l1 picks."""
    return next(r for r in range(q + 1, 2 * q + 3) if _is_prime(r))


# -- construct ---------------------------------------------------------------

# Pipelines bound by residue bucketing (delta >= 3) and by lift
# verification (delta = 2: LCS on sorted words of length 9 to 16). Jobs
# stay short, under about 0.3 s, so that each is timed within one stretch
# of steady machine speed (see speed.py). A job count of 27 puts the
# percentiles of the pooled job times inside one job's repeats (the 14th
# and 25th in cost order) rather than between two jobs.
CONSTRUCT = {
    "full": [(5, 10, 3), (4, 12, 3), (5, 8, 3), (6, 6, 3), (4, 9, 4), (3, 12, 3), (4, 12, 2), (3, 16, 2), (5, 9, 2)],
    "tiny": [(3, 6, 3), (3, 8, 2)],
}


def construct_jobs(seed: int, size: str) -> JobList:
    rng = random.Random(seed)
    jobs, specs = [], []
    for idx, (q, n, delta) in enumerate(CONSTRUCT[size]):
        # The seed moves the bucketing point only where delta > 2: there the
        # kept fibre is small, so its lift and code-distance jobs stay far
        # below the median job whatever fibre is kept.
        alpha = rng.randrange(bucketing_prime(q)) if delta > 2 else 0
        specs.append((q, n, delta, alpha))
        l1, lifted = f"{{work}}/l1-{idx}.txt", f"{{work}}/lift-{idx}.txt"
        params = {"pipeline": idx, "q": q, "n": n, "delta": delta, "alpha": alpha, "l1": l1, "lift": lifted}
        jobs.append(Job(
            ["construct-l1", "--q", str(q), "--n", str(n), "--delta", str(delta),
             "--alpha", str(alpha), "--out", l1, "--json"],
            "construct-l1", params,
        ))
        jobs.append(Job(["lift", "--in", l1, "--verify", "--out", lifted, "--json"], "lift", params))
        jobs.append(Job(["code-distance", "--in", lifted, "--json"], "code-distance", params))
    return JobList(jobs, [], specs)


# -- sweep -------------------------------------------------------------------

SWEEP = {
    # verify-rs2 --exhaustive fields (n = 4; 16 is GF(2^4)), then exact-iq
    # (q, n, d): (5, 3, 4) is bound by the clique search, most others by
    # the adjacency build. Fifteen jobs put the median and the 90th
    # percentile in the middle of one job's repeats (the 8th and 14th in
    # cost order).
    "full": (
        [11, 13, 16, 17, 19, 23],
        [(5, 3, 4), (2, 8, 6), (4, 4, 6), (3, 5, 8), (2, 7, 6), (3, 5, 6), (2, 6, 4), (3, 4, 6), (2, 8, 8)],
    ),
    "tiny": ([7, 8], [(2, 4, 4), (2, 5, 6)]),
}


def sweep_jobs(seed: int, size: str) -> JobList:
    rng = random.Random(seed)
    fields, exact = SWEEP[size]
    jobs = []
    for q in fields:
        alphas = rng.sample(range(q), 4)
        jobs.append(Job(
            ["verify-rs2", "--q", str(q), "--n", "4", "--alphas", _csv(alphas), "--exhaustive", "--json"],
            "verify-rs2", {"q": q, "alphas": alphas},
        ))
    for q, n, d in exact:
        jobs.append(Job(
            ["exact-iq", "--q", str(q), "--n", str(n), "--d", str(d), "--json"],
            "exact-iq", {"q": q, "n": n, "d": d},
        ))
    return JobList(jobs, list(fields), [])


# -- queries -----------------------------------------------------------------

# 120 jobs: about three quarters of a pass are cheap jobs under 1 ms, a quarter are
# algebra jobs over GF(2^m) / GF(3^m). Every class has a fixed cost for
# every seed: dist lengths, bounds and counterexample parameters are fixed
# lists, and verify-rs2 vectors are drawn until the reference criterion
# holds (full scan of the triple pairs) or are arithmetic progressions
# (rejected at the second pair). In cost order the algebra jobs are:
# witness-rs and the cheaper construct-rs2 (16 jobs, under 45 ms), five
# construct-rs2 jobs of about 70 ms, which take no seed and hold the
# pass's 90th percentile, and verify-rs2 with n = 6 (80 to 160 ms).
ALGEBRA = {
    "full": {
        "witness": [(64, 3), (243, 3), (256, 3), (729, 3), (1024, 3), (64, 4),
                    (243, 4), (729, 4), (1024, 4), (64, 5), (256, 5), (729, 5)],
        "construct": [(5, 243), (5, 343), (5, 625), (5, 729), (5, 256), (5, 512), (5, 1024), (5, 256), (5, 1024)],
        "verify": [(64, 6), (128, 6), (243, 6), (256, 6), (512, 6), (729, 6), (128, 6), (256, 6), (729, 6)],
    },
    "tiny": {"witness": [(64, 3)], "construct": [(4, 64)], "verify": [(64, 6)]},
}
CHEAP = {"full": 90, "tiny": 8}
VERIFY_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41)
BOUNDS = ((2, 8, 4), (3, 7, 6), (4, 6, 4), (5, 9, 8), (6, 5, 6), (7, 10, 10), (8, 4, 4), (2, 12, 10), (3, 11, 2))
COUNTEREXAMPLES = ((3, 2), (3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (5, 5), (6, 4), (6, 5), (7, 4), (7, 5), (8, 4))


def witness_length(k: int) -> int:
    """Shortest code length for which witness-rs accepts dimension k."""
    return k * (k + 1) // 2 + k - 3


def _holding_vector(rng, field: RefField, n: int) -> list[int]:
    for _ in range(10_000):
        alphas = rng.sample(range(field.q), n)
        if rs2_first_collision(field, alphas) is None:
            return alphas
    raise ValueError(f"no length-{n} vector over GF({field.q}) meets the criterion")


def queries_jobs(seed: int, size: str) -> JobList:
    rng = random.Random(seed)
    fields: set[int] = set()
    refs: dict[int, RefField] = {}

    def ref(q):
        if q not in refs:
            refs[q] = RefField(q)
        return refs[q]

    def verify(q, alphas):
        fields.add(q)
        return Job(
            ["verify-rs2", "--q", str(q), "--n", str(len(alphas)), "--alphas", _csv(alphas), "--json"],
            "verify-rs2", {"q": q, "alphas": alphas},
        )

    jobs = []
    cheap = CHEAP[size]
    n_dist = cheap * 2 // 5
    n_other = (cheap - n_dist) // 3
    for i in range(n_dist):
        q = 2 + i % 7
        length = 8 + (56 * i) // max(1, n_dist - 1)
        u = [rng.randrange(q) for _ in range(length)]
        v = [rng.randrange(q) for _ in range(length)]
        jobs.append(Job(["dist", "--q", str(q), "--u", _csv(u), "--v", _csv(v)], "dist", {"q": q, "u": u, "v": v}))
    for i in range(n_other):
        q, n, d = BOUNDS[i % len(BOUNDS)]
        jobs.append(Job(["bounds", "--q", str(q), "--n", str(n), "--d", str(d), "--json"], "bounds", {"q": q, "n": n, "d": d}))
    for i in range(n_other):
        q, n = COUNTEREXAMPLES[i % len(COUNTEREXAMPLES)]
        jobs.append(Job(["counterexample", "--q", str(q), "--n", str(n), "--json"], "counterexample", {"q": q, "n": n}))
    for i in range(cheap - n_dist - 2 * n_other):
        q = VERIFY_PRIMES[i % len(VERIFY_PRIMES)]
        if i % 2:
            start, step = rng.randrange(q), rng.randrange(1, q)
            alphas = [(start + t * step) % q for t in range(5)]
        else:
            alphas = _holding_vector(rng, ref(q), 4)
        jobs.append(verify(q, alphas))
    algebra = ALGEBRA[size]
    for q, k in algebra["witness"]:
        alphas = rng.sample(range(q), witness_length(k))
        fields.add(q)
        jobs.append(Job(
            ["witness-rs", "--q", str(q), "--k", str(k), "--alphas", _csv(alphas), "--json"],
            "witness-rs", {"q": q, "k": k, "alphas": alphas},
        ))
    for n, q in algebra["construct"]:
        fields.add(q)
        jobs.append(Job(["construct-rs2", "--n", str(n), "--q", str(q), "--json"], "construct-rs2", {"q": q, "n": n}))
    for q, n in algebra["verify"]:
        jobs.append(verify(q, _holding_vector(rng, ref(q), n)))
    rng.shuffle(jobs)
    return JobList(jobs, sorted(fields), [])


def build(workload: str, seed: int, size: str = "full") -> JobList:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; expected one of {', '.join(SIZES)}")
    return {"construct": construct_jobs, "sweep": sweep_jobs, "queries": queries_jobs}[workload](seed, size)
