"""Set-up probe: time one fresh interpreter's import of insdel.cli plus the
fields and construction parameters a workload needs.

    python3 perfbench/probe.py <src-dir> F31 F32 L5,16,3,2 ...

``F<q>`` builds GF(q); ``L<q>,<n>,<delta>,<alpha>`` builds a bucketing
spec and its residue ring. Prints the seconds taken and the mean time of
the speed.py reference loop run just before and just after, in this
process. Only ``sys``, ``time`` and ``bisect`` are imported before the
clock starts.
"""

import sys
import time

from speed import BURST, reference_loop


def build(tokens) -> None:
    import insdel.cli  # noqa: F401 - the import is part of set-up
    from insdel.cw_l1 import L1ConstructionSpec
    from insdel.gf import field_from_size

    for tok in tokens:
        if tok[0] == "F":
            field_from_size(int(tok[1:]))
        elif tok[0] == "L":
            q, n, delta, alpha = (int(x) for x in tok[1:].split(","))
            L1ConstructionSpec(q=q, n=n, delta=delta, alpha=alpha).residue_ctx()
        else:
            raise ValueError(f"unknown set-up token {tok!r}")


def loop_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(BURST):
        reference_loop()
    return (time.perf_counter() - t0) / BURST


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    before = loop_seconds()
    t0 = time.perf_counter()
    build(sys.argv[2:])
    seconds = time.perf_counter() - t0
    sys.stdout.write(f"{seconds!r} {(before + loop_seconds()) / 2!r}\n")
