#!/usr/bin/env python3
"""Certify the distance ceiling of high-dimensional evaluation codes.

For each dimension k >= 3, build the shortest evaluation code that the
witness algorithm supports, produce two messages whose codewords share a
length 2k-2 common subsequence, and print the verified certificate.
"""

import argparse

from insdel.gf import field_make, next_prime
from insdel.rs import RsCode, low_distance_witness
from insdel.words import Word, insdel_distance


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-k", type=int, default=6)
    args = parser.parse_args()
    print(f"{'k':>3} {'n':>4} {'q':>6} {'lcs':>4} {'d(cf,cg)':>8} {'ceiling':>8}")
    for k in range(3, args.max_k + 1):
        n = 2 * k
        q = next_prime(n)
        code = RsCode(field_make(q), tuple(range(n)), k)
        w = low_distance_witness(code)
        d = insdel_distance(Word(q, w["codeword_f"]), Word(q, w["codeword_g"]))
        ceiling = 2 * n - 4 * k + 4
        assert w["lcs_lower_bound"] >= 2 * k - 2
        assert d <= ceiling
        print(f"{k:>3} {n:>4} {q:>6} {w['lcs_lower_bound']:>4} {d:>8} {ceiling:>8}")
        print(f"    f={w['f']} g={w['g']}")
        print(f"    i={[x + 1 for x in w['i']]} j={[x + 1 for x in w['j']]}")


if __name__ == "__main__":
    main()
