#!/usr/bin/env python3
"""K4,4 patterns in linear orthogonal pairs over a prime field.

Every linear square alpha*r + beta*c over GF(p) is isotopic to a slope
square r + s*c, so a linear pair reduces to an unordered slope pair
{s, t}.  The script computes the K4,4 verdict for every pair, closes the
pairs under slope scaling, inversion (transpose) and the row/letter role
swap, and reports the equivalence classes with their verdicts.

    python scripts/mols_linear.py --p 7
"""

import argparse
import itertools
import sys

from k33free.core import is_orthogonal, linear_square, slope_pair_orbit
from k33free.pattern import find_induced_ktt


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=7)
    ap.add_argument("--t", type=int, default=4)
    args = ap.parse_args()
    p = args.p

    verdict = {}
    for s, t in itertools.combinations(range(1, p), 2):
        pair = (linear_square(p, 1, s), linear_square(p, 1, t))
        assert is_orthogonal(*pair)
        verdict[frozenset((s, t))] = not find_induced_ktt(pair, args.t)

    orbits = {slope_pair_orbit(key, p) for key in verdict}
    print(f"GF({p}): {len(verdict)} slope pairs, {len(orbits)} classes")
    for ob in sorted(orbits, key=len):
        verdicts = {verdict[k] for k in ob}
        rep = min(tuple(sorted(k)) for k in ob)
        mark = "" if len(verdicts) == 1 else "  [verdict NOT class-invariant!]"
        print(f"  class of {rep}: size {len(ob)}, "
              f"K{args.t},{args.t}-free: {verdicts == {True}}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
