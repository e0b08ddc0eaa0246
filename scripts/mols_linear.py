#!/usr/bin/env python3
"""K4,4 patterns in linear orthogonal pairs over a prime field.

Every linear square alpha*r + beta*c over GF(p) is isotopic to a slope
square r + s*c, so a linear pair reduces to an unordered slope pair
{s, t}.  The script computes the K4,4 verdict for every pair, closes the
pairs under slope scaling, inversion (transpose) and the row/letter role
swap, and reports the equivalence classes with their verdicts.  It exits 1
if a pair is not orthogonal or a class holds both verdicts, and 2, with a
one-line error, if ``--p`` is not a prime.

    python scripts/mols_linear.py --p 7
"""

import argparse
import itertools
import sys

from k33free.core import is_orthogonal, linear_square
from k33free.pattern import find_induced_ktt


def slope_pair_orbit(pair: frozenset[int], p: int) -> frozenset[frozenset[int]]:
    """Equivalence class of the slope pair {s, t} of squares r + s*c over GF(p).

    Closes the pair under scaling both slopes by a unit, inverting both
    (transposing the squares) and exchanging the rows with the letters of
    either square; pairs with a zero or repeated slope are dropped.
    """
    inv = {a: pow(a, p - 2, p) for a in range(1, p)}
    seen = {pair}
    stack = [pair]
    while stack:
        s, t = sorted(stack.pop())
        images = [frozenset(((s * b) % p, (t * b) % p)) for b in range(1, p)]
        images.append(frozenset((inv[s], inv[t])))
        images.append(frozenset(((-s) % p, (t - s) % p)))
        images.append(frozenset(((-t) % p, (s - t) % p)))
        for q in images:
            if len(q) == 2 and 0 not in q and q not in seen:
                seen.add(q)
                stack.append(q)
    return frozenset(seen)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=7)
    ap.add_argument("--t", type=int, default=4)
    args = ap.parse_args()
    p = args.p
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        print(f"error: --p must be a prime, got {p}", file=sys.stderr)
        return 2

    verdict = {}
    for s, t in itertools.combinations(range(1, p), 2):
        pair = (linear_square(p, 1, s), linear_square(p, 1, t))
        if not is_orthogonal(*pair):
            print(f"slopes {s} and {t} do not give an orthogonal pair over GF({p})")
            return 1
        verdict[frozenset((s, t))] = not find_induced_ktt(pair, args.t)

    orbits = {slope_pair_orbit(key, p) for key in verdict}
    print(f"GF({p}): {len(verdict)} slope pairs, {len(orbits)} classes")
    invariant = True
    for ob in sorted(orbits, key=len):
        verdicts = {verdict[k] for k in ob}
        rep = min(tuple(sorted(k)) for k in ob)
        invariant &= len(verdicts) == 1
        mark = "" if len(verdicts) == 1 else "  [verdict NOT class-invariant!]"
        print(f"  class of {rep}: size {len(ob)}, "
              f"K{args.t},{args.t}-free: {verdicts == {True}}{mark}")
    return 0 if invariant else 1


if __name__ == "__main__":
    sys.exit(main())
