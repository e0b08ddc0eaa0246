#!/usr/bin/env python3
"""Reproduce the order-16 K3,3-free square from the bundled order-8 pair.

Solves the switching system for the fixture pair, reports the solution
space, verifies the resulting square and its symmetry, and samples
solutions to confirm they all land in one main class.

    python scripts/find_order16.py --samples 16
"""

import argparse
import random
import sys

from k33free import canon, fixtures
from k33free.combine import (
    SwitchingMatrix,
    block_patterns,
    build_system,
    switched_combination,
)
from k33free.gf2 import solve
from k33free.pattern import is_k33_free


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=16)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    a0, a1 = fixtures.load("fig5_a0"), fixtures.load("fig5_a1")
    n = a0.n
    zero = switched_combination(a0, a1, SwitchingMatrix.zeros(n))
    patterns = block_patterns((a0, a1), zero)
    space = solve(build_system(patterns, n))
    print(f"{len(patterns)} patterns in the 0-combination")
    print(f"system over {n * n} variables: consistent={space.consistent}, "
          f"kernel dimension {space.dimension} ({space.count} solutions)")
    if not space.consistent:
        return 1

    square = switched_combination(a0, a1, SwitchingMatrix.from_vector(n, space.particular))
    if not is_k33_free(square):
        print("the particular solution's square has a K3,3 witness")
        return 1
    aut = canon.symmetry_group(square, "autotopism")
    par = canon.symmetry_group(square, "paratopism")
    orbits = canon.cell_orbits(par, square)
    print(f"order-{square.n} square: K3,3-free, autotopism order {aut.order}, "
          f"paratopism order {par.order}, {len(orbits)} cell orbits")

    rng = random.Random(args.seed)
    forms = set()
    seen = set()
    while len(seen) < args.samples:
        vec = list(space.particular)
        for b in space.basis:
            if rng.random() < 0.5:
                vec = [x ^ y for x, y in zip(vec, b)]
        vec = tuple(vec)
        if vec in seen:
            continue
        seen.add(vec)
        sq = switched_combination(a0, a1, SwitchingMatrix.from_vector(n, vec))
        if not is_k33_free(sq):
            print(f"sampled solution {len(seen)} gives a square with a K3,3 witness")
            return 1
        forms.add(canon.canonical_form(sq).rows)
    print(f"{args.samples} sampled solutions fall in {len(forms)} main class(es)")
    return 0 if len(forms) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
