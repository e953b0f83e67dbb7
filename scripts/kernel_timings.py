#!/usr/bin/env python3
"""Time the factor-list kernel: product-formula chains and walk stacks.

    PYTHONPATH=src python3 scripts/kernel_timings.py [--tiny]

On ``four_level_pair()`` at h = 0.7 along the linear schedule, the first
table compares, per integrator tag and chain length n, the chain of a
walk family (``WalkFamily.chain``, which groups k steps per product by
the length rule ``integrators._group_size``) with ``chain_product`` of
the family's ``block``, and with the chain at fixed group sizes (at
k = 1 the chain is that block product).  A chain multiplies the n mod k
steps left over as a block; pf1 at n = 10,000 (k = 15) leaves 10, so its
row shows what they cost.  The
second gives ``integrators._walk_stack`` per call at n = 1, 8 and 256
walks for pf1 and pf2, over about ``STACK_CALLS`` / n calls.  BLAS runs
on one thread; every time is the best of ``REPEATS`` runs, in ms for the
chains and in us for the stacks.  ``--tiny`` runs a few short cases
once each, as a smoke test.
"""

import argparse
import os
import timeit

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # before numpy loads its BLAS
    os.environ.update({var: "1" for var in THREAD_VARS})

import numpy as np  # noqa: E402

from adiawalk import integrators  # noqa: E402
from adiawalk.linalg import chain_product  # noqa: E402
from adiawalk.schedules import linear_schedule  # noqa: E402
from adiawalk.toymodels import four_level_pair  # noqa: E402

H = 0.7
REPEATS = 3
STACK_CALLS = 20_000
CHAINS = (("spf8", 17), ("spf8", 3000), ("spf4", 3000), ("spf4", 65536),
          ("pf1", 300), ("pf1", 3000), ("pf1", 10000), ("pf1", 65536))
FIXED_GROUPS = (1, 4, 16)
STACKS = (("pf1", (1, 8, 256)), ("pf2", (1, 8, 256)))
TINY_CHAINS = (("spf4", 17), ("pf1", 300))
TINY_STACKS = (("pf1", (1, 8)),)


def best(fn, repeats: int, number: int = 1) -> float:
    """Best of ``repeats`` runs of ``number`` calls, in seconds per call."""
    return min(timeit.repeat(fn, number=number, repeat=repeats)) / number


def chain_at(fam, n: int, k: int):
    """``fam.chain(0, n)`` with k steps per product, whatever the rule says."""
    rule = integrators._group_size
    integrators._group_size = lambda n, m: k
    try:
        return fam.chain(0, n)
    finally:
        integrators._group_size = rule


def chain_rows(cases, repeats: int = REPEATS) -> list:
    h0, h1 = four_level_pair()
    rows = []
    for tag, n in cases:
        kind = integrators.INTEGRATORS[tag]
        fam = integrators.build_walk_family(h0, h1, linear_schedule(), kind, H, n)
        fam.chain(0, n)  # the endpoint eigenbases, once
        row = [tag, n, integrators._group_size(n, len(kind.factors)),
               best(lambda: chain_product(fam.block(0, n)), repeats),
               best(lambda: fam.chain(0, n), repeats)]
        rows.append(row + [best(lambda k=k: chain_at(fam, n, k), repeats) for k in FIXED_GROUPS])
    return rows


def stack_rows(cases, repeats: int = REPEATS, calls: int = STACK_CALLS) -> list:
    h0, h1 = integrators._endpoints(*four_level_pair())
    rows = []
    for tag, sizes in cases:
        kind = integrators.INTEGRATORS[tag]
        for n in sizes:
            f = np.linspace(0.0, 1.0, n)
            fn = lambda: integrators._walk_stack(h0, h1, kind, H, f)  # noqa: E731
            rows.append((tag, n, best(fn, repeats, max(1, calls // n))))
    return rows


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="a few short cases only")
    args = parser.parse_args(argv)
    chains, stacks = (TINY_CHAINS, TINY_STACKS) if args.tiny else (CHAINS, STACKS)
    repeats, calls = (1, 10) if args.tiny else (REPEATS, STACK_CALLS)
    fixed = "".join(f"  k={k:<6}" for k in FIXED_GROUPS)
    print(f"chains, ms (h = {H}, best of {repeats})")
    print(f"{'tag':<6}{'n':>7}{'k':>4}  block+chain   chain   ratio{fixed}")
    for tag, n, k, block, chain, *at in chain_rows(chains, repeats):
        cols = "".join(f"{1e3 * t:10.2f}" for t in at)
        print(f"{tag:<6}{n:>7}{k:>4}{1e3 * block:13.2f}{1e3 * chain:8.2f}{chain / block:8.2f}{cols}")
    print(f"\n_walk_stack, us per call (best of {repeats})")
    for tag, n, t in stack_rows(stacks, repeats, calls):
        print(f"{tag:<6}{n:>7}{1e6 * t:10.1f}")


if __name__ == "__main__":
    main()
