#!/usr/bin/env python3
"""Time the factor-list kernel, the search-schedule inversion and the
unitary eigensolver.

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
walks for pf1 and pf2, over about ``STACK_CALLS`` / n calls.  The third
gives ``schedule_values`` of the p = 1.5 search schedule at the
``SCHEDULE_POINTS`` = 6,101 points s = j / 6101 (a search at N = 2^18
needs 6,101 steps to reach error 0.1), for N = 2^8, 2^18 and 2^40: the
time per point, and the segment integrals (``schedules._power_partial``)
its Newton inversion evaluates per point.  The fourth gives, per block
of ``EIG_BLOCK`` = 256 walks at f = linspace(0, 1, 256) (as
``track_eigenpaths`` and ``gap_table`` take them) for pf1 and exp at
h = 1, 3 and 4: ``linalg._normal_eig_stack`` (vectors and checks),
``spectral.lowest_phase_gap`` (phases only) and, for reference,
``np.linalg.eigvals``, with the share of walks that the Cayley kernel
(``linalg._cayley_eig``) had to try a second shift on (pass 2) and a
third (the fallback shifts).  Once h * lambda passes pi the phases wrap
and most walks hold one near -1, the first shift.  Each table is built
before it is timed.  BLAS runs on one thread; every time is the best of
``REPEATS`` runs, in ms for the chains and the eigensolvers and in us for
the stacks and the schedule.  ``--tiny`` runs a few short cases once
each, as a smoke test.
"""

import argparse
import os
import timeit

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # before numpy loads its BLAS
    os.environ.update({var: "1" for var in THREAD_VARS})

import numpy as np  # noqa: E402

from adiawalk import integrators, linalg, schedules, spectral  # noqa: E402
from adiawalk.linalg import chain_product  # noqa: E402
from adiawalk.schedules import build_grover_schedule, linear_schedule, schedule_values  # noqa: E402
from adiawalk.toymodels import four_level_pair  # noqa: E402

H = 0.7
REPEATS = 3
STACK_CALLS = 20_000
CHAINS = (("spf8", 17), ("spf8", 3000), ("spf4", 3000), ("spf4", 65536),
          ("pf1", 300), ("pf1", 3000), ("pf1", 10000), ("pf1", 65536))
FIXED_GROUPS = (1, 4, 16)
STACKS = (("pf1", (1, 8, 256)), ("pf2", (1, 8, 256)))
SCHEDULE_P = 1.5
SCHEDULE_POINTS = 6101
SCHEDULE_CALLS = 20
SCHEDULE_LOG2N = (8, 18, 40)
EIG_BLOCK = 256
EIG_CALLS = 20
EIG_CASES = tuple((tag, h) for h in (1.0, 3.0, 4.0) for tag in ("pf1", "exp"))
TINY_CHAINS = (("spf4", 17), ("pf1", 300))
TINY_STACKS = (("pf1", (1, 8)),)
TINY_SCHEDULE_LOG2N = (8,)
TINY_EIG_CASES = (("pf1", 3.0),)


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


def evaluations_per_point(sched, s) -> float:
    """Segment integrals that ``schedule_values(sched, s)`` evaluates, per point."""
    partial, evaluated = schedules._power_partial, []

    def counting(u_lo, *args):
        evaluated.append(np.size(u_lo))
        return partial(u_lo, *args)

    schedules._power_partial = counting
    try:
        schedule_values(sched, s)
    finally:
        schedules._power_partial = partial
    return sum(evaluated) / s.size


def schedule_rows(log2ns, repeats: int = REPEATS, calls: int = SCHEDULE_CALLS) -> list:
    s = np.arange(SCHEDULE_POINTS) / SCHEDULE_POINTS
    rows = []
    for log2n in log2ns:
        sched = build_grover_schedule(2 ** log2n, SCHEDULE_P)  # builds the table
        per_call = best(lambda: schedule_values(sched, s), repeats, calls)
        rows.append((log2n, per_call / s.size, evaluations_per_point(sched, s)))
    return rows


def shift_shares(ws) -> tuple:
    """Shares of the walks in ``ws`` whose phases the Cayley kernel tried
    at a second shift and at a third."""
    cayley_pass, rows = linalg._cayley_pass, []

    def counting(block, *args):
        rows.append(len(block))
        return cayley_pass(block, *args)

    linalg._cayley_pass = counting
    try:
        linalg._cayley_eig(ws, False)
    finally:
        linalg._cayley_pass = cayley_pass
    rows += [0, 0]
    return rows[1] / len(ws), rows[2] / len(ws)


def eig_rows(cases, repeats: int = REPEATS, calls: int = EIG_CALLS) -> list:
    h0, h1 = integrators._endpoints(*four_level_pair())
    f = np.linspace(0.0, 1.0, EIG_BLOCK)
    rows = []
    for tag, h in cases:
        ws = integrators._walk_stack(h0, h1, integrators.INTEGRATORS[tag], h, f)
        times = [best(fn, repeats, calls) for fn in (lambda: linalg._normal_eig_stack(ws),
                                                     lambda: spectral.lowest_phase_gap(ws),
                                                     lambda: np.linalg.eigvals(ws))]
        rows.append((tag, h, *times, *shift_shares(ws)))
    return rows


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="a few short cases only")
    args = parser.parse_args(argv)
    chains, stacks, log2ns, eigs = (
        (TINY_CHAINS, TINY_STACKS, TINY_SCHEDULE_LOG2N, TINY_EIG_CASES) if args.tiny
        else (CHAINS, STACKS, SCHEDULE_LOG2N, EIG_CASES))
    repeats, calls, sched_calls, eig_calls = (
        (1, 10, 1, 1) if args.tiny else (REPEATS, STACK_CALLS, SCHEDULE_CALLS, EIG_CALLS))
    fixed = "".join(f"  k={k:<6}" for k in FIXED_GROUPS)
    print(f"chains, ms (h = {H}, best of {repeats})")
    print(f"{'tag':<6}{'n':>7}{'k':>4}  block+chain   chain   ratio{fixed}")
    for tag, n, k, block, chain, *at in chain_rows(chains, repeats):
        cols = "".join(f"{1e3 * t:10.2f}" for t in at)
        print(f"{tag:<6}{n:>7}{k:>4}{1e3 * block:13.2f}{1e3 * chain:8.2f}{chain / block:8.2f}{cols}")
    print(f"\n_walk_stack, us per call (best of {repeats})")
    for tag, n, t in stack_rows(stacks, repeats, calls):
        print(f"{tag:<6}{n:>7}{1e6 * t:10.1f}")
    print(f"\nschedule inversion, p = {SCHEDULE_P}, {SCHEDULE_POINTS} points (best of {repeats})")
    print(f"{'log2N':<6}{'us/point':>10}{'evals/point':>13}")
    for log2n, t, evals in schedule_rows(log2ns, repeats, sched_calls):
        print(f"{log2n:<6}{1e6 * t:10.3f}{evals:13.3f}")
    print(f"\neigensolvers, ms per {EIG_BLOCK} walks (best of {repeats})")
    print(f"{'tag':<6}{'h':>4}{'stack':>9}{'gap':>9}{'eigvals':>9}{'pass2':>8}{'fallback':>10}")
    for tag, h, stack, gap, eigvals, second, third in eig_rows(eigs, repeats, eig_calls):
        print(f"{tag:<6}{h:>4g}{1e3 * stack:9.2f}{1e3 * gap:9.2f}{1e3 * eigvals:9.2f}"
              f"{second:8.1%}{third:10.1%}")


if __name__ == "__main__":
    main()
