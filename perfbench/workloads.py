"""Seeded workload generators.

A workload is a fixed list of instance *slots* (command, dimensions,
horizon, delay and intended grade); one pass of the benchmark runs every
slot once, in the order listed. The seed draws only the matrix entries, the
initial states and the Monte-Carlo seeds. Keeping the slots and their order
independent of the seed keeps the work (and the allocation pattern) of a
pass the same for every seed, so figures from different seeds are
comparable and the exact work counts of a pass repeat exactly. The program sees only the problem JSON
files written here and the command lines.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("recursion", "certify", "tree", "montecarlo")

SOLVABLE = "solvable"
INDEFINITE = "indefinite"
NOT_CONVEX = "notconvex"
NONNEG = "nonneg"


@dataclass(frozen=True)
class Slot:
    kind: str
    n: int
    m: int
    N: int
    d: int
    grade: str
    samples: int | None = None
    noise: str | None = None


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `argv` is passed to `delq.cli.main` unchanged."""

    kind: str
    argv: tuple[str, ...]
    problem: str
    x: tuple[float, ...] | None = None
    samples: int | None = None


S, I, NC, NN = SOLVABLE, INDEFINITE, NOT_CONVEX, NONNEG

# Each grid is listed from cheap to expensive. The commands around the
# median and around the tail percentile (the 75th; the 50th for montecarlo)
# form blocks of equal cost, so those percentiles fall inside a block and
# do not jump between two commands of different cost from run to run.

# recursion: long horizons (N 400-1000), deep delays (d 5-100); 4 of 14 not
# convex. gains and value dominate; the minority of solve --format json
# commands, with 3 MB outputs, is the tail.
_RECURSION = [
    Slot("gains", 2, 2, 400, 5, I), Slot("value", 2, 2, 400, 5, NC),
    Slot("value", 4, 3, 500, 10, I),
    Slot("gains", 3, 2, 700, 20, I), Slot("gains", 3, 2, 700, 20, NC),
    Slot("gains", 3, 2, 700, 20, I), Slot("value", 3, 2, 700, 20, I),
    Slot("value", 3, 2, 700, 20, NC), Slot("value", 3, 2, 700, 20, I),
    Slot("solve", 2, 2, 800, 20, I), Slot("solve", 2, 2, 800, 20, I),
    Slot("solve", 2, 2, 800, 20, I),
    Slot("gains", 3, 3, 1000, 50, I), Slot("value", 4, 4, 1000, 100, NC),
]

# certify: moderate horizons (N 150-300, d 5-30, n up to 6) through the
# feasibility system, three ways.
_CERTIFY = [
    Slot("check-zero", 6, 3, 150, 5, S), Slot("construct-zero", 2, 2, 100, 5, NN),
    Slot("check-zero", 3, 2, 250, 10, S),
    Slot("construct-certificate", 3, 2, 200, 10, S),
    Slot("construct-zero", 2, 1, 150, 30, NN),
    Slot("check-zero", 4, 2, 200, 20, S),
    Slot("check-zero", 6, 4, 300, 30, S), Slot("construct-zero", 3, 2, 250, 10, NN),
    Slot("construct-certificate", 4, 3, 300, 5, S),
]

# tree: short horizons. Oracle stacked dimensions 132-1026 (4 of 19 not
# convex); exact simulate on trees of depth 14-19. The median and the tail
# fall on blocks of dense oracle solves: as a shared host's speed drifts,
# the latency of an exact rollout swings about twice as much as an
# oracle's.
_TREE = [
    Slot("exact", 2, 1, 14, 2, S), Slot("exact", 3, 2, 15, 3, S),
    Slot("oracle", 2, 2, 9, 3, S), Slot("oracle", 2, 2, 9, 3, NC),
    Slot("oracle", 2, 1, 10, 3, NC), Slot("exact", 2, 2, 16, 2, S),
    Slot("oracle", 3, 2, 9, 2, NC), Slot("exact", 3, 1, 17, 3, S),
    Slot("oracle", 2, 2, 10, 2, NC), Slot("exact", 2, 1, 19, 2, S),
] + [Slot("oracle", 2, 2, 10, 2, S)] * 7 + [Slot("oracle", 3, 1, 11, 2, S)] * 6 + [
    Slot("oracle", 3, 2, 11, 2, S),
]

# montecarlo: N = 50, d in {5, 20}, both noise models, 5e4-1e5 samples.
_MONTECARLO = [
    Slot("mc", 2, 1, 50, 5, S, 50_000, "gaussian"),
    Slot("mc", 3, 2, 50, 20, S, 50_000, "rademacher"),
    Slot("mc", 3, 2, 50, 20, S, 50_000, "gaussian"),
    Slot("mc", 3, 2, 50, 20, S, 50_000, "rademacher"),
    Slot("mc", 4, 2, 50, 5, S, 100_000, "gaussian"),
]

# Tiny grids with the same command mix, for the benchmark's own tests.
_TINY = {
    "recursion": [Slot("gains", 2, 2, 30, 3, I), Slot("value", 2, 1, 25, 4, NC),
                  Slot("value", 3, 2, 20, 2, S), Slot("solve", 2, 2, 20, 3, I)],
    "certify": [Slot("construct-certificate", 2, 2, 12, 3, S),
                Slot("construct-zero", 3, 2, 10, 2, NN),
                Slot("check-zero", 2, 1, 12, 3, S)],
    "tree": [Slot("oracle", 2, 1, 6, 2, S), Slot("oracle", 2, 1, 5, 2, NC),
             Slot("exact", 2, 1, 8, 2, S)],
    "montecarlo": [Slot("mc", 2, 1, 10, 2, S, 2000, "gaussian"),
                   Slot("mc", 2, 2, 10, 3, S, 2000, "rademacher")],
}

_MAX_DRAWS = 20

_GRIDS = {"recursion": _RECURSION, "certify": _CERTIFY, "tree": _TREE,
          "montecarlo": _MONTECARLO}


def _sym(rng, size, lo, hi):
    """Random symmetric matrix with eigenvalues uniform in [lo, hi]."""
    basis = np.linalg.qr(rng.normal(size=(size, size)))[0]
    return basis @ np.diag(rng.uniform(lo, hi, size=size)) @ basis.T


def _orth(rng, n, rho):
    return rho * np.linalg.qr(rng.normal(size=(n, n)))[0]


def problem_dict(rng: np.random.Generator, slot: Slot) -> dict:
    """Problem JSON for one slot.

    A is a scaled rotation (spectral radius 0.9) and the multiplicative noise
    is small, so values stay O(1) over long horizons. Every grade but
    `nonneg` has an indefinite Q everywhere. `solvable` slots have a positive
    definite R (about 1 draw in 300 still grades NotConvex; `_draw` redraws
    it); `indefinite` slots also have a slightly negative R on about one step
    in ten, which the cost-to-go usually compensates (about 1 draw in 75 it
    does not; the checker grades every instance itself); `notconvex` slots
    add one step whose R is so negative that no cost-to-go compensates it;
    `nonneg` slots have positive semidefinite Q, R and G.
    """
    n, m, N = slot.n, slot.m, slot.N
    A = [_orth(rng, n, 0.9) for _ in range(N)]
    B = [rng.normal(scale=0.5, size=(n, m)) for _ in range(N)]
    C = [rng.normal(scale=0.15, size=(n, n)) for _ in range(N)]
    D = [rng.normal(scale=0.15, size=(n, m)) for _ in range(N)]
    if slot.grade == NONNEG:
        Q = [_sym(rng, n, 0.0, 1.0) for _ in range(N)]
        R = [_sym(rng, m, 0.0, 1.2) for _ in range(N)]
        G = _sym(rng, n, 0.0, 1.0)
    else:
        Q = [_sym(rng, n, -0.3, 1.0) for _ in range(N)]
        negative_r = 0.0 if slot.grade == SOLVABLE else 0.1
        R = [_sym(rng, m, -0.05, 0.8) if rng.random() < negative_r else _sym(rng, m, 0.3, 1.2)
             for _ in range(N)]
        G = _sym(rng, n, 0.5, 1.5)
        if slot.grade == NOT_CONVEX:
            R[int(rng.integers(0, N))] = _sym(rng, m, -20.0, -10.0)
    return {
        "n": n, "m": m, "N": N, "d": slot.d,
        "A": [M.tolist() for M in A], "B": [M.tolist() for M in B],
        "C": [M.tolist() for M in C], "D": [M.tolist() for M in D],
        "Q": [M.tolist() for M in Q], "R": [M.tolist() for M in R],
        "G": G.tolist(),
    }


def _solvable(data: dict) -> bool:
    """Grade by the single-region recursion, the checker's own route.
    Imported here: run.py imports this module before it puts the sources
    on the path."""
    from delq.model import problem_from_dict
    from delq.riccati import SOLVABLE_ALL_PAIRS, classify, solve_riccati_bar

    return classify(solve_riccati_bar(problem_from_dict(data), 0)).at_least(SOLVABLE_ALL_PAIRS)


def _draw(rng: np.random.Generator, slot: Slot) -> dict:
    """A problem of the slot's grade; `solvable` slots are redrawn until the
    instance grades solvable, so that no seed changes their cost."""
    for _ in range(_MAX_DRAWS):
        data = problem_dict(rng, slot)
        if slot.grade != SOLVABLE or _solvable(data):
            return data
    raise RuntimeError(f"no solvable draw for {slot} in {_MAX_DRAWS} tries")


def _argv(slot: Slot, path: str, x: tuple[float, ...], mc_seed: int) -> tuple[str, ...]:
    # "--x=..." so that a leading minus sign is not read as an option.
    xs = "--x=" + ",".join(repr(v) for v in x)
    common = ("--problem", path, "--format", "json")
    if slot.kind in ("gains", "solve"):
        return (slot.kind,) + common
    if slot.kind in ("value", "oracle"):
        return (slot.kind,) + common + (xs,)
    if slot.kind == "exact":
        return ("simulate",) + common + (xs,)
    if slot.kind == "mc":
        return ("simulate",) + common + (xs, "--samples", str(slot.samples),
                                         "--noise", slot.noise, "--seed", str(mc_seed))
    sub, source = slot.kind.split("-")
    return ("lmei", sub) + common + (f"--{source}",)


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[Command]:
    """Write the problem files of one pass into `workdir`; return the pass."""
    if workload not in _GRIDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    slots = (_TINY if tiny else _GRIDS)[workload]
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    commands = []
    for j, slot in enumerate(slots):
        path = os.path.join(workdir, f"{workload}-{j:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_draw(rng, slot), fh)
        x = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=slot.n))
        mc_seed = int(rng.integers(0, 2**31))
        commands.append(Command(kind=slot.kind, argv=_argv(slot, path, x, mc_seed),
                                problem=path, x=x, samples=slot.samples))
    return commands
