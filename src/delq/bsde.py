"""The brute-force quadratic oracle.

Under the two-point noise the admissible control set is a finite-dimensional
Euclidean space (one m-vector per information atom per time), so the cost is
literally a quadratic form J(t,x;u) = u^T M u + 2 b^T u + c over stacked
control coordinates. This module materializes that form from one zero-state
response pattern per (time, control component), as per-time tables that
every information atom of a time shares. It minimizes the form by block
elimination on those tables in reverse time order, which creates no fill
on the information tree (Liu's elimination tree): one m x m pivot per time
level, and M itself is never formed. Each pivot decides its level by the
extended Schur lemma (Albert 1969): it must be PSD, and the rows coupling
it to earlier levels and the level's linear term must lie in its range.
The oracle never reads the recursion's W, H or P. Everything here is exact
up to floating point — no sampling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ValidationError
from .linalg import PINV_RTOL, PSD_TOL, _pivot_pinv, scale_floor, symmetrize
from .model import (
    ProblemData,
    _check_depth,
    _check_solve_args,
    _check_state,
    measurable_level,
    tree_step,
)


# ---------------------------------------------------------------------------
# Stacked controls and the quadratic form

@dataclass(frozen=True)
class StackedControlLayout:
    """Index map between admissible controls and flat coordinate vectors.

    Coordinate order: time-major, then information atom, then control
    component; the control at time k lives on 2^(max(t,k-d) - t) atoms.
    """

    t: int
    N: int
    d: int
    m: int
    atoms: tuple[int, ...]
    offsets: tuple[int, ...]
    size: int

    @classmethod
    def build(cls, problem: ProblemData, t: int) -> "StackedControlLayout":
        atoms, offsets = [], []
        size = 0
        for k in range(t, problem.N):
            s = measurable_level(t, problem.d, k)
            offsets.append(size)
            atoms.append(1 << (s - t))
            size += atoms[-1] * problem.m
        return cls(t=t, N=problem.N, d=problem.d, m=problem.m,
                   atoms=tuple(atoms), offsets=tuple(offsets), size=size)


@dataclass(frozen=True)
class QuadraticForm:
    """J(t,x;u) = u^T M u + 2 b^T u + c over stacked control coordinates,
    with M kept as its per-time `tables`: tables[j2] is the flat
    concatenation, over j1 = 0..j2, of the (m, a2/a1, m) coupling between
    the controls of one atom of time j1 (rows) and those of the a2/a1 atoms
    of time j2 beneath it, one table shared by every atom of j1; the last
    one (j1 = j2) is the diagonal block, R included. A b of the wrong length
    or a non-finite b or table is refused.
    """

    b: np.ndarray
    c: float
    layout: StackedControlLayout
    tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        if np.shape(self.b) != (self.layout.size,):
            raise ValidationError(
                f"b has length {np.size(self.b)}, M has {self.layout.size} rows")
        if not all(np.all(np.isfinite(table)) for table in self.tables):
            raise ValidationError("M contains non-finite entries")
        if not np.all(np.isfinite(self.b)):
            raise ValidationError("b contains non-finite entries")


def assemble_quadratic(problem: ProblemData, t: int, x) -> QuadraticForm:
    """Materialize the cost as an explicit quadratic form, held as tables.

    Every atom's subtree runs the same dynamics, so the zero-state response
    to basis control (time j, atom a, component i) is one pattern per
    (j, i), placed on a's subtree. One sweep steps the response to x and the
    patterns together; per time and acted time j2, one Gram product against
    j2's weighted pattern accumulates b's j2 segment and, per j1 <= j2, a
    table over the position of j2's atom inside j1's (``QuadraticForm``);
    R joins the diagonal ones. A form with a non-finite entry (finite data
    that overflowed) raises ConsistencyError.
    """
    _check_solve_args(problem, t)
    layout = StackedControlLayout.build(problem, t)
    _check_depth(t, problem.N)

    n, m = problem.n, problem.m
    x = _check_state(x, n)

    atoms = layout.atoms
    # acc[j2]: b's j2 segment, then a table per j1 <= j2
    acc = [np.zeros((a2 + m * sum(a2 // a1 for a1 in atoms[:j2 + 1]), m))
           for j2, a2 in enumerate(atoms)]
    c = 0.0
    Z = x[None, :]      # response to x, then one pattern per acted time
    ends = [1]          # row end of each
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(problem.N - t + 1):
            k = t + j
            ZW = Z @ symmetrize(problem.Q[k] if k < problem.N else problem.G)
            prob = 1.0 / (1 << j)
            c += prob * float(np.sum(ZW[:ends[0]] * Z[:ends[0]]))
            for j2 in range(j):
                lo, hi = ends[j2], ends[j2 + 1]
                width = (hi - lo) // m * n
                acc[j2] += prob * (Z[:hi].reshape(-1, width) @ ZW[lo:hi].reshape(m, width).T)
            if k == problem.N:
                break
            rows = (1 << j) // atoms[j]   # time k's pattern, zero state
            U = np.zeros((ends[-1] + m * rows, m))
            U[ends[-1]:] = np.repeat(np.eye(m), rows, axis=0)
            Z = tree_step(problem, k, np.concatenate([Z, np.zeros((m * rows, n))]), U)
            ends = [2 * e for e in ends] + [2 * len(U)]

        b = np.concatenate([acc[j][:a].ravel() for j, a in enumerate(atoms)])
        tables = tuple(acc[j][a:].ravel() for j, a in enumerate(atoms))
        for j, table in enumerate(tables):
            diag = table[-m * m:].reshape(m, m)
            diag[...] = symmetrize(diag + problem.R[t + j] / atoms[j])
    if not (np.isfinite(c) and np.all(np.isfinite(b))
            and all(np.all(np.isfinite(table)) for table in tables)):
        raise ConsistencyError("numerical breakdown: non-finite oracle form")
    return QuadraticForm(b=b, c=c, layout=layout, tables=tables)


@dataclass(frozen=True)
class OracleOutcome:
    """Result of globally minimizing the stacked quadratic form."""

    bounded: bool
    value: float | None
    minimizer: np.ndarray | None
    reason: str

    @property
    def status(self) -> str:
        return "Bounded" if self.bounded else "Unbounded"


def _eliminate(q: QuadraticForm, psd_tol: float, pinv_rtol: float) -> OracleOutcome:
    """Minimize a form by block elimination in reverse time order.

    A latest-time atom couples only to its ancestors, which already couple
    to each other, so eliminating the times from last to first creates no
    fill (Liu's elimination tree). The atoms of one time are disjoint
    subtrees that share their tables, so a time level has a single m x m
    pivot P, and its Schur update of every ancestor table is one product
    that sums over the siblings; only b is per atom. By the extended Schur
    lemma the form is bounded iff at every level P is PSD and the coupling
    rows and the level's b lie in Ran(P); the update then uses P^+. Each
    pivot is graded at the form's scale_floor (``linalg._pivot_pinv``). The
    value is c - sum of b_L^T P_L^+ b_L over the levels, and the minimizer
    comes from back-substitution, earliest time first.
    """
    layout, m = q.layout, q.layout.m
    atoms = layout.atoms
    scale = max(scale_floor(table) for table in q.tables)
    b_scale = scale_floor(q.b)
    tabs = [table.copy() for table in q.tables]
    b = [q.b[off:off + a * m].reshape(a, m).copy()
         for a, off in zip(atoms, layout.offsets)]
    c = q.c
    inverses = [np.empty(0)] * len(atoms)
    outside = None      # latest time whose linear term leaves the range
    for L in range(len(atoms) - 1, -1, -1):
        k = layout.t + L
        P = tabs[L][-m * m:].reshape(m, m)
        coupling = tabs[L][:-m * m].reshape(-1, m)
        # a verdict reads only finite numbers: the pivot always, and the
        # coupling rows and b when the pivot has a kernel
        if not np.isfinite(P).all():
            raise ConsistencyError(f"numerical breakdown: non-finite oracle pivot at k={k}")
        lam, kernel, Pinv = _pivot_pinv(P, scale, pinv_rtol)
        if kernel is not None and not (np.isfinite(coupling).all() and np.isfinite(b[L]).all()):
            raise ConsistencyError(f"numerical breakdown: non-finite oracle pivot at k={k}")
        if lam < -psd_tol * scale or kernel is not None \
                and np.max(np.abs(coupling @ kernel), initial=0.0) > psd_tol * scale:
            return OracleOutcome(
                bounded=False, value=None, minimizer=None,
                reason=f"quadratic term has negative eigenvalue {lam:.3e} at k={k}",
            )
        if kernel is not None and outside is None \
                and np.max(np.abs(b[L] @ kernel)) > psd_tol * b_scale:
            outside = k
        inverses[L] = Pinv
        y = b[L] @ Pinv
        c -= float(np.sum(b[L] * y))
        scaled = (coupling @ Pinv).ravel()
        pos = 0
        for j in range(L):      # tables T_{j1,L} for j1 <= j fold into tabs[j]
            width = atoms[L] // atoms[j] * m
            end = pos + m * width
            tabs[j] -= (tabs[L][:end].reshape(-1, width)
                        @ scaled[pos:end].reshape(m, width).T).ravel()
            b[j] -= y.reshape(atoms[j], width) @ tabs[L][pos:end].reshape(m, width).T
            pos = end
    if outside is not None:
        return OracleOutcome(
            bounded=False, value=None, minimizer=None,
            reason="linear term has a component outside the range of the "
                   f"quadratic term at k={outside}",
        )
    u: list[np.ndarray] = []
    for L, aL in enumerate(atoms):
        rhs = b[L]
        pos = 0
        for j in range(L):
            width = aL // atoms[j] * m
            end = pos + m * width
            rhs = rhs + (u[j] @ tabs[L][pos:end].reshape(m, width)).reshape(aL, m)
            pos = end
        u.append(-(rhs @ inverses[L]))
    return OracleOutcome(bounded=True, value=c,
                         minimizer=np.concatenate([v.ravel() for v in u]), reason="")


def oracle_minimize(q: QuadraticForm, psd_tol: float = PSD_TOL,
                    pinv_rtol: float = PINV_RTOL) -> OracleOutcome:
    """Global infimum of u^T M u + 2 b^T u + c, by block elimination on the
    form's tables (``_eliminate``); M itself is never formed.

    Bounded iff M is PSD and b lies in the range of M; otherwise the form
    runs to minus infinity along a negative direction or along kernel
    directions with linear descent. Eliminating the levels latest first,
    one eigh of each m x m pivot P gives the verdict at its time k:
    lambda_min(P) < -psd_tol * scale, or a coupling row with a component
    above psd_tol * scale in P's kernel (eigenvalues ≤ pinv_rtol * scale),
    makes M not PSD, and the reason is "quadratic term has negative
    eigenvalue {lambda_min(P)} at k={k}" (near zero in the coupling case);
    `scale` is the form's scale_floor. When M is PSD but some level's b has
    a kernel component above psd_tol * scale_floor(b), the reason is
    "linear term has a component outside the range of the quadratic term
    at k={k}", at the latest such k. A Bounded value is c - b^T M^+ b. Its
    minimizer, from the per-level pseudo-inverses, solves M u = -b; when M
    is singular it need not be the least-norm -M^+ b. A non-finite pivot
    (finite data that overflowed in the elimination) or a non-finite
    Bounded answer raises ConsistencyError.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        outcome = _eliminate(q, psd_tol, pinv_rtol)
    if outcome.bounded and not (np.isfinite(outcome.value)
                                and np.all(np.isfinite(outcome.minimizer))):
        raise ConsistencyError("numerical breakdown: non-finite oracle minimum")
    return outcome
