"""Policy evaluation: exact expectation by second moments, and Monte Carlo.

Exact mode computes the expected cost of a feedback policy, not an
estimate, by one forward pass over second moments (``exact_cost``). With
y_k = E_{max(t,k-d)}[X_k], the controller's delayed prediction, the pass
carries M_k = E[X_k X_k^T] and Sigma_k = E[y_k y_k^T]; the cost of a step is
linear in them, and each step costs a fixed number of n x n products,
whatever d is. Only E w = 0 and E w^2 = 1 enter, so the result is the same
under Rademacher and Gaussian noise. Nothing is enumerated: the pass is
linear in the horizon, and the DELQ_DEPTH_CAP tree-depth cap does not
apply to it. The result reports no sample count (``samples`` is None).

Monte-Carlo mode draws paths. Feedback policies there compute the delayed
conditional mean E_{k-d}[X_k] with the innovation form of the implementable
predictor: the mean dynamics plus each step's noise term, carried forward by
a product of A's once it is d steps old. A step then costs the same whatever
d is, and nothing is resampled. ``predictor`` is the direct per-path
reference (replay the realized path to time k-d, then iterate the mean
dynamics), and the tests hold the two routes to each other. The work,
samples x (N - t) path-steps, is capped by DELQ_PATH_STEP_CAP (10^9 by
default); a larger request is refused before anything is drawn.

The noise is streamed: chunks of ``MC_CHUNK`` rows are drawn in order from
one counter-based generator keyed by the seed (the same numbers as one
up-front draw), and each chunk's costs are reduced before the next is
drawn, in a fixed order. Results are bit-identical across runs and memory
does not grow with the sample count.

Inside a chunk the paths are columns: the state and the prediction of
every path form one C-contiguous (2n, rows) array s = [X; y]. Each step
advances all of them with one product F_k s of a per-step operand built
once per call (``_chunk_operands``): with the gain folded in (u = K y), its
rows give the next state and the next prediction before their noise terms,
the innovation before w_k, and the cost coordinates V^T X and U^T K y of
Q_k = V diag(lam) V^T and R_k = U diag(mu) U^T. The step's cost is a second
product, of [lam, mu] with the squared coordinates, so indefinite weights
need nothing extra. The noise multiplies the innovation, the revealed
innovation enters the prediction through one n x n product, and every
elementwise kernel runs along the long axis into buffers allocated once
per chunk. A step makes three products once an innovation is revealed and
two before, whatever n, m and d are.

Both routes take a ``FeedbackPolicy`` and nothing else; ``model._check_policy``
is their one policy check.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ResourceLimitError, ValidationError
from .linalg import spectral_factors
from .model import (
    FeedbackPolicy,
    ProblemData,
    _check_policy,
    _check_solve_args,
    _check_state,
    _env_cap,
    ensure_valid,
    measurable_level,
    quadratic_columns,
)

EXACT = "Exact"
MONTE_CARLO = "MonteCarlo"
RADEMACHER = "Rademacher"
GAUSSIAN = "Gaussian"

#: Samples processed per chunk in Monte-Carlo mode. Fixed (never derived from
#: worker counts) so the floating-point reduction order is reproducible.
MC_CHUNK = 4096

#: Default cap on Monte-Carlo work, samples x (N - t) path-steps (about a
#: minute at tens of ns per path-step); DELQ_PATH_STEP_CAP overrides it.
DEFAULT_PATH_STEP_CAP = 10**9
PATH_STEP_CAP_ENV = "DELQ_PATH_STEP_CAP"


@dataclass(frozen=True)
class EvaluationResult:
    mean: float
    std_error: float
    samples: int | None
    mode: str
    noise: str
    seed: int | None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "noise": self.noise,
            "samples": self.samples,
            "seed": self.seed,
            "mean": self.mean,
            "std_error": self.std_error,
        }


def exact_cost(problem: ProblemData, t: int, x, policy: FeedbackPolicy,
               noise: str = "rademacher") -> EvaluationResult:
    """Exact expected cost of a feedback policy from (t, x), 0 <= t <= N
    (x^T G x at N), by one forward pass over second moments.

    With y_k = E_{max(t,k-d)}[X_k], the pass carries M_k = E[X_k X_k^T] and
    Sigma_k = E[y_k y_k^T] from M_t = Sigma_t = x x^T. Since E[X_k y_k^T] =
    Sigma_k, the moment of (X_k, u_k) is Z = [[M, Sigma K^T], [K Sigma,
    K Sigma K^T]], and each step makes

        V_k = [C D] Z [C D]^T          (the innovation's second moment),
        M_{k+1} = [A B] Z [A B]^T + V_k,
        Sigma_{k+1} = (A + BK) Sigma (A + BK)^T + Phi_{k+1} V_{k-d} Phi_{k+1}^T,

    the last term once the innovation of step k-d is revealed (k >= t + d;
    Phi_{k+1} as in ``_phis``). A step costs tr(Q_k M_k) +
    tr(R_k K Sigma K^T). Only E w = 0 and E w^2 = 1 enter, so the value is
    that of either noise model; `noise` names the one reported. The pass
    reads the problem and the gains only, never a recursion's P, W or H.
    Any other kind of policy is refused (ValidationError). A cost that
    overflows raises ConsistencyError."""
    ensure_valid(problem)
    N, n, d = problem.N, problem.n, problem.d
    if not 0 <= t <= N:
        raise ValidationError(f"initial time t={t} must satisfy 0 <= t <= N = {N}")
    noise_label = _normalize_noise(noise)
    x = _check_state(x, n)
    _check_policy(policy, problem, t)
    F = np.block([[problem.A[t:], problem.B[t:]], [problem.C[t:], problem.D[t:]]])
    Z = np.empty((n + problem.m, n + problem.m))
    window: deque[np.ndarray] = deque()   # the V's still to be revealed
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        M = Sigma = np.outer(x, x)
        steps = zip(problem.A[t:], problem.B[t:], policy.gains[t - policy.t:], _phis(problem, t))
        for k, (A, B, K, Phi) in enumerate(steps, start=t):
            KS = K @ Sigma
            Z[:n, :n] = M
            Z[n:, :n] = KS
            Z[:n, n:] = KS.T
            np.matmul(KS, K.T, out=Z[n:, n:])
            total += np.vdot(problem.Q[k], M) + np.vdot(problem.R[k], Z[n:, n:])
            S = F[k - t] @ Z @ F[k - t].T
            V = S[n:, n:]
            M = S[:n, :n] + V
            closed = A + B @ K
            Sigma = closed @ Sigma @ closed.T
            if k + d < N:
                window.append(V)
            if Phi is not None:
                Sigma += Phi @ window.popleft() @ Phi.T
        mean = float(total + np.vdot(problem.G, M))
    _check_finite(mean, 0.0)
    return EvaluationResult(mean=mean, std_error=0.0, samples=None, mode=EXACT,
                            noise=noise_label, seed=None)


def _check_finite(mean: float, std_error: float) -> None:
    """Raise ConsistencyError for a simulated mean or standard error that
    finite data overflowed to a non-finite number."""
    if not np.isfinite(mean):
        raise ConsistencyError("numerical breakdown: non-finite simulated mean")
    if not np.isfinite(std_error):
        raise ConsistencyError("numerical breakdown: non-finite simulated standard error")


def _normalize_noise(noise: str) -> str:
    label = {"rademacher": RADEMACHER, "gaussian": GAUSSIAN}.get(str(noise).lower())
    if label is None:
        raise ValidationError(f"unknown noise model {noise!r}")
    return label


def _noise_chunks(noise: str, samples: int, steps: int, seed: int):
    """(rows, steps) noise blocks of at most MC_CHUNK rows, in sample order.

    All chunks come in order from one counter-based generator keyed by the
    seed; the generator carries its state between draws, so the rows are
    exactly those of one (samples, steps) draw from the same key. Every
    chunk is drawn into the leading rows of one buffer, so a chunk is
    valid only until the next one is drawn: the float noise of a run
    takes one chunk of memory whatever the heap did before. A Rademacher
    chunk is 1 - 2 * (integers drawn as before), computed in place."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    buf = np.empty((min(MC_CHUNK, samples), steps))
    for lo in range(0, samples, MC_CHUNK):
        chunk = buf[:min(MC_CHUNK, samples - lo)]
        if noise == RADEMACHER:
            np.multiply(rng.integers(0, 2, size=chunk.shape), -2.0, out=chunk)
            chunk += 1.0
        else:
            rng.standard_normal(out=chunk)
        yield chunk


def _window_products(mats: list, d: int) -> list:
    """[mats[j+d-1] @ ... @ mats[j] for j = 0..len(mats)-d], for d >= 1, at
    about three n x n products per window whatever d is.

    Two-stack sliding-window aggregation (Tangwongsan et al., PVLDB 2015)
    over blocks of d matrices: a window starting at j in the block [s, s+d)
    is the product of the block's tail mats[s+d-1] ... mats[j] and the head
    mats[j+d-1] ... mats[s+d] of the next block, both built incrementally;
    a window that starts a block is that block's whole tail."""
    windows = []
    for s in range(0, len(mats) - d + 1, d):
        tails = [mats[s + d - 1]]
        for j in range(s + d - 2, s - 1, -1):
            tails.append(tails[-1] @ mats[j])
        tails.reverse()
        windows.append(tails[0])
        head = None
        for j in range(s + 1, min(s + d, len(mats) - d + 1)):
            nxt = mats[j + d - 1]
            head = nxt if head is None else nxt @ head
            windows.append(head @ tails[j - s])
    return windows


def _phis(problem: ProblemData, t: int) -> list:
    """Phi_{k+1} = A_k A_{k-1} ... A_{k-d+1} for k = t..N-1 (the identity at
    d = 0): it carries the innovation e_{k-d}, revealed at time k+1-d, onto
    the conditional mean of X_{k+1}. None for k < t+d, where no innovation
    is revealed. The Phi's are sliding windows of d consecutive A's
    (``_window_products``), so building them all costs O(N) products."""
    N, d = problem.N, problem.d
    if d == 0:
        return [np.eye(problem.n)] * (N - t)
    return [None] * min(d, N - t) + _window_products(list(problem.A[t + 1:N]), d)


def _chunk_operands(problem: ProblemData, t: int, policy: FeedbackPolicy) -> list[tuple]:
    """Operands of the steps k = t..N-1 of a Monte-Carlo chunk, built once
    per call: (F_k, c_k, Phi_{k+1}).

    A chunk carries s = [X; y], y the prediction. With the control u = K y
    (K = K_k), F_k s stacks

        A X + B K y          the next state before its noise term,
        (A + B K) y          the next prediction before the revealed
                             innovation,
        C X + D K y          the innovation before w_k,
        V^T X and U^T K y    the cost coordinates,

    where Q_k = V diag(lam) V^T and R_k = U diag(mu) U^T (``spectral_factors``).
    c_k = [lam, mu, 1] weighs the squared cost coordinates and carries the
    running cost: a step's cost is x^T Q x + u^T R u = lam . (V^T x)^2 +
    mu . (U^T u)^2. Phi_{k+1} is ``_phis``'s."""
    n, m, N = problem.n, problem.m, problem.N
    steps = N - t
    K = np.asarray(policy.gains[t - policy.t:N - policy.t]).reshape(steps, m, n)
    lam, V = spectral_factors(problem.Q[t:])
    mu, U = spectral_factors(problem.R[t:])
    A, BK = problem.A[t:], problem.B[t:] @ K
    F = np.zeros((steps, 4 * n + m, 2 * n))
    F[:, :n, :n], F[:, :n, n:] = A, BK
    F[:, n:2 * n, n:] = A + BK
    F[:, 2 * n:3 * n, :n], F[:, 2 * n:3 * n, n:] = problem.C[t:], problem.D[t:] @ K
    F[:, 3 * n:4 * n, :n] = np.swapaxes(V, -1, -2)
    F[:, 4 * n:, n:] = np.swapaxes(U, -1, -2) @ K
    c = np.ones((steps, 1, n + m + 1))
    c[:, 0, :n], c[:, 0, n:n + m] = lam, mu
    return list(zip(F, c, _phis(problem, t)))


def _chunk_costs(problem: ProblemData, t: int, x: np.ndarray, noises: np.ndarray,
                 operands: list[tuple]) -> np.ndarray:
    """Path costs for one (rows, steps) chunk of noises, one cost per row.

    The paths are the columns of the chunk's arrays (see the module
    docstring), and ``operands`` is ``_chunk_operands``. A step advances
    every path with one product P = F_k s, then

        e = (innovation rows of P) * w_k,
        X = (state rows of P) + e,
        y = (prediction rows of P) + Phi_{k+1} e_{k-d},

    and adds c_k . [(cost rows of P)^2; running cost] to the running cost
    with a second product. The noise of step k, column k - t of the chunk,
    is gathered into one contiguous row first. A step makes three products
    once an innovation is revealed (k >= t + d) and two before, whatever n,
    m and d are."""
    n, N, d = problem.n, problem.N, problem.d
    rows = noises.shape[0]
    s = np.empty((2 * n, rows))
    X, y = s[:n], s[n:]
    X[...] = x[:, None]
    y[...] = x[:, None]
    # P's last row is the running cost of the steps so far, which the
    # product F_k s leaves alone.
    P = np.empty((4 * n + problem.m + 1, rows))
    P[-1] = 0.0
    state, prediction = P[:n], P[n:2 * n]
    innovation, coords, weighed = P[2 * n:3 * n], P[3 * n:-1], P[3 * n:]
    w = np.empty(rows)

    # Innovation-form predictor: y = E_s[X_k] with s = max(t, k-d). With
    # e_j = (C_j X_j + D_j u_j) w_j, the noise term of the state update,
    # y_{k+1} = (A_k + B_k K_k) y_k, plus Phi_{k+1} e_{k-d} once e_{k-d} is
    # revealed (k >= t+d). Step k writes e_k into ring[(k - t) % len(ring)]:
    # with d + 1 slots, the slot of e_{k-d} is the one step k+1 overwrites
    # (at d = 0, e_k itself is revealed in step k).
    ring = [np.empty((n, rows)) for _ in range(d + 1 if d < N - t else 1)]

    for j, (F, c, Phi) in enumerate(operands):
        np.matmul(F, s, out=P[:-1])
        np.square(coords, out=coords)
        # the output is the input's last row: numpy reads the running cost
        # before it writes the new one
        np.matmul(c, weighed, out=P[-1:])
        np.copyto(w, noises[:, j])
        e = ring[j % len(ring)]
        np.multiply(innovation, w, out=e)
        np.add(state, e, out=X)
        if Phi is None:
            np.copyto(y, prediction)
        else:
            # the innovation rows are spent: they take Phi e_{k-d}
            np.matmul(Phi, ring[(j - d) % len(ring)], out=innovation)
            np.add(prediction, innovation, out=y)

    costs = quadratic_columns(X, problem.G, out=state)
    costs += P[-1]
    return costs


def monte_carlo_cost(problem: ProblemData, t: int, x, policy: FeedbackPolicy,
                     noise: str = "rademacher", samples: int = 10_000,
                     seed: int = 0) -> EvaluationResult:
    """Sample mean and standard error of the path cost of a feedback policy.

    Memory is O(MC_CHUNK), whatever the sample count: the noise is drawn and
    reduced chunk by chunk.
    """
    _check_solve_args(problem, t)
    if samples < 2:
        raise ValidationError(f"need at least 2 samples, got {samples}")
    if not 0 <= seed < 1 << 128:
        raise ValidationError(f"seed must be in [0, 2^128), got {seed}")
    noise_label = _normalize_noise(noise)
    steps = problem.N - t
    limit = _env_cap(PATH_STEP_CAP_ENV, DEFAULT_PATH_STEP_CAP)
    if samples * steps > limit:
        raise ResourceLimitError(
            f"Monte-Carlo work of {samples} samples x {steps} steps exceeds cap "
            f"{limit} path-steps (set {PATH_STEP_CAP_ENV} to raise it)"
        )
    x = _check_state(x, problem.n)
    _check_policy(policy, problem, t)

    # Chunk means and squared deviations merged in chunk order (Chan, Golub
    # & LeVeque's pairwise update), so no per-sample array outlives a chunk.
    # With one chunk this is the plain two-pass mean and deviation sum.
    # A chunk is reduced before the generator draws the next one into the
    # same buffer, so only one noise chunk is alive at a time.
    operands = _chunk_operands(problem, t, policy)
    count, mean, m2 = 0, 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _noise_chunks(noise_label, samples, steps, seed):
            costs = _chunk_costs(problem, t, x, block, operands)
            rows = costs.shape[0]
            chunk_mean = float(np.sum(costs) / rows)
            centered = costs - chunk_mean
            delta = chunk_mean - mean
            m2 += float(np.sum(centered * centered)) \
                + delta * delta * (count * rows / (count + rows))
            count += rows
            mean += delta * (rows / count)
        std_error = float(np.sqrt(m2 / (samples - 1) / samples))
    _check_finite(mean, std_error)
    return EvaluationResult(mean=mean, std_error=std_error, samples=samples,
                            mode=MONTE_CARLO, noise=noise_label, seed=seed)


def predictor(problem: ProblemData, t: int, x, gains, k: int, noises=()) -> np.ndarray:
    """E_{max(t,k-d)}[X_k] for the closed-loop system, computed the way an
    implementation with delayed measurements would: reconstruct the realized
    path up to time s = max(t, k-d) from the observed noises, then iterate
    the conditional-mean dynamics y <- A_j y + B_j u_j forward to k (the
    noise terms have zero conditional mean, and the controls u_j for
    j = s..k-1 are already determined by information at s)."""
    d = problem.d
    if not t <= k <= problem.N:
        raise ValidationError(f"time {k} outside [{t}, {problem.N}]")
    s = measurable_level(t, d, k)
    noises = np.asarray(noises, dtype=float).reshape(-1)
    if noises.shape[0] < s - t:
        raise ValidationError(
            f"need the realized noises w_{t}..w_{s - 1} ({s - t} values), "
            f"got {noises.shape[0]}"
        )
    gains = [np.asarray(K, dtype=float) for K in gains]
    x = _check_state(x, problem.n)

    states = {t: x}
    controls: dict[int, np.ndarray] = {}

    def control(j: int) -> np.ndarray:
        if j not in controls:
            sj = measurable_level(t, d, j)
            y = states[sj]
            for i in range(sj, j):
                y = problem.A[i] @ y + problem.B[i] @ control(i)
            controls[j] = gains[j - t] @ y
        return controls[j]

    for j in range(t, s):
        u = control(j)
        w = noises[j - t]
        states[j + 1] = problem.A[j] @ states[j] + problem.B[j] @ u \
            + (problem.C[j] @ states[j] + problem.D[j] @ u) * w

    y = states[s]
    for j in range(s, k):
        y = problem.A[j] @ y + problem.B[j] @ control(j)
    return y
