"""Gaussian radial-basis-function network with greedy incremental training.

Hidden units are Gaussians exp(-(r/spread)^2) centered on selected training
inputs; the output layer is linear with a bias. Training is orthogonal least
squares: one QR factorisation of the design, grown by a column per inserted
center, scores the candidates at the cost of one kernel product per new
basis direction; its factor R, kept on the trace, solves the output
layer of any stage on demand. Training stops when the summed
squared error falls to the configured goal, the neuron budget is reached,
or every training input has been consumed as a center. The run is nested
in both rules: its first stages are those of any run with a smaller
budget or a looser goal, so cut_run reads such a run off a longer one.

Candidate scoring reads the n x n candidate kernel matrix only through a
kernel operator. Inputs on a uniform 1-D grid (the time axis of a sampled
series) get ToeplitzKernel, which stores one kernel column and multiplies
by FFT in O(n log n) time and O(n) memory; any other inputs get
DenseKernel, which holds the full matrix. The trainer keeps everything it
holds per output column (residual, candidate products) as contiguous rows
of length n, and the operators multiply along the last axis, so a product
takes one (n,) vector or an (r, n) block of rows.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .signal import _frozen, _readonly

# Relative singular-value threshold for the rank-revealing least-squares
# solve; nearly collinear activation columns degrade gracefully.
_LSTSQ_RCOND = 1e-12

# The trainer keeps the candidate products K @ residual current by one
# rank-1 update per new basis direction. Those updates round at the scale
# of what they subtract, eps * |K| * |r0| with r0 the residual when the
# products were last computed from it, while a fresh product rounds at
# eps * |K| * |r|. Recomputing them once the SSE |r|^2 falls below this
# fraction of |r0|^2 keeps the drift within sqrt(1e4) = 100 times a fresh
# pass's rounding; left to grow with a residual shrunk by orders of
# magnitude, the drift promotes near-span candidates.
_RESCORE_FRACTION = 1e-4


def _check_spread(spread: float) -> None:
    """Reject a kernel width the activations exp(-r^2 / spread^2) cannot use."""
    if not (0 < spread < np.inf and 0 < spread * spread < np.inf):
        raise ValueError(f"spread must be positive and finite with a positive finite "
                         f"square, got {spread}")


@dataclass(frozen=True)
class TrainConfig:
    """Stopping rules and kernel width for incremental training."""

    sse_goal: float
    max_neurons: int
    spread: float

    def __post_init__(self):
        if not self.sse_goal >= 0:
            raise ValueError(f"sse_goal must be >= 0, got {self.sse_goal}")
        if self.max_neurons < 1:
            raise ValueError(f"max_neurons must be >= 1, got {self.max_neurons}")
        _check_spread(self.spread)


@dataclass(frozen=True)
class RbfNetwork:
    """Trained network: Gaussian centers plus linear output layer.

    The one accepted shape of each: centers (k, d) with d >= 1, k >= 0;
    output_weights (k, m); output_bias (m,). Each is stored read-only: a
    writeable or non-contiguous input is copied, a read-only one shared.
    """

    centers: np.ndarray
    spread: float
    output_weights: np.ndarray
    output_bias: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=np.float64)
        w = np.asarray(self.output_weights, dtype=np.float64)
        b = np.asarray(self.output_bias, dtype=np.float64)
        _check_spread(self.spread)
        if c.ndim != 2 or c.shape[1] == 0 or b.ndim != 1 or w.shape != (c.shape[0], b.size):
            raise ValueError(f"centers {c.shape}, output_weights {w.shape} and output_bias "
                             f"{b.shape} must have shapes (k, d) with d >= 1, (k, m) and (m,): "
                             f"k weight rows for k centers, m weight columns for m bias entries")
        for arr in (c, w, b):
            if not np.isfinite(arr).all():
                raise ValueError("network parameters must be finite")
        for name, arr in (("centers", c), ("output_weights", w), ("output_bias", b)):
            object.__setattr__(self, name, _readonly(arr))

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]


def stop_reason(sse: float, stage: int, n_inputs: int, config: TrainConfig) -> str | None:
    """Why training on n_inputs inputs stops after `stage` centers at summed
    squared error `sse`, or None when it goes on.

    The rules in order: 'sse_goal' once sse <= config.sse_goal,
    'max_neurons' once stage >= config.max_neurons, 'inputs_exhausted'
    once every input is a center.
    """
    if sse <= config.sse_goal:
        return "sse_goal"
    if stage >= config.max_neurons:
        return "max_neurons"
    if stage >= n_inputs:
        return "inputs_exhausted"
    return None


@dataclass
class TrainTrace:
    """Per-stage record of a training run.

    sse_history[k] is the summed squared error after k centers (k = 0 is
    the bias-only model). stop_reason is what stop_reason() returned at
    the last stage. in_span[k - 1] is True when the center added at
    stage k lay in the span of the earlier design to 1e-10 of its norm: it
    added no direction and left the error unchanged. n_inputs is the
    number of training inputs. stage_seconds[k] is the trainer's clock at
    the end of stage k, in seconds since train() was entered (stage 0
    ends once the bias-only model and the kernel operator are set up); it
    is the one field that differs between identical runs. A cut keeps
    its run's clock up to the cut, a timed run the median over repeats.

    R is the triangular factor of the final design in the training basis:
    one row per basis vector (bias direction first), one column per center
    in selection order, then the bias column. coef holds the basis
    coordinates of the targets less their target_means. An in-span center
    opens no row, so the design after k centers is the leading block of
    1 + k - sum(in_span[:k]) rows.
    """

    sse_history: np.ndarray
    selected_indices: list[int]
    stop_reason: str
    in_span: list[bool]
    R: np.ndarray
    coef: np.ndarray
    target_means: np.ndarray
    n_inputs: int
    stage_seconds: np.ndarray

    def _factor(self, stage: int) -> tuple[np.ndarray, np.ndarray]:
        """(R, coef) of the design after `stage` centers: R's leading block."""
        if not 0 <= stage <= len(self.in_span):
            raise ValueError(f"stage must be in 0..{len(self.in_span)}, got {stage}")
        rows = 1 + stage - sum(self.in_span[:stage])
        return np.column_stack([self.R[:rows, :stage], self.R[:rows, -1]]), self.coef[:rows]

    def stage_weights(self, stage: int) -> tuple[np.ndarray, np.ndarray]:
        """(output_weights, output_bias) after `stage` centers: the minimum-norm
        least-squares solution of that stage's design, solved on R's leading block.
        Both are fresh and read-only, so an RbfNetwork shares them."""
        weights, centered_bias = solve_output_weights(*self._factor(stage))
        return _frozen(weights), _frozen(centered_bias + self.target_means)


def _activations(X: np.ndarray, centers: np.ndarray, spread: float) -> np.ndarray:
    """Activation matrix, shape (n, k), for inputs X (n, d) and centers (k, d).

    Squared distances accumulate one input dimension at a time in one
    (n, k) buffer, which is then exponentiated in place.
    """
    sq = np.subtract.outer(X[:, 0], centers[:, 0])
    sq *= sq
    for x, c in zip(X.T[1:], centers.T[1:]):
        diff = np.subtract.outer(x, c)
        diff *= diff
        sq += diff
    sq /= -(spread * spread)
    return np.exp(sq, out=sq)


# A grid is accepted for ToeplitzKernel when its worst deviation from the
# straight line through its end points is at most tol = max(3e-13 * s,
# 4 * eps * max|x|) for spread s: the larger of this fraction of the spread
# and the rounding the stored inputs carry (i * dt rounds by eps/2 * |x|).
# The Toeplitz entry K[i, j] = c[|i - j|] is evaluated at the distance
# x[|i-j|] - x[0] instead of x[i] - x[j]; those differ by at most three
# deviations, and |d/dr exp(-(r/s)^2)| <= sqrt(2/e)/s, so every entry stays
# within 3 * sqrt(2/e) * tol / s + 2.3e-13 of the dense kernel, whose
# diagonal is 1; the 2.3e-13 covers rounding in the line itself.
_GRID_TOL = 3e-13


class DenseKernel:
    """Candidate kernel matrix K[i, j] = exp(-|x_i - x_j|^2 / spread^2), held in full.

    Works for any inputs, in O(n^2) memory.
    """

    def __init__(self, X: np.ndarray, spread: float):
        self.matrix = _activations(X, X, spread)

    def matmul(self, V: np.ndarray) -> np.ndarray:
        """K @ v for every row v of V: V @ K for V of shape (r, n) or (n,)."""
        return V @ self.matrix

    def constant_projection(self) -> np.ndarray:
        """Every column's projection on the unit constant vector: column sums / sqrt(n)."""
        n = self.matrix.shape[0]
        return np.full(n, 1.0 / np.sqrt(n)) @ self.matrix

    def column_norms2(self) -> np.ndarray:
        """Squared Euclidean norm of every column."""
        return np.einsum("ij,ij->j", self.matrix, self.matrix)

    def column(self, j: int) -> np.ndarray:
        """Column j: the activations of center x_j on every input."""
        return self.matrix[:, j]


class ToeplitzKernel:
    """The same kernel for 1-D inputs on a constant step, without the n*n matrix.

    On such a grid K[i, j] = c[|i - j|] with c the first column, so K is
    symmetric Toeplitz. Products embed K in a 2n circulant matrix and go
    through one real FFT (Chan & Ng, SIAM Review 38, 1996); column sums and
    norms come from prefix sums of c. Memory is O(n).
    """

    def __init__(self, X: np.ndarray, spread: float):
        self._x = X
        self._spread = spread
        c = self.column(0)
        self._c = c
        # First column of the circulant embedding: c, one free entry, c reversed.
        self._circ_fft = np.fft.rfft(np.concatenate([c, [0.0], c[:0:-1]]))

    def matmul(self, V: np.ndarray) -> np.ndarray:
        """K @ v for every row v of V: V @ K for V of shape (r, n) or (n,)."""
        n = self._c.size
        spectrum = np.fft.rfft(V, n=2 * n)
        spectrum *= self._circ_fft
        return np.fft.irfft(spectrum, n=2 * n)[..., :n]

    def _symmetric_sums(self, values: np.ndarray) -> np.ndarray:
        # Column j holds values[j..1] above the diagonal and values[0..n-1-j]
        # from it down, so its sum is two prefix sums less the shared values[0].
        prefix = np.cumsum(values)
        return prefix + prefix[::-1] - values[0]

    def constant_projection(self) -> np.ndarray:
        """Every column's projection on the unit constant vector: column sums / sqrt(n)."""
        return self._symmetric_sums(self._c) * (1.0 / np.sqrt(self._c.size))

    def column_norms2(self) -> np.ndarray:
        """Squared Euclidean norm of every column."""
        return self._symmetric_sums(self._c * self._c)

    def column(self, j: int) -> np.ndarray:
        """Column j, evaluated from the inputs like forward() does."""
        return _activations(self._x, self._x[j:j + 1], self._spread)[:, 0]


def kernel_operator(X: np.ndarray, spread: float) -> DenseKernel | ToeplitzKernel:
    """The kernel operator for inputs X of shape (n, d), chosen from X alone.

    ToeplitzKernel when X is one column of at least two values on a constant
    step, to within the tolerance stated at _GRID_TOL; DenseKernel otherwise.
    """
    n = X.shape[0]
    if X.shape[1] == 1 and n >= 2:
        x = X[:, 0]
        line = x[0] + (x[-1] - x[0]) / (n - 1) * np.arange(n)
        rounding = 4 * np.finfo(np.float64).eps * float(np.max(np.abs(x)))
        if float(np.max(np.abs(x - line))) <= max(_GRID_TOL * spread, rounding):
            return ToeplitzKernel(X, spread)
    return DenseKernel(X, spread)


def forward(net: RbfNetwork, inputs) -> np.ndarray:
    """Outputs (n, m) for inputs (n, d), d the width of net.centers even with no
    centers; any other input shape is a ValueError."""
    x = np.asarray(inputs, dtype=np.float64)
    d = net.centers.shape[1]
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"inputs must have shape (n, {d}), the input dimension, got {x.shape}")
    return net.output_bias + _activations(x, net.centers, net.spread) @ net.output_weights


def solve_output_weights(design: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares output layer for a design matrix with trailing bias column.

    design: (r, k+1) with k activation columns followed by the bias column
    (all ones for the n-row design; TrainTrace.stage_weights passes an
    r <= k+1 row block of the factor R instead); targets: (r, m), also for
    m = 1. Any other shape is a ValueError. Returns weights (k, m) and
    bias (m,) minimizing the Frobenius residual; rank-deficient
    designs fall back to the minimum-norm solution (singular values below
    1e-12 of the largest are dropped).
    """
    D = np.asarray(design, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] < 1:
        raise ValueError("design must be a 2-d matrix with at least one row")
    if Y.ndim != 2 or Y.shape[0] != D.shape[0]:
        raise ValueError(f"targets must be 2-d with the design's {D.shape[0]} rows, got {Y.shape}")
    if not np.isfinite(D).all() or not np.isfinite(Y).all():
        raise ValueError("design and targets must be finite")
    params, _, _, _ = np.linalg.lstsq(D, Y, rcond=_LSTSQ_RCOND)
    return params[:-1], params[-1]


def train(inputs, targets, config: TrainConfig) -> tuple[RbfNetwork, TrainTrace]:
    """Greedy incremental training on inputs (n, d) and targets (n, m), both 2-d.

    Starts from the bias-only model (bias = column means of the targets),
    then repeatedly promotes the not-yet-used training input whose kernel
    column most reduces the summed squared error (ties broken by lowest
    index). The candidate reductions are computed exactly from an
    orthonormal basis Q of the current design, its projections on every
    candidate column and the candidates' products with the residual, which
    costs O(n*k) memory for k neurons. Each insertion extends Q and the
    triangular factor R of the same QR factorisation and projects the new
    direction q out of the residual, so the error drop of every stage is
    the score that chose it; one product of the candidate kernel matrix
    with q then updates both the projections and the residual products. A
    center in the span of the earlier design costs no product, and the
    stage after it reuses the scores it left unchanged. The residual
    and its products are held as one row of length n per output column; the
    products (an (m, n) block for m output columns) are computed afresh for
    the first stage and again only once the error has fallen 1e4-fold since
    they last were.
    Only the final output layer is solved, once, through R on at most k+1
    rows instead of n; stage_network() solves earlier stages the same way.

    That matrix is reached through kernel_operator(): for 1-D inputs on a
    uniform grid it is never formed, and each product is an FFT
    convolution costing O(n log n); other inputs hold the full matrix in
    O(n^2) memory and pay O(n^2) per product. Either way the design
    columns are the activations forward() computes. Deterministic:
    identical inputs, targets and config give identical results.

    Raises ValueError for any other shape, for empty or non-finite data,
    for targets whose mean or summed squared deviation from it overflows,
    and for a spread so small against the input span that (span / spread)^2
    overflows.
    """
    start = time.perf_counter()
    X = np.asarray(inputs, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] == 0:
        raise ValueError("inputs and targets must be 2-d matrices with at least one input column")
    n = X.shape[0]
    if n == 0:
        raise ValueError("training set is empty")
    if Y.shape[0] != n:
        raise ValueError(f"targets rows ({Y.shape[0]}) != inputs rows ({n})")
    if not np.isfinite(X).all() or not np.isfinite(Y).all():
        raise ValueError("inputs and targets must be finite")
    # The activations divide squared input distances by spread^2; the
    # largest of them must stay finite, or exp() is fed an overflow.
    with np.errstate(over="ignore"):
        span2 = np.sum(np.ptp(X, axis=0) ** 2)
        if not np.isfinite(span2 / (config.spread * config.spread)):
            raise ValueError(f"spread {config.spread:g} is too small for inputs spanning "
                             f"{np.sqrt(span2):g}: (span / spread)^2 overflows")
    return _greedy_train(X, Y, config, kernel_operator(X, config.spread), start)


def _greedy_train(X: np.ndarray, Y: np.ndarray, config: TrainConfig,
                  op: DenseKernel | ToeplitzKernel,
                  start: float) -> tuple[RbfNetwork, TrainTrace]:
    """train() on validated (n, d) inputs and (n, m) targets through kernel
    operator op; the stage clock counts from the perf_counter() value start."""
    n = X.shape[0]
    m = Y.shape[1]

    # Solve against mean-centered targets and fold the means back into the
    # bias: identical residuals, but the least-squares stages keep full
    # precision when the signal rides on large position offsets. Both must
    # be finite, which finite targets alone do not promise.
    # Per-output quantities are kept as rows of length n, one per output
    # column, so their elementwise work runs along contiguous memory. The
    # residual starts as the centered targets Yc, transposed: Y less the
    # bias-only predictions.
    with np.errstate(over="ignore", invalid="ignore"):
        target_means = Y.mean(axis=0)
        residual = (Y - target_means).T.copy()
        sse = float(np.vdot(residual, residual))
    if not math.isfinite(sse):
        raise ValueError("targets overflow: their mean or their summed squared deviation "
                         "from it is not finite")

    # One QR factorisation of the design, grown a column at a time (orthogonal
    # least squares): the orthonormal basis Q (rows of `basis`, the bias
    # direction first) scores the candidates, and R with coef = Q.T @ Yc
    # solves the output layer. `basis_proj` holds the basis projections
    # K @ q of every candidate column and the rows of `cross` the candidate
    # products K @ residual, so each candidate's exact SSE reduction is one
    # dot product away. A new direction q removes coef q from the residual,
    # so K @ q, the one kernel product an accepted center costs, both
    # extends basis_proj and brings cross up to date (Chen, Cowan & Grant,
    # IEEE Trans. Neural Networks 2(2), 1991).
    max_centers = min(config.max_neurons, n)
    basis = np.empty((max_centers + 1, n))
    basis_proj = np.empty((max_centers + 1, n))
    basis[0] = 1.0 / np.sqrt(n)
    basis_proj[0] = op.constant_projection()
    n_basis = 1
    # Squared norms of the candidates' parts orthogonal to the basis,
    # floored where rounding leaves nothing of a column.
    cand_norm2 = op.column_norms2() - basis_proj[0] ** 2
    np.maximum(cand_norm2, 1e-300, out=cand_norm2)
    scored_sse = np.inf  # SSE when cross was last computed from the residual; none yet
    scores = np.empty(n)
    # Design = Q @ [R | sqrt(n) e0]: column j of R holds center j's
    # coordinates in the basis, and the bias column is sqrt(n) times the
    # first basis vector. Yc is centered, so its bias coordinate is zero.
    R = np.zeros((max_centers + 1, max_centers + 1))
    R[0, max_centers] = np.sqrt(n)
    coef = np.zeros((max_centers + 1, m))

    sse_history = [sse]
    chosen: list[int] = []
    in_span: list[bool] = []
    clock = [time.perf_counter() - start]
    # Scratch rows for a new direction's updates: the (m, n) outer products
    # that leave the residual and cross, and the (n,) squares of K q.
    outer = np.empty((m, n))
    kq2 = np.empty(n)
    spans = False

    while (reason := stop_reason(sse, len(chosen), n, config)) is None:
        B = basis[:n_basis]
        if spans:
            # The last center opened no direction: residual, cross, cand_norm2
            # and the SSE are as they were, so no fresh pass is due and every
            # score stands but the new pick's.
            scores[chosen[-1]] = -np.inf
        else:
            if sse < _RESCORE_FRACTION * scored_sse:
                # c_perp . residual for every candidate c, with c_perp the part
                # of c orthogonal to the current design span.
                cross = op.matmul(residual) - (residual @ B.T) @ basis_proj[:n_basis]
                scored_sse = sse
            # Exact SSE drop from adding column c: |c_perp . residual|^2 / |c_perp|^2.
            # A score past the float range becomes +inf, which argmax picks
            # like any other largest score.
            with np.errstate(over="ignore"):
                np.einsum("ij,ij->j", cross, cross, out=scores)
                scores /= cand_norm2
            scores[chosen] = -np.inf
        idx = int(np.argmax(scores))
        k = len(chosen)
        chosen.append(idx)

        # Orthogonalise the accepted column against the basis in two
        # Gram-Schmidt passes; its coordinates in the basis become R[:, k].
        # The column is evaluated afresh rather than read from basis_proj,
        # which carries the rounding of the scoring products.
        column = op.column(idx)
        r = B @ column
        v = column - B.T @ r
        s = B @ v
        v -= B.T @ s
        r += s
        R[:n_basis, k] = r
        norm = math.sqrt(v @ v)  # |v|, as np.linalg.norm computes it for a real vector
        # A column already in the span opens no basis row and leaves the
        # residual, and with it every score, unchanged; the minimum-norm
        # solve sets its weight.
        spans = norm <= 1e-10 * math.sqrt(column @ column)
        in_span.append(spans)
        if not spans:
            q = np.divide(v, norm, out=basis[n_basis])
            R[n_basis, k] = norm
            # coef row == Yc.T @ q: q is orthogonal to what was removed
            np.matmul(residual, q, out=coef[n_basis])
            residual -= np.multiply.outer(coef[n_basis], q, out=outer)
            kq = op.matmul(q)
            basis_proj[n_basis] = kq
            cand_norm2 -= np.multiply(kq, kq, out=kq2)
            np.maximum(cand_norm2, 1e-300, out=cand_norm2)
            cross -= np.multiply.outer(coef[n_basis], kq, out=outer)
            n_basis += 1
            sse = float(np.vdot(residual, residual))
        sse_history.append(sse)
        clock.append(time.perf_counter() - start)

    trace = TrainTrace(
        sse_history=np.asarray(sse_history),
        selected_indices=chosen,
        stop_reason=reason,
        in_span=in_span,
        R=np.column_stack([R[:n_basis, :len(chosen)], R[:n_basis, max_centers]]),
        coef=coef[:n_basis].copy(),
        target_means=target_means,
        n_inputs=n,
        stage_seconds=np.asarray(clock),
    )
    weights, bias = trace.stage_weights(len(chosen))
    net = RbfNetwork(
        centers=_frozen(X[chosen]),
        spread=config.spread,
        output_weights=weights,
        output_bias=bias,
    )
    return net, trace


def stage_network(net: RbfNetwork, trace: TrainTrace, stage: int) -> RbfNetwork:
    """Network as it stood after `stage` centers (stage 0 = bias only)."""
    weights, bias = trace.stage_weights(stage)
    return RbfNetwork(
        centers=net.centers[:stage],
        spread=net.spread,
        output_weights=weights,
        output_bias=bias,
    )


def cut_run(net: RbfNetwork, trace: TrainTrace,
            config: TrainConfig) -> tuple[RbfNetwork, TrainTrace]:
    """The (network, trace) train() returns for `config`, read off a run of
    the same inputs and targets at the same spread that went at least as far.

    The cut ends at the first stage where stop_reason() stops `config`;
    its trace holds R's leading block and the prefix of the run's stage
    clock, and a shorter cut's output layer is solved through that trace
    by stage_network(). A cut at the run's own last stage keeps the run's
    network. Every field but stage_seconds equals that of a standalone
    run, because the greedy run is nested in its budget and goal; the run
    may itself be a cut of a longer one. Raises ValueError for another
    spread, or when the run stopped on its own budget or goal before
    `config` stops.
    """
    if config.spread != net.spread:
        raise ValueError(f"a run at spread {net.spread:g} cannot give spread {config.spread:g}")
    last = len(trace.in_span)
    for stage in range(last + 1):
        reason = stop_reason(float(trace.sse_history[stage]), stage, trace.n_inputs, config)
        if reason is not None:
            break
    else:
        raise ValueError(f"the run stopped on {trace.stop_reason} after {last} centers, "
                         f"before {config} stops")
    R, coef = trace._factor(stage)
    cut = TrainTrace(
        sse_history=trace.sse_history[:stage + 1].copy(),
        selected_indices=trace.selected_indices[:stage],
        stop_reason=reason,
        in_span=trace.in_span[:stage],
        R=R,
        coef=coef.copy(),
        target_means=trace.target_means,
        n_inputs=trace.n_inputs,
        stage_seconds=trace.stage_seconds[:stage + 1].copy(),
    )
    return (net if stage == last else stage_network(net, cut, stage)), cut
