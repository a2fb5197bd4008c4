"""Gaussian radial-basis-function network with greedy incremental training.

Hidden units are Gaussians exp(-(r/spread)^2) centered on selected training
inputs; the output layer is linear with a bias. Training is orthogonal least
squares: one QR factorisation of the design, grown by a column per inserted
center, scores the candidates at the cost of one kernel product per new
basis direction; its factor R, kept on the trace, solves the output
layer of any stage on demand. A center in the span of the earlier design
changes no score, so the picks after it are known, and a run of such
centers is orthogonalised as one block product. Training stops when the
summed squared error falls to the configured goal, the neuron budget is
reached, or every training input has been consumed as a center. The run is nested
in both rules: its first stages are those of any run with a smaller
budget or a looser goal, so cut_run reads such a run off a longer one.

Candidate scoring reads the n x n candidate kernel matrix only through a
kernel operator. Inputs on a uniform 1-D grid (the time axis of a sampled
series) get ToeplitzKernel, which stores one kernel column and multiplies
by FFT in O(n log n) time and O(n) memory; any other inputs get
DenseKernel, which holds the full matrix. The operators only multiply:
every kernel value, the picked center's column included, comes from
_activations, the evaluator forward() uses. The trainer keeps everything it
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

# A picked center lies in the span of the earlier design when its part
# orthogonal to the basis is at most this fraction of its column's norm.
_SPAN_CUT = 1e-10


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
    stage k lay in the span of the earlier design to _SPAN_CUT of its
    norm: it added no direction and left the error unchanged. n_inputs is
    the number of training inputs. stage_seconds[k] is the trainer's clock
    at the end of stage k, in seconds since train() was entered, read once
    when the stage is committed (stage 0 ends once the bias-only model and
    the kernel operator are set up); it is the one field that differs
    between identical runs. A cut keeps its run's clock up to the cut, and
    a timed run the median over repeats.

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
    for j in range(1, X.shape[1]):
        diff = np.subtract.outer(X[:, j], centers[:, j])
        diff *= diff
        sq += diff
    sq /= -(spread * spread)
    return np.exp(sq, out=sq)


# forward() evaluates its inputs in row blocks whose activations hold at
# most this many floats (1 MiB; one row when a row alone holds more).
_FORWARD_BLOCK = 2**17


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


class ToeplitzKernel:
    """The same kernel for 1-D inputs on a constant step, without the n*n matrix.

    On such a grid K[i, j] = c[|i - j|] with c the first column, so K is
    symmetric Toeplitz. Products embed K in a 2n circulant matrix and go
    through one real FFT (Chan & Ng, SIAM Review 38, 1996); column sums and
    norms come from prefix sums of c. It keeps only c and the circulant's
    spectrum, so memory is O(n), and one operator serves every training
    on its grid and spread.
    """

    def __init__(self, X: np.ndarray, spread: float):
        self._c = c = _activations(X, X[:1], spread)[:, 0]
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
    centers; any other input shape is a ValueError.

    The inputs are evaluated in row blocks of at most _FORWARD_BLOCK
    activations, so memory beyond the inputs and outputs stays bounded
    however many inputs and centers there are.
    """
    x = np.asarray(inputs, dtype=np.float64)
    d = net.centers.shape[1]
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"inputs must have shape (n, {d}), the input dimension, got {x.shape}")
    out = np.empty((x.shape[0], net.output_bias.size))
    rows = max(1, _FORWARD_BLOCK // max(1, net.n_centers))
    for i in range(0, x.shape[0], rows):
        # unnamed, so a block's activations are freed before the next is built
        np.add(net.output_bias,
               _activations(x[i:i + rows], net.centers, net.spread) @ net.output_weights,
               out=out[i:i + rows])
    return out


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
    orthonormal basis Q of the current design, the squared norms of the
    candidate columns' parts orthogonal to it and the candidates' products
    with the residual; Q costs O(n*k) memory for k neurons. Each insertion
    extends Q and the triangular factor R of the same QR factorisation and
    projects the new direction q out of the residual, so the error drop of
    every stage is the score that chose it; one product of the candidate
    kernel matrix with q then updates both the norms and the residual
    products. A center in the span of the earlier design costs no product,
    and the stage after it reuses the scores it left unchanged, so its next
    picks are known: once such a run is r >= 2 stages long, the next r
    picks (at most 16 at 4096 inputs, whatever the budget or goal) are
    orthogonalised together in one Gram-Schmidt pass of block products, and
    those whose remainder lies below the span cut by more than that pass
    rounds are accepted from it; the first other one goes through the
    one-column path's two passes, which alone decide whether a center opens
    a direction. The residual and its products are held as one (2, m, n)
    state, a row of length n per output column each, which a new direction
    updates in one product; the products are computed afresh, as the
    product of the residual's part orthogonal to Q, for the first stage and
    again only once the error has fallen 1e4-fold since they last were.
    Only the final output layer is solved, once, by the trace's
    stage_weights() on at most k+1 rows of R instead of n, as
    stage_network() solves any earlier stage.

    That matrix is reached through kernel_operator(): for 1-D inputs on a
    uniform grid it is never formed, and each product is an FFT
    convolution costing O(n log n); other inputs hold the full matrix in
    O(n^2) memory and pay O(n^2) per product. Either way the picked
    column is evaluated by _activations, as forward() evaluates it, so the
    design columns are the activations forward() computes. Deterministic:
    identical inputs, targets and config give identical results, whatever
    the targets' memory layout.

    Raises ValueError for any other shape, for empty or non-finite data,
    for targets whose mean or summed squared deviation from it overflows,
    and for a spread so small against the input span that (span / spread)^2
    overflows.
    """
    start = time.perf_counter()
    X = np.asarray(inputs, dtype=np.float64)
    # C order: the target means sum a column in an order set by its layout
    Y = np.ascontiguousarray(targets, dtype=np.float64)
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


def _next_picks(scores: np.ndarray, count: int) -> np.ndarray:
    """The `count` indices argmax picks in turn from fixed scores, each struck
    out before the next: best score first, lowest index among equal scores."""
    top = np.argpartition(scores, scores.size - count)[scores.size - count:]
    # argpartition keeps any of the indices that tie on the last score it
    # admits; argmax takes the lowest. A NaN score leaves no picks.
    edge = scores[top].min()
    top = np.concatenate([top[scores[top] > edge], np.flatnonzero(scores == edge)])[:count]
    return top[np.lexsort((top, -scores[top]))]


def _block_cut(n_basis: int, n: int) -> float:
    """Remainder, relative to its column's norm, below which a block product
    puts a column in the span of n_basis basis rows of length n.

    The one-column path's cut is _SPAN_CUT, on the remainder of two
    Gram-Schmidt passes. The block takes one pass, c - (B @ c) @ B, so its
    remainder of the same column c differs by what the second pass corrects
    and by both paths' rounding. With k = n_basis, u = eps / 2 and
    gamma_j = j u / (1 - j u) the bound on a j-term sum in any order
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3):
    - B @ c sums n terms per entry, so it rounds by at most sqrt(k) gamma_n |c|.
      That error lies in the span: the second pass removes it, one pass keeps it.
    - (B @ c) @ B sums k terms per entry and rounds by at most
      sqrt(k) gamma_k |c| on each path, in directions no pass removes.
    - One pass keeps the basis's loss of orthogonality, |B B.T - I| |c|,
      which a second pass squares. Two passes hold it at O(eps) (Giraud,
      Langou & Rozloznik, Comput. Math. Appl. 50, 2005): it measures at most
      2.1e-15 on the conventional Table-1 cells at budgets 100 and 200 over
      seven seeds, and k eps is kept for it.
    - The subtraction, the second pass and the norms round a remainder near
      the cut by relative amounts below sqrt(k) n eps, less than eps |c|
      while sqrt(k) n < 1e10.
    So the remainders differ by less than (sqrt(k) (n / 2 + 2 k) + k + 1) eps
    of |c| while n < 1e8 (2 gamma_k <= 2 k eps covers gamma_n's excess over
    n u), 4.0e-12 at k = 67 and n = 4096: a block remainder below the cut by
    that much is below it on the one-column path too.
    """
    eps = np.finfo(np.float64).eps
    return _SPAN_CUT - (math.sqrt(n_basis) * (n / 2 + 2 * n_basis) + n_basis + 1) * eps


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
    # residual and the rows of `cross` (below) are the two (m, n) halves of
    # one state, so a new direction updates both in one product. The
    # residual starts as the centered targets Yc, transposed: Y less the
    # bias-only predictions.
    state = np.empty((2, m, n))
    residual, cross = state
    with np.errstate(over="ignore", invalid="ignore"):
        target_means = np.add.reduce(Y, axis=0) / n  # what Y.mean(axis=0) computes
        np.subtract(Y.T, target_means[:, None], out=residual)
        sse = float(np.vdot(residual, residual))
    if not math.isfinite(sse):
        raise ValueError("targets overflow: their mean or their summed squared deviation "
                         "from it is not finite")

    # One QR factorisation of the design, grown a column at a time (orthogonal
    # least squares): the orthonormal basis Q (rows of `basis`, the bias
    # direction first) scores the candidates, and R with coef = Q.T @ Yc
    # solves the output layer. The rows of `cross` hold the candidate
    # products K @ residual and `cand_norm2` the squared norms of the
    # candidates' parts orthogonal to the basis, so each candidate's exact
    # SSE reduction is one division away. A new direction q removes coef q
    # from the residual and (q . c) q from every candidate c's orthogonal
    # part, so K @ q, which holds q . c for every c and is the one kernel
    # product an accepted center costs, brings both up to date (Chen, Cowan
    # & Grant, IEEE Trans. Neural Networks 2(2), 1991).
    max_centers = min(config.max_neurons, n)
    basis = np.empty((max_centers + 1, n))
    basis[0] = 1.0 / np.sqrt(n)
    n_basis = 1
    # Floored where rounding leaves nothing of a column.
    cand_norm2 = op.column_norms2() - op.constant_projection() ** 2
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
    picked = np.empty(max_centers, dtype=np.intp)  # the centers' indices, in pick order
    k = 0  # centers picked
    in_span: list[bool] = []
    clock = [time.perf_counter() - start]
    # Scratch for a new direction's update: the stacked rows [q; K q] and
    # the (2, m, n) product with the direction's coefficients that leaves
    # the state.
    rows = np.empty((2, n))
    outer = np.empty_like(state)
    run = 0  # in-span stages since the last stage that opened a direction
    # Picks a block product placed in the span, in pick order, each with its
    # column of R; a trailing None sends the block's next pick through the
    # one-column path. The block and its scratch hold at most _FORWARD_BLOCK
    # floats, and no stopping rule sizes it, so runs stay nested in both rules.
    queued: list = []
    block_rows = _FORWARD_BLOCK // (2 * n)

    while (reason := stop_reason(sse, k, n, config)) is None:
        B = basis[:n_basis]
        # After a center that opened no direction, residual, cross, cand_norm2
        # and the SSE are as they were, so every score stands but the new pick's.
        if run == 0:
            if sse < _RESCORE_FRACTION * scored_sse:
                # c_perp . residual for every candidate c, with c_perp the part
                # of c orthogonal to the current design span: c . r_perp, with
                # r_perp the residual's part orthogonal to the basis.
                cross[...] = op.matmul(residual - (residual @ B.T) @ B)
                scored_sse = sse
            # Exact SSE drop from adding column c: |c_perp . residual|^2 / |c_perp|^2.
            # A score past the float range becomes +inf, which argmax picks
            # like any other largest score.
            with np.errstate(over="ignore"):
                np.einsum("ij,ij->j", cross, cross, out=scores)
                scores /= cand_norm2
            scores[picked[:k]] = -np.inf
        # The scores stand through a run of in-span stages, so its next picks
        # are known. Once the run is r >= 2 stages long, the next min(r, ...)
        # picks go through one Gram-Schmidt pass as one block product, which
        # reads the basis once for them all (block Gram-Schmidt, Stewart, SIAM
        # J. Sci. Comput. 31(1), 2008). A second pass only keeps a new
        # direction orthogonal, and an in-span column opens none: one pass
        # gives its coordinates, R's column, to rounding level, and its
        # verdict once the cut allows for that pass's rounding.
        if not queued and (size := min(run, n - k, block_rows)) >= 2:
            block = _next_picks(scores, size)
            C = _activations(X[block], X, config.spread)
            c_norm = np.sqrt(np.einsum("ij,ij->i", C, C))
            Rb = C @ B.T
            C -= Rb @ B
            below = np.sqrt(np.einsum("ij,ij->i", C, C)) <= _block_cut(n_basis, n) * c_norm
            accepted = int(np.logical_and.accumulate(below).sum())
            queued = list(zip(block[:accepted].tolist(), Rb)) + [None] * (accepted < size)
        entry = queued.pop(0) if queued else None
        if entry is not None:
            idx, R[:n_basis, k] = entry
            spans = True
        else:
            idx = int(scores.argmax())
            # Orthogonalise the accepted column against the basis in two
            # Gram-Schmidt passes; its coordinates in the basis become R[:, k].
            column = _activations(X[idx:idx + 1], X, config.spread)[0]
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
            spans = norm <= _SPAN_CUT * math.sqrt(column @ column)
        picked[k] = idx
        scores[idx] = -np.inf
        in_span.append(spans)
        run = run + 1 if spans else 0
        if not spans:
            q = np.divide(v, norm, out=basis[n_basis])
            rows[0] = q
            R[n_basis, k] = norm
            # coef row == Yc.T @ q: q is orthogonal to what was removed
            coef_q = np.matmul(residual, q, out=coef[n_basis])
            rows[1] = op.matmul(q)
            state -= np.multiply(coef_q[:, None], rows[:, None], out=outer)
            kq = rows[1]
            cand_norm2 -= np.multiply(kq, kq, out=kq)
            np.maximum(cand_norm2, 1e-300, out=cand_norm2)
            n_basis += 1
            sse = float(np.vdot(residual, residual))
        k += 1
        sse_history.append(sse)
        clock.append(time.perf_counter() - start)

    trace = TrainTrace(
        sse_history=np.asarray(sse_history),
        selected_indices=picked[:k].tolist(),
        stop_reason=reason,
        in_span=in_span,
        R=np.column_stack([R[:n_basis, :k], R[:n_basis, max_centers]]),
        coef=coef[:n_basis].copy(),
        target_means=target_means,
        n_inputs=n,
        stage_seconds=np.asarray(clock),
    )
    # The final output layer is solved once, as any stage's is.
    weights, bias = trace.stage_weights(k)
    net = RbfNetwork(
        centers=_frozen(X[picked[:k]]),
        spread=config.spread,
        output_weights=weights,
        output_bias=bias,
    )
    return net, trace


def stage_network(net: RbfNetwork, trace: TrainTrace, stage: int) -> RbfNetwork:
    """Network as it stood after `stage` centers (stage 0 = bias only), for
    the run's network `net` and its trace: `net` itself at the trace's last
    stage, else solved from the trace by TrainTrace.stage_weights."""
    if stage == len(trace.in_span):
        return net
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
    clock, and its network is stage_network() of the run at that stage,
    the run's own network at its last stage. Every field but stage_seconds
    equals that of a standalone run, because the greedy run is nested in
    its budget and goal; the run may itself be a cut of a longer one.
    Raises ValueError for another spread, or when the run stopped on its
    own budget or goal before `config` stops.
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
    return stage_network(net, trace, stage), cut
