"""Feature extractor, evidence head, and the SGD trainer.

The desk-scale backbone is a fully connected ReLU network on vector
inputs. The evidence head is a single affine layer from the
C-dimensional feature vector to 2K outputs, passed through ReLU so
evidence is non-negative by construction; outputs are laid out as
[e_1_pos, e_1_neg, e_2_pos, e_2_neg, ...]. The trainer descends the mean
of ``losses.batch_nll_grad``'s per-sample losses. Its Beta prior, the
(K, 2) pseudo-counts W * (a_pos, a_neg) with the fixed weight W = 2 and
base rates from the CIW table, is built once per fit and passed to every
step.

Everything runs in float64 and is deterministic given the seed: parameter
init and minibatch shuffling come from one seeded generator, and all
reductions have a fixed order. Returned parameter sets should be treated
as immutable; the trainer never mutates its inputs.

One layer loop, ``_relu_layers``, computes every relu(h @ W.T + b): each
backbone layer, and the head as one more layer whose weight is stored
transposed. It adds the bias and applies the ReLU in place on the fresh
matmul output, so a layer costs one N x width array, and it never writes
into the caller's input or parameters. Inference (``extract_features``,
``evidence_from_features``, ``batch_evidence``) and training run that
same loop, so the function the trainer descends is the function that is
scored.
``batch_loss_grads`` keeps the activations the loop yields and takes
each ReLU mask from them: relu(z) > 0 exactly where z > 0, for NaN,
signed zeros and infinities too, so no pre-activation is kept. Its
backward pass is one loop that carries dz down through the weight above.

``extract_features`` and ``batch_evidence`` run the loop over blocks of
rows and copy each block's last output into one preallocated (N, width)
array, so a forward holds its output plus one block's layer outputs, and
its memory does not grow with N beyond the output. A block has at least
``_MIN_BLOCK_ROWS`` (4096) rows, and enough that every layer does at
least ``_MIN_BLOCK_MACS`` (2**20) multiply-adds; the last block also takes
the remainder, so no block is shorter unless the whole input is. An
input of one block is returned as the loop leaves it, with no copy. The
block bound keeps the bits of the whole-matrix forward: on OpenBLAS with
the SkylakeX kernels, a dgemm with M * N * K <= 10**6 takes a
small-matrix kernel that rounds differently, and every block of a split
input is above that size, as the whole matrix is.

The frozen refit computes each training row's backbone features once,
before its first epoch, with ``extract_features``, so in the same blocks.
It then fits the head on those features as a model with an empty
backbone, so scratch training and the refit run one fit path.

The trainer keeps every parameter it updates in one private float64
vector, in ``_param_layout`` order, with one gradient vector of the same
layout beside it. The models it steps are reshaped views of the first;
``batch_loss_grads`` writes each gradient into its view of the second
(``out=``), so no per-step gradient arrays are allocated. A step is one
in-place ``sgd_step`` over the whole vector. Each epoch gathers its
shuffled rows once, so every batch is a contiguous slice. The trainer
returns validated copies, never views.

A fit checks once, at entry: the data's shapes and its label count
against the CIW table, and the parameters' shapes and finiteness (the
model dataclasses, built once over the views). It builds the Beta prior
and the batch bounds once too. A step re-checks only what the step can
change: that its loss is finite and, after the update, that every
parameter is; either failure raises ``TrainingDiverged`` with the epoch
and batch. The step's two kernels keep their own shape checks, which read
``.shape`` and ``.ndim`` alone, and the step runs the head through
``_relu_layers`` itself rather than through ``evidence_from_features``,
whose input conversion and checks serve the scoring path.

Checkpoints are UTF-8 text. Five header lines give the architecture:

    #evidkit-model v1
    input <D>
    hidden <h1,h2,...>      ("-" when there is no hidden layer)
    features <F>
    classes <K>

Then each parameter follows in ``_param_layout`` order (backbone.0.weight,
backbone.0.bias, ..., head.weight, head.bias) as a ``param NAME ROWS COLS``
line and ROWS lines of COLS space-separated repr decimals, so round trips
are bit-exact. A backbone weight is (out, in), the head weight (F, 2K),
and a bias is one row (1, out). Blank lines after the last parameter are
accepted; anything else there is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base_rates import CIWTable, base_rate_arrays
from .errors import ConfigError, DataFormatError, NonFiniteOutput, TrainingDiverged
from .fileio import read_lines, write_text
from .losses import batch_nll_grad
from .opinions import DEFAULT_PRIOR_WEIGHT

CHECKPOINT_MAGIC = "#evidkit-model"
CHECKPOINT_VERSION = "v1"

DEFAULT_HIDDEN = (64, 64)
DEFAULT_FEATURE_DIM = 32

# an inference forward runs in blocks of at least this many rows, and of
# at least this many multiply-adds in every layer (see the module docstring)
_MIN_BLOCK_ROWS = 4096
_MIN_BLOCK_MACS = 2**20


@dataclass
class MlpParams:
    """Dense ReLU layers; layers[i] is (weight (out, in), bias (out,))."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        prev_out = None
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} disagree")
            if prev_out is not None and w.shape[1] != prev_out:
                raise ValueError(
                    f"layer {i}: input dim {w.shape[1]} != previous output dim {prev_out}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: non-finite parameters")
            prev_out = w.shape[0]

    def _nonempty(self):
        if not self.layers:
            raise ValueError("the backbone is empty (MlpParams([])): it has no layer sizes")
        return self.layers

    @property
    def dim_in(self) -> int:
        return self._nonempty()[0][0].shape[1]

    @property
    def dim_out(self) -> int:
        return self._nonempty()[-1][0].shape[0]

    @property
    def hidden(self) -> list[int]:
        """Output widths of every layer but the last."""
        return [w.shape[0] for w, _ in self._nonempty()[:-1]]


@dataclass
class EvidenceHeadParams:
    """Affine evidence head: weight (C, 2K), bias (2K,)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("head weight must be 2-D and bias 1-D")
        if self.weight.shape[1] != self.bias.shape[0]:
            raise ValueError(
                f"head weight {self.weight.shape} and bias {self.bias.shape} disagree"
            )
        if self.weight.shape[1] % 2 != 0:
            raise ValueError("head output dim must be 2K (a pos/neg pair per class)")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ValueError("non-finite head parameters")

    @property
    def num_classes(self) -> int:
        return self.weight.shape[1] // 2

    @property
    def dim_in(self) -> int:
        return self.weight.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 0.1
    lr_decay_ratio: float = 0.1
    lr_decay_every: int = 30
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0 or not math.isfinite(self.learning_rate):
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.lr_decay_ratio <= 0 or not math.isfinite(self.lr_decay_ratio):
            raise ConfigError(f"lr_decay_ratio must be > 0, got {self.lr_decay_ratio}")
        if self.lr_decay_every < 1:
            raise ConfigError(f"lr_decay_every must be >= 1, got {self.lr_decay_every}")
        if self.weight_decay < 0 or not math.isfinite(self.weight_decay):
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # a ratio above 1 raises the rate, most at the last epoch
        if self.epochs and self.lr_decay_ratio > 1:
            try:
                peak = self.learning_rate_at(self.epochs - 1)
            except OverflowError:
                peak = math.inf
            if not math.isfinite(peak):
                raise ConfigError(
                    f"the learning rate overflows float64: --lr {self.learning_rate!r} "
                    f"multiplied by --lr-decay-ratio {self.lr_decay_ratio!r} every "
                    f"--lr-decay-every {self.lr_decay_every} epochs over --epochs "
                    f"{self.epochs}; lower the ratio or the epochs"
                )

    def learning_rate_at(self, epoch: int) -> float:
        """The step size of ``epoch``: times lr_decay_ratio every lr_decay_every epochs."""
        return self.learning_rate * self.lr_decay_ratio ** (epoch // self.lr_decay_every)


@dataclass(frozen=True)
class TrainResult:
    mlp: MlpParams
    head: EvidenceHeadParams
    epoch_losses: tuple[float, ...] = field(default_factory=tuple)


def _relu_layers(h: np.ndarray, layers):
    """Yield relu(h @ W.T + b) for each (W, b) in turn; each output is the next h."""
    for w, b in layers:
        h = h @ w.T
        h += b
        np.maximum(h, 0.0, out=h)
        yield h


def _block_rows(layers) -> int:
    """Rows per block of a blocked forward through ``layers``."""
    smallest = min(w.size for w, _ in layers)
    return max(_MIN_BLOCK_ROWS, -(-_MIN_BLOCK_MACS // smallest))


def _blocked_forward(x: np.ndarray, layers) -> np.ndarray:
    """The last output of ``_relu_layers(x, layers)``, run over row blocks.

    Every block but the last has ``_block_rows(layers)`` rows; the last
    also takes the remainder. Each block's output is copied into one
    preallocated array; an input of one block is returned as the loop
    leaves it.
    """
    n = x.shape[0]
    size = _block_rows(layers)
    blocks = max(1, n // size)
    if blocks == 1:
        for h in _relu_layers(x, layers):
            pass
        return h
    out = np.empty((n, layers[-1][0].shape[0]))
    for i in range(blocks):
        rows = slice(i * size, n if i == blocks - 1 else (i + 1) * size)
        for h in _relu_layers(x[rows], layers):
            pass
        out[rows] = h
    return out


def _as_rows(a, width: int, what: str, layer: str) -> np.ndarray:
    """``a`` as a float64 (N, width) array, or ValueError naming ``what`` and ``layer``."""
    h = np.asarray(a, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != width:
        raise ValueError(
            f"{what} shape {np.asarray(a).shape} does not match {layer} input dim {width}"
        )
    return h


def extract_features(x: np.ndarray, mlp: MlpParams) -> np.ndarray:
    """Forward pass of the backbone: (N, D) inputs -> (N, width) features."""
    return _blocked_forward(_as_rows(x, mlp.dim_in, "input", "backbone"), mlp.layers)


def evidence_from_features(features: np.ndarray, head: EvidenceHeadParams) -> np.ndarray:
    """Evidence pairs from (N, F) backbone features: relu(f @ W + b) as (N, K, 2)."""
    f = _as_rows(features, head.dim_in, "feature", "head")
    # the head is one more ReLU layer whose weight is stored transposed
    (ev,) = _relu_layers(f, [(head.weight.T, head.bias)])
    return ev.reshape(f.shape[0], head.num_classes, 2)


def batch_evidence(mlp: MlpParams, head: EvidenceHeadParams, x: np.ndarray) -> np.ndarray:
    """Backbone + head in one call: (N, D) inputs -> (N, K, 2) evidence."""
    h = _as_rows(x, mlp.dim_in, "input", "backbone")
    # the head's input-width check, on a stand-in for the features
    _as_rows(np.broadcast_to(0.0, (h.shape[0], mlp.dim_out)), head.dim_in, "feature", "head")
    ev = _blocked_forward(h, [*mlp.layers, (head.weight.T, head.bias)])
    return ev.reshape(h.shape[0], head.num_classes, 2)


def _param_layout(dims, num_classes):
    """(name, shape, fan_in) of each parameter of backbone dims[0] -> ... -> dims[-1]
    and its head, in the one order that init draws, the trainer's vector holds
    and the checkpoint stores. ``dims=[feature_dim]`` gives the head alone."""
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        yield f"backbone.{i}.weight", (d_out, d_in), d_in
        yield f"backbone.{i}.bias", (d_out,), d_in
    yield "head.weight", (dims[-1], 2 * num_classes), dims[-1]
    yield "head.bias", (2 * num_classes,), dims[-1]


def _param_arrays(mlp: MlpParams, head: EvidenceHeadParams) -> list[np.ndarray]:
    """The model's arrays in ``_param_layout`` order."""
    return [p for layer in mlp.layers for p in layer] + [head.weight, head.bias]


def _model_from_arrays(arrays) -> tuple[MlpParams, EvidenceHeadParams]:
    """The inverse of ``_param_arrays``; the arrays are used, not copied."""
    return MlpParams(list(zip(arrays[:-2:2], arrays[1:-2:2]))), EvidenceHeadParams(*arrays[-2:])


def _init_params(dims, num_classes, seed) -> tuple[MlpParams, EvidenceHeadParams]:
    """Seeded uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] draws, in layout order."""
    if min(*dims, num_classes) < 1:
        raise ConfigError("all model dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    return _model_from_arrays([
        rng.uniform(-1.0 / math.sqrt(fan_in), 1.0 / math.sqrt(fan_in), size=shape)
        for _, shape, fan_in in _param_layout(dims, num_classes)
    ])


def init_model(
    dim_in: int,
    num_classes: int,
    hidden=DEFAULT_HIDDEN,
    feature_dim: int = DEFAULT_FEATURE_DIM,
    seed: int | np.random.Generator = 0,
) -> tuple[MlpParams, EvidenceHeadParams]:
    """Seeded uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] initialization."""
    return _init_params([dim_in, *hidden, feature_dim], num_classes, seed)


def init_head(
    feature_dim: int, num_classes: int, seed: int | np.random.Generator = 0
) -> EvidenceHeadParams:
    """Fresh seeded evidence head, e.g. for backbone-frozen fine-tuning."""
    return _init_params([feature_dim], num_classes, seed)[1]


def batch_loss_grads(mlp, head, x, y, prior, out=None):
    """Mean loss plus its gradients for every backbone and head parameter.

    ``prior`` is the (K, 2) Beta prior that ``batch_nll_grad`` takes.

    ReLU uses subgradient 0 at exactly 0. Returns
    (loss, [(dW, db) per layer], dW_head, db_head); with an empty
    backbone (``MlpParams([])``) ``x`` is the features and the layer list
    is empty.

    ``out``, if given, is the list of arrays to write the gradients into,
    in ``_param_layout`` order [dW_0, db_0, ..., dW_head, db_head]; the
    returned gradients are those arrays. Without it the gradients are
    freshly allocated.

    ``x`` must be a non-empty 2-D array as wide as the first layer (the
    head, without a backbone); any other ``x``, and a ``y`` or ``prior``
    that ``batch_nll_grad`` rejects, raises ValueError.
    """
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"x must be (N, D) with N >= 1, got shape {x.shape}")
    n = x.shape[0]
    # the head runs as the last layer, as in evidence_from_features
    acts = [x, *_relu_layers(x, [*mlp.layers, (head.weight.T, head.bias)])]
    ev = acts.pop()
    losses, d_evidence = batch_nll_grad(ev.reshape(n, -1, 2), y, prior)
    loss = float(np.add.reduce(losses)) / n  # the bits of losses.mean()
    if out is None:
        out = [None] * (2 * len(mlp.layers) + 2)

    # each mask comes from the activation (see the module docstring);
    # every dz is this step's own array, so it is masked in place
    dz = d_evidence.reshape(n, -1)
    dz /= n
    dz *= ev > 0.0
    g_head_w = np.matmul(acts[-1].T, dz, out=out[-2])
    g_head_b = np.add.reduce(dz, axis=0, out=out[-1])

    grads = []
    w_above = head.weight.T
    for i in reversed(range(len(mlp.layers))):
        dz = dz @ w_above
        dz *= acts[i + 1] > 0.0
        grads.append((np.matmul(dz.T, acts[i], out=out[2 * i]),
                      np.add.reduce(dz, axis=0, out=out[2 * i + 1])))
        w_above = mlp.layers[i][0]
    grads.reverse()
    return loss, grads, g_head_w, g_head_b


def sgd_step(param: np.ndarray, grad: np.ndarray, lr: float, weight_decay: float,
             out: np.ndarray | None = None) -> np.ndarray:
    """One decoupled step: param * (1 - lr * wd) - lr * grad.

    With a zero gradient this scales the parameter by exactly
    (1 - lr * wd). The step is written into ``out`` (which may be
    ``param`` itself), or into a fresh array without it, and returned.
    """
    out = np.multiply(param, 1.0 - lr * weight_decay, out=out)
    out -= lr * grad
    return out


@np.errstate(over="ignore", invalid="ignore")  # divergence is TrainingDiverged
def _fit(mlp, head, x, y, ciw, config, rng):
    prior = DEFAULT_PRIOR_WEIGHT * np.column_stack(base_rate_arrays(ciw))
    params = _param_arrays(mlp, head)
    theta = np.concatenate([p.ravel() for p in params], dtype=np.float64)
    g = np.empty_like(theta)
    ends = np.cumsum([p.size for p in params])[:-1]
    views = [v.reshape(p.shape) for v, p in zip(np.split(theta, ends), params)]
    grad_views = [v.reshape(p.shape) for v, p in zip(np.split(g, ends), params)]
    mlp, head = _model_from_arrays(views)

    n = x.shape[0]
    batches = [(slice(start, start + config.batch_size), min(config.batch_size, n - start))
               for start in range(0, n, config.batch_size)]
    epoch_losses = []
    for epoch in range(config.epochs):
        lr = config.learning_rate_at(epoch)
        order = rng.permutation(n)
        xs, ys = x[order], y[order]
        total = 0.0
        for batch_idx, (rows, size) in enumerate(batches):
            loss = batch_loss_grads(mlp, head, xs[rows], ys[rows], prior, out=grad_views)[0]
            if not math.isfinite(loss):
                raise TrainingDiverged(epoch, batch_idx, loss)
            total += loss * size
            sgd_step(theta, g, lr, config.weight_decay, out=theta)
            # theta @ theta is finite only if every parameter is (the squares
            # cannot cancel), and costs one BLAS call; a large but finite
            # parameter overflows it, so the exact test decides
            if not math.isfinite(theta @ theta) and not np.isfinite(theta).all():
                raise TrainingDiverged(epoch, batch_idx, loss, parameters=True)
        epoch_losses.append(total / n)

    mlp, head = _model_from_arrays([v.copy() for v in views])
    return mlp, head, epoch_losses


def _validate_training_data(x, y, k):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"incompatible data shapes {x.shape} and {y.shape}")
    if x.shape[0] == 0:
        raise ValueError("training data is empty")
    if y.shape[1] != k:
        raise ValueError(f"labels have {y.shape[1]} classes but the CIW table has {k}")
    # the loss reads a label as its side, the gradient as a weight: they agree on 0 and 1
    hard = (y == 0.0) | (y == 1.0)
    if not hard.all():
        row, col = np.argwhere(~hard)[0]
        raise ValueError(f"labels must be 0 or 1, but row {row}, class {col} is "
                         f"{float(y[row, col])!r}")
    return x, y


def train_model(
    features: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    ciw: CIWTable,
    *,
    hidden=DEFAULT_HIDDEN,
    feature_dim: int = DEFAULT_FEATURE_DIM,
) -> TrainResult:
    """Train the backbone and evidence head from scratch with minibatch SGD.

    Labels are multi-hot (N, K) over the known classes, in CIW-table
    order; base rates come from the table via the expert assignment. A
    model too large to allocate is a ConfigError.
    """
    x, y = _validate_training_data(features, labels, len(ciw))
    rng = np.random.default_rng(config.seed)
    try:
        mlp, head = init_model(x.shape[1], len(ciw), hidden, feature_dim, rng)
        mlp, head, losses = _fit(mlp, head, x, y, ciw, config, rng)
    except MemoryError:
        raise ConfigError(
            f"a model with hidden sizes {tuple(hidden)} and feature dim {feature_dim} "
            f"does not fit in memory for {x.shape[0]} training rows; lower hidden or "
            "feature_dim"
        ) from None
    return TrainResult(mlp, head, tuple(losses))


def finetune_head(
    mlp: MlpParams,
    head: EvidenceHeadParams,
    features: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    ciw: CIWTable,
) -> TrainResult:
    """Update only the evidence head; the backbone is frozen (not touched).

    Each row's backbone features are computed once, before the first
    epoch; the head is then fitted on them with an empty backbone. A
    backbone whose finite weights overflow float64 on a row raises
    NonFiniteOutput naming that row, before the first step.
    """
    x, y = _validate_training_data(features, labels, len(ciw))
    if head.num_classes != len(ciw):
        raise ValueError(f"head has {head.num_classes} classes but the CIW table has {len(ciw)}")
    # the head's input-width check, before the forward pass and for any epoch count
    evidence_from_features(np.empty((0, mlp.dim_out)), head)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is NonFiniteOutput
        features = check_finite_rows(extract_features(x, mlp), "backbone output")
    rng = np.random.default_rng(config.seed)
    _, new_head, losses = _fit(MlpParams([]), head, features, y, ciw, config, rng)
    return TrainResult(mlp, new_head, tuple(losses))


def check_finite_rows(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` (N, ...) as given, or NonFiniteOutput naming its first row
    that holds a non-finite value; ``what`` names the values in the error."""
    finite = np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
    if not finite.all():
        raise NonFiniteOutput(what, int(finite.argmin()))
    return values


def save_checkpoint(path, mlp: MlpParams, head: EvidenceHeadParams) -> None:
    """Write a versioned text checkpoint with round-trip-exact decimals."""
    lines = [
        f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}",
        f"input {mlp.dim_in}",
        "hidden " + (",".join(map(str, mlp.hidden)) or "-"),
        f"features {mlp.dim_out}",
        f"classes {head.num_classes}",
    ]
    layout = _param_layout([mlp.dim_in, *mlp.hidden, mlp.dim_out], head.num_classes)
    for (name, shape, _), p in zip(layout, _param_arrays(mlp, head)):
        if p.shape != shape:
            raise ValueError(f"parameter {name!r} has shape {p.shape}, expected {shape}")
        rows, cols = (1, *shape)[-2:]
        lines.append(f"param {name} {rows} {cols}")
        lines.extend(" ".join(map(repr, row)) for row in p.reshape(rows, cols).tolist())
    write_text(path, "\n".join(lines) + "\n")


def load_checkpoint(path) -> tuple[MlpParams, EvidenceHeadParams]:
    """Read a checkpoint written by save_checkpoint; rejects unknown versions."""
    lines = read_lines(path)

    def error(message, index):
        """A DataFormatError naming 0-based line ``index`` as line index + 1."""
        return DataFormatError(message, path=path, line=index + 1)

    if not lines:
        raise error("empty checkpoint file", 0)
    magic = lines[0].split()
    if len(magic) != 2 or magic[0] != CHECKPOINT_MAGIC:
        raise error("not an evidkit checkpoint", 0)
    if magic[1] != CHECKPOINT_VERSION:
        raise error(f"unsupported checkpoint version {magic[1]!r} (expected "
                    f"{CHECKPOINT_VERSION})", 0)

    sizes = {}
    for i, key in enumerate(("input", "hidden", "features", "classes"), start=1):
        if i >= len(lines):
            raise error(f"missing {key!r} header", i)
        parts = lines[i].split(None, 1)
        if len(parts) != 2 or parts[0] != key:
            raise error(f"expected {key!r} header", i)
        try:
            if key != "hidden":
                sizes[key] = [int(parts[1])]
            else:
                sizes[key] = [] if parts[1] == "-" else [int(h) for h in parts[1].split(",")]
        except ValueError as exc:
            raise error(f"bad header value: {exc}", i) from exc
        if min(sizes[key], default=1) < 1:
            raise error("layer sizes in the header must be >= 1", i)
    dims = sizes["input"] + sizes["hidden"] + sizes["features"]
    (num_classes,) = sizes["classes"]

    arrays = []
    i = 5
    for name, shape, _ in _param_layout(dims, num_classes):
        stored = (1, *shape)[-2:]
        if i >= len(lines):
            raise error(f"missing parameter {name!r}", i)
        parts = lines[i].split()
        if len(parts) != 4 or parts[0] != "param" or parts[1] != name:
            raise error(f"expected parameter {name!r}", i)
        try:
            found = (int(parts[2]), int(parts[3]))
        except ValueError as exc:
            raise error(f"bad shape: {exc}", i) from exc
        if found != stored:
            raise error(f"parameter {name!r} has shape {(parts[2], parts[3])}, "
                        f"expected {stored}", i)
        rows = []
        for i in range(i + 1, i + 1 + stored[0]):
            if i >= len(lines):
                raise error(f"truncated parameter {name!r}", i)
            try:
                rows.append([float(v) for v in lines[i].split()])
            except ValueError as exc:
                raise error(f"bad value: {exc}", i) from exc
            if len(rows[-1]) != stored[1]:
                raise error(f"parameter {name!r} row has {len(rows[-1])} values, expected "
                            f"{stored[1]}", i)
            if not all(map(math.isfinite, rows[-1])):
                raise error(f"parameter {name!r} has a non-finite value", i)
        arrays.append(np.array(rows, dtype=np.float64).reshape(shape))
        i += 1  # the line after the block's last row
    for i in range(i, len(lines)):
        if lines[i].strip():
            raise error("unexpected content after the last parameter", i)
    return _model_from_arrays(arrays)
