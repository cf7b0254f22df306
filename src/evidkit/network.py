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
``batch_evidence``) and training run that same loop, so the function the
trainer descends is the function that is scored. A head fits a backbone
when its input width is the backbone's output width; ``batch_evidence``,
``finetune_head`` and ``save_checkpoint`` check that once, with
``_check_head_fits``.
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

The same blocked forward states the one overflow rule: a finite model
whose output overflows float64 on a row raises ``NonFiniteOutput``
naming the first such row, and numpy prints no warning. A row fails when
a feature is not finite or, for evidence, when a class's e_pos + e_neg
overflows, so that no Beta strength S = e_pos + e_neg + W exists. The
forward runs under its own ``np.errstate`` and takes one sum over its
output; outputs are >= 0 or NaN, so a finite total proves every row
usable, and only a total that is not finite looks for the first bad row.
If that row of the input is itself not finite, the weights are not to
blame, and the forward raises ``ValueError`` naming the input row
instead. The CLI adds only the sample's id and the checkpoint to the
error; its loaders never pass a non-finite input.

The frozen refit computes each training row's backbone features once,
before its first epoch, with ``extract_features``, so in the same blocks.
It then fits the head on those features as a model with an empty
backbone, so scratch training and the refit run one fit path.

The trainer keeps every parameter it updates in one private float64
vector, in ``_param_layout`` order, with one gradient vector of the same
layout beside it. The models it steps are reshaped views of the first;
``batch_loss_grads`` writes each gradient into its view of the second
(``out=``), so no per-step gradient arrays are allocated. A step is one
in-place ``sgd_step`` over the whole vector. Each epoch draws one
permutation of the rows, and each batch gathers its own rows of the
inputs and labels from it with ``take``, so a fit holds no shuffled copy
of the data beside the data. The trainer returns validated copies, never
views.

Every fit runs one SGD recipe, as the Beta prior is one constant:
minibatches of ``BATCH_SIZE`` rows, one constant rate for all epochs,
and decoupled weight decay ``WEIGHT_DECAY`` (Loshchilov & Hutter, ICLR
2019). ``TrainConfig`` holds only what callers vary: the epochs, the
learning rate and the seed.

A fit checks once, at entry: the data's shapes and its label count
against the CIW table, and the parameters' shapes and finiteness (the
model dataclasses, built once over the views). It builds the Beta prior
and the batch bounds once too. A step re-checks only what the step can
change: that its loss is finite and, after the update, that every
parameter is; either failure raises ``TrainingDiverged`` with the epoch
and batch. The step's two kernels keep their own shape checks, which read
``.shape`` and ``.ndim`` alone, and the step runs the model through
``_relu_layers`` itself rather than through ``batch_evidence``, whose
input conversion and checks serve the scoring path.

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


# the one SGD recipe of every fit: minibatches of BATCH_SIZE rows at one
# constant rate, and decoupled weight decay (Loshchilov & Hutter, ICLR 2019)
BATCH_SIZE = 64
WEIGHT_DECAY = 1e-4


@dataclass(frozen=True)
class TrainConfig:
    """A fit's epochs, its constant learning rate and its seed."""

    epochs: int = 60
    learning_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.learning_rate < 0 or not math.isfinite(self.learning_rate):
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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


def _blocked_forward(x: np.ndarray, layers, what: str, group: int = 1) -> np.ndarray:
    """The last output of ``_relu_layers(x, layers)``, run over row blocks.

    Every block but the last has ``_block_rows(layers)`` rows; the last
    also takes the remainder. Each block's output is copied into one
    preallocated array; an input of one block is returned as the loop
    leaves it.

    A row is usable when the sum of each ``group`` adjacent outputs is
    finite. The first row that is not raises NonFiniteOutput(what, row),
    or ValueError if that row of ``x`` is itself not finite, and numpy
    prints no warning.
    """
    n = x.shape[0]
    size = _block_rows(layers)
    blocks = max(1, n // size)
    with np.errstate(over="ignore", invalid="ignore"):
        if blocks == 1:
            for out in _relu_layers(x, layers):
                pass
        else:
            out = np.empty((n, layers[-1][0].shape[0]))
            for i in range(blocks):
                rows = slice(i * size, n if i == blocks - 1 else (i + 1) * size)
                for h in _relu_layers(x[rows], layers):
                    pass
                out[rows] = h
        # each output is >= 0 or NaN, so a finite total bounds every group's sum
        if np.isfinite(out.sum()):
            return out
        usable = np.isfinite(out.reshape(n, -1, group).sum(axis=2)).all(axis=1)
    if usable.all():
        return out
    row = int(usable.argmin())
    if not np.isfinite(x[row]).all():
        raise ValueError(f"input row {row} is not finite")
    if np.isfinite(out[row]).all():  # every output finite: an evidence pair overflowed
        what = f"total {what} e_pos + e_neg"
    raise NonFiniteOutput(what, row)


def _as_rows(x, mlp: MlpParams) -> np.ndarray:
    """``x`` as a float64 (N, D) array for the backbone ``mlp``, or ValueError."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != mlp.dim_in:
        raise ValueError(
            f"input shape {np.asarray(x).shape} does not match backbone input dim {mlp.dim_in}"
        )
    return h


def _check_head_fits(mlp: MlpParams, head: EvidenceHeadParams) -> None:
    """ValueError unless the head takes the backbone's output width as its input."""
    if mlp.dim_out != head.dim_in:
        raise ValueError(f"backbone output dim {mlp.dim_out} does not match head input "
                         f"dim {head.dim_in}")


def extract_features(x: np.ndarray, mlp: MlpParams) -> np.ndarray:
    """Forward pass of the backbone: (N, D) inputs -> (N, width) features.

    Features that are not finite (finite weights that overflow float64)
    raise NonFiniteOutput naming the first such row; if that input row is
    not finite, ValueError names it instead."""
    return _blocked_forward(_as_rows(x, mlp), mlp.layers, "backbone output")


def batch_evidence(mlp: MlpParams, head: EvidenceHeadParams, x: np.ndarray) -> np.ndarray:
    """Backbone + head in one call: (N, D) inputs -> (N, K, 2) evidence,
    relu(f @ W + b) of the backbone's features f.

    Evidence that is not finite, or a class whose e_pos + e_neg overflows
    float64 (so its Beta strength S has no finite value), raises
    NonFiniteOutput naming the first such row; if that input row is not
    finite, ValueError names it instead."""
    h = _as_rows(x, mlp)
    _check_head_fits(mlp, head)
    # the head is one more ReLU layer whose weight is stored transposed
    ev = _blocked_forward(h, [*mlp.layers, (head.weight.T, head.bias)], "evidence", 2)
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
    # the head runs as the last layer, as in batch_evidence
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
    batches = [(slice(start, start + BATCH_SIZE), min(BATCH_SIZE, n - start))
               for start in range(0, n, BATCH_SIZE)]
    lr = config.learning_rate
    epoch_losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for batch_idx, (rows, size) in enumerate(batches):
            index = order[rows]
            loss = batch_loss_grads(mlp, head, x.take(index, axis=0), y.take(index, axis=0),
                                    prior, out=grad_views)[0]
            if not math.isfinite(loss):
                raise TrainingDiverged(epoch, batch_idx, loss)
            total += loss * size
            sgd_step(theta, g, lr, WEIGHT_DECAY, out=theta)
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
    NonFiniteOutput naming that row, and a row of ``features`` that is not
    finite a ValueError naming it, before the first step.
    """
    x, y = _validate_training_data(features, labels, len(ciw))
    if head.num_classes != len(ciw):
        raise ValueError(f"head has {head.num_classes} classes but the CIW table has {len(ciw)}")
    # before the forward pass and for any epoch count
    _check_head_fits(mlp, head)
    features = extract_features(x, mlp)
    rng = np.random.default_rng(config.seed)
    _, new_head, losses = _fit(MlpParams([]), head, features, y, ciw, config, rng)
    return TrainResult(mlp, new_head, tuple(losses))


def save_checkpoint(path, mlp: MlpParams, head: EvidenceHeadParams) -> None:
    """Write a versioned text checkpoint with round-trip-exact decimals."""
    _check_head_fits(mlp, head)
    lines = [
        f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}",
        f"input {mlp.dim_in}",
        "hidden " + (",".join(map(str, mlp.hidden)) or "-"),
        f"features {mlp.dim_out}",
        f"classes {head.num_classes}",
    ]
    layout = _param_layout([mlp.dim_in, *mlp.hidden, mlp.dim_out], head.num_classes)
    for (name, shape, _), p in zip(layout, _param_arrays(mlp, head)):
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
            raise error(f"parameter {name!r} has shape {found}, expected {stored}", i)
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
