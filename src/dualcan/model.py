"""The full dual co-attention classifier.

Three word-level encoders (news, entity descriptions, user comments) share
an architecture but not weights; news sentences additionally pass through a
sentence-level BiGRU. Two co-attention blocks couple the news sequence with
the entity and comment sequences, and a two-layer affine head maps the four
pooled vectors to two logits (label 1 = fake).

Padding discipline: padding positions never advance a recurrence, receive
exactly zero attention weight (except on a side with no sentence, see
:func:`layers.co_attention`), and contribute exactly zero columns to the
co-attention inputs, so perturbing padded content cannot change the logits.
"""

from __future__ import annotations

import ctypes
import io
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import layers
from .autodiff import (
    Graph,
    NonFiniteError,
    ShapeError,
    Tensor,
    fused,
    gather_cols,
    masked_softmax,
    softmax_backward,
    split_cols,
)
from .data import SampleArrays, atomic_write
from .layers import CoAttentionParams, GruParams, WordAttentionParams
from .metrics import metrics_report


class CheckpointError(ValueError):
    """A checkpoint file is malformed or inconsistent."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


MODES = ("N+E", "N+C", "N+C+E")

_CHECKPOINT_MAGIC = "DUALCAN-CKPT v1"

# mallopt parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_heap() -> None:
    """Keep freed memory on glibc's heap instead of handing it back to the OS.

    A training step frees most of what it allocated when its graph goes. By
    default glibc adjusts its trim and mmap thresholds as large blocks are
    freed and hands the free top of the heap back to the OS past the trim
    threshold, so the next step faults the same pages in again. Setting
    either threshold turns off the adjustment of both, so both are set:
    never trim, and mmap blocks of 32 MiB and more, the ceiling glibc's own
    adjustment reaches on 64-bit. Without glibc this does nothing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, -1)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


_keep_heap()


# field overrides of the HyperParams defaults, by profile name
PROFILES = {
    "gossipcop": dict(embedding_dim=100, hidden_size=100, max_words=120, max_news_sentences=40,
                      max_entity_sentences=100, max_comment_sentences=100, batch_size=16,
                      learning_rate=0.001),
    "coaid": dict(embedding_dim=300, hidden_size=300, max_words=120, max_news_sentences=4,
                  max_entity_sentences=20, max_comment_sentences=20, batch_size=32,
                  learning_rate=0.001),
    "synthetic": {},
}


@dataclass
class HyperParams:
    """Model and training dimensions; a sample keeps its real tokens within
    the sentence and word limits, and each batch is padded as it is encoded.
    ``validate`` accepts finite values of at least a field's ``min`` (default
    1); field order is the order of the ``hp`` lines in a checkpoint header."""

    embedding_dim: int = 16
    hidden_size: int = 8
    max_words: int = 10
    max_news_sentences: int = 4
    max_entity_sentences: int = 8
    max_comment_sentences: int = 8
    max_sentences_per_description: int = 4
    max_sentences_per_comment: int = 2
    batch_size: int = 8
    learning_rate: float = field(default=0.005, metadata={"min": 0})
    max_epochs: int = 30
    patience: int = 5
    seed: int = field(default=0, metadata={"min": 0})

    def validate(self) -> None:
        for f in fields(self):
            value, least = getattr(self, f.name), f.metadata.get("min", 1)
            if not (value >= least and math.isfinite(value)):
                raise ValueError(f"hyperparameter {f.name} must be finite and at least {least}, "
                                 f"got {value!r}")

    @staticmethod
    def profile(name: str) -> "HyperParams":
        if name not in PROFILES:
            *head, last = PROFILES
            raise ValueError(f"unknown profile '{name}' (expected {', '.join(head)} or {last})")
        return HyperParams(**PROFILES[name])


# declared field types read as strings (postponed annotations)
_PARSERS = {"int": int, "float": float, "str": str, "str | None": str}


def parse_field(owner, name: str, text: str):
    """Parse ``text`` by the declared type of field ``name`` of the dataclass
    ``owner``. Only fields of a type in ``_PARSERS`` are settings; raises
    ValueError naming the field."""
    declared = {f.name: f.type for f in fields(owner) if f.type in _PARSERS}
    if name not in declared:
        raise ValueError(f"unknown setting '{name}'")
    if not text:
        raise ValueError(f"{name} needs a value")
    try:
        return _PARSERS[declared[name]](text)
    except ValueError:
        raise ValueError(f"{name} expects type {declared[name]}, got {text!r}") from None


@dataclass
class EncoderParams:
    """Word-level BiGRU plus additive attention for one input source."""

    fwd: GruParams
    bwd: GruParams
    attention: WordAttentionParams

    @staticmethod
    def create(input_size: int, hidden_size: int, rng) -> "EncoderParams":
        return EncoderParams(
            fwd=GruParams.create(input_size, hidden_size, rng),
            bwd=GruParams.create(input_size, hidden_size, rng),
            attention=WordAttentionParams.create(hidden_size, rng),
        )

    def named(self, prefix: str) -> dict:
        return _prefixed({f"{prefix}.fwd": self.fwd, f"{prefix}.bwd": self.bwd,
                          f"{prefix}.attn": self.attention})


def _prefixed(groups: dict) -> dict:
    """{prefix: parameter group} -> {"prefix.key": tensor} in group order."""
    return {f"{prefix}.{key}": t for prefix, group in groups.items()
            for key, t in group.named().items()}


class FlatParams:
    """Named tensors laid out back to back, in ``named()`` order, in one
    contiguous float64 ``values`` vector and one ``grads`` vector. Each
    tensor's ``data`` and ``grad`` is a view into them: code that changes a
    tensor writes into its views in place and never rebinds them.

    The ``grads`` vector and the grad views are bound by the first
    :meth:`zero_grads`, which training runs before every step; until then
    ``grads`` is None and a model that only predicts holds one flat vector.
    """

    def __init__(self, named: dict):
        self._named = dict(named)
        sizes = [t.size for t in self._named.values()]
        self._spans = [(stop - size, stop) for size, stop in zip(sizes, np.cumsum(sizes).tolist())]
        self.values = np.concatenate([t.data.reshape(-1) for t in self._named.values()])
        self.grads = None
        for t, (start, stop) in zip(self._named.values(), self._spans):
            t.data = self.values[start:stop].reshape(t.shape)

    def named(self) -> dict:
        return dict(self._named)

    def name_at(self, index: int) -> str:
        """Name of the tensor that holds flat position ``index``."""
        return next(name for name, (_, stop) in zip(self._named, self._spans) if index < stop)

    def zero_grads(self) -> None:
        if self.grads is not None:
            self.grads.fill(0.0)
            return
        self.grads = np.zeros(self.values.size)
        for t, (start, stop) in zip(self._named.values(), self._spans):
            t.grad = self.grads[start:stop].reshape(t.shape)

    def bound_grads(self) -> np.ndarray:
        """The ``grads`` vector. Raises RuntimeError if no ``zero_grads``
        bound it: a backward pass before that left its gradients on the
        tensors, not in the vector."""
        if self.grads is None:
            raise RuntimeError("gradients are not bound to the flat vector: call "
                               "zero_grads() before the backward pass")
        return self.grads

    def copy_values(self) -> dict:
        snapshot = self.values.copy()
        return {name: snapshot[start:stop].reshape(t.shape)
                for (name, t), (start, stop) in zip(self._named.items(), self._spans)}

    def load_values(self, values: dict) -> None:
        """Write ``values`` (name -> array) into the tensors in place; every
        name and shape is checked before anything is written."""
        missing = set(self._named) - set(values)
        extra = set(values) - set(self._named)
        if missing or extra:
            raise CheckpointError(
                f"parameter names do not match (missing {sorted(missing)}, extra {sorted(extra)})")
        for name, t in self._named.items():
            if t.shape != values[name].shape:
                raise CheckpointError(
                    f"parameter {name}: shape {values[name].shape} != expected {t.shape}")
        for name, t in self._named.items():
            t.data[...] = values[name]


class ModelParams(FlatParams):
    """Every learnable tensor of the network, enumerable by name.

    Word embeddings are deliberately not part of the parameter set: they are
    frozen lookup tables owned by the data pipeline. Without an ``rng`` the
    weights are zeros, a layout to load values into.
    """

    def __init__(self, hp: HyperParams, rng: np.random.Generator | None):
        h = hp.hidden_size
        d = hp.embedding_dim
        self.news_encoder = EncoderParams.create(d, h, rng)
        self.entity_encoder = EncoderParams.create(d, h, rng)
        self.comment_encoder = EncoderParams.create(d, h, rng)
        self.sentence_fwd = GruParams.create(2 * h, h, rng)
        self.sentence_bwd = GruParams.create(2 * h, h, rng)
        self.entity_coattn = CoAttentionParams.create(h, rng)
        self.comment_coattn = CoAttentionParams.create(h, rng)
        q = 2 * h
        self.head_w1 = layers.uniform_init(q, 8 * h, rng)
        self.head_b1 = layers.zeros_init(q, 1)
        self.head_w2 = layers.uniform_init(2, q, rng)
        self.head_b2 = layers.zeros_init(2, 1)
        super().__init__({
            **self.news_encoder.named("news.word"),
            **self.entity_encoder.named("entity.word"),
            **self.comment_encoder.named("comment.word"),
            **_prefixed({"news.sent.fwd": self.sentence_fwd, "news.sent.bwd": self.sentence_bwd,
                         "coattn.entity": self.entity_coattn,
                         "coattn.comment": self.comment_coattn}),
            "head.w1": self.head_w1, "head.b1": self.head_b1,
            "head.w2": self.head_w2, "head.b2": self.head_b2,
        })

    @staticmethod
    def create(hp: HyperParams) -> "ModelParams":
        return ModelParams(hp, np.random.default_rng(hp.seed))


@dataclass
class EncodedBatch:
    """Sentence features of B samples with their real-position masks.

    Each source stacks its samples side by side: column b*N + n of ``news``
    is sentence slot n of sample b, and likewise for ``entities`` and
    ``comments``; pad slots are zero columns. Indexing or iterating gives
    batch-of-1 views that share the tape (:func:`autodiff.split_cols`).
    """

    news: Tensor             # [2h x B*N]
    news_mask: np.ndarray    # [B x N]
    entities: Tensor         # [2h x B*E]
    entity_mask: np.ndarray  # [B x E]
    comments: Tensor         # [2h x B*U]
    comment_mask: np.ndarray  # [B x U]
    labels: np.ndarray       # [B]

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> "EncodedBatch":
        if not 0 <= i < len(self):
            raise IndexError(f"sample {i} of a batch of {len(self)}")
        news, entities, comments = (split_cols(cols, len(self))[i]
                                    for cols in (self.news, self.entities, self.comments))
        return EncodedBatch(news, self.news_mask[i:i + 1], entities, self.entity_mask[i:i + 1],
                            comments, self.comment_mask[i:i + 1], self.labels[i:i + 1])


@dataclass
class AttentionReport:
    """The four per-sample attention distributions, for interpretability."""

    news_entity: np.ndarray   # [N] news weights in the entity block
    entity: np.ndarray        # [E]
    news_comment: np.ndarray  # [N] news weights in the comment block
    comment: np.ndarray       # [U]
    news_mask: np.ndarray
    entity_mask: np.ndarray
    comment_mask: np.ndarray


def _pack_sentences(sources: list):
    """The real sentences of many ``data.Source`` as the rows of one padded
    batch: (ids [K x m], word_mask [K x m], index [sources x slots]), id 0 in
    pad cells. Rows run in descending order of length, ties in source then
    slot order, so each step of a recurrence works on a prefix of the rows.
    m is at least 1, so a real slot without words fails in word_attention.
    index holds each real slot's row, else -1."""
    real = np.concatenate([s.real for s in sources])                    # [B*S]
    length = np.concatenate([s.lengths for s in sources])[real]         # [K]
    order = np.argsort(-length, kind="stable")
    index = np.full(real.size, -1)
    index[np.flatnonzero(real)[order]] = np.arange(order.size)
    word_mask = np.arange(max(int(length.max(initial=0)), 1)) < length[:, None]
    ids = np.zeros(word_mask.shape, np.int32)
    ids[word_mask] = np.concatenate([s.ids for s in sources])
    return ids[order], word_mask[order], index.reshape(len(sources), -1)


def _word_encode_blocks(sources: list, enc: EncoderParams, embeddings):
    """Word-level encode the rows of :func:`_pack_sentences` in one
    recurrence and one attention pooling. Returns (pooled [2h x K] in row
    order, index); with no real sentence, pooled is one zero column."""
    ids, word_mask, index = _pack_sentences(sources)
    if not len(ids):
        return Tensor(np.zeros((2 * enc.fwd.hidden_size, 1))), index
    block = Tensor(embeddings.lookup(ids.T).reshape(ids.size, -1).T)     # [d x m*K], step-major
    states = layers.bigru(split_cols(block, ids.shape[1]), enc.fwd, enc.bwd, word_mask)
    pooled, _ = layers.word_attention(states, word_mask, enc.attention)   # [2h x K]
    return pooled, index


def encode_samples(samples: list, params: ModelParams, embeddings,
                   hp: HyperParams) -> EncodedBatch:
    """Encode many samples, sharing one word-level recurrence per source and
    one news sentence-level recurrence across the whole list.

    ``hp`` is unused: the sizes come from the samples and ``params``. It is
    kept for the call shape that ``perfbench/spans.py`` traces and
    ``perfbench/workloads.py`` calls."""
    for sample in samples:
        if not sample.news.real.any():
            raise layers.DegenerateMaskError(
                f"sample {sample.doc_id}: news side has no real sentences")
    news_pooled, news_index = _word_encode_blocks(
        [s.news for s in samples], params.news_encoder, embeddings)
    entity_pooled, entity_index = _word_encode_blocks(
        [s.entities for s in samples], params.entity_encoder, embeddings)
    comment_pooled, comment_index = _word_encode_blocks(
        [s.comments for s in samples], params.comment_encoder, embeddings)
    # sentence-level BiGRU over the whole batch: in its input block and its
    # states, column n*B + b is slot n of sample b (a zero input at pad
    # slots), so step n is the n-th B columns; one gather reorders the states
    # sample by sample, with zero columns at pad slots
    news_mask = news_index >= 0                                           # [B x N]
    batch, slots = news_mask.shape
    steps = split_cols(gather_cols(news_pooled, news_index.T.reshape(-1)), slots)  # N of [2h x B]
    states = layers.bigru(steps, params.sentence_fwd, params.sentence_bwd, news_mask)
    order = np.arange(slots) * batch + np.arange(batch).reshape(-1, 1)    # [B x N]
    return EncodedBatch(
        news=gather_cols(states, np.where(news_mask, order, -1).reshape(-1)),
        news_mask=news_mask,
        entities=gather_cols(entity_pooled, entity_index.reshape(-1)),
        entity_mask=entity_index >= 0,
        comments=gather_cols(comment_pooled, comment_index.reshape(-1)),
        comment_mask=comment_index >= 0,
        labels=np.array([sample.label for sample in samples]),
    )


def forward(encoded: EncodedBatch, params: ModelParams):
    """Run both co-attention blocks and the prediction head over a batch.

    Returns (logits [2 x B], one AttentionReport per sample).
    """
    ent = layers.co_attention(encoded.news, encoded.entities, encoded.news_mask,
                              encoded.entity_mask, params.entity_coattn)
    com = layers.co_attention(encoded.news, encoded.comments, encoded.news_mask,
                              encoded.comment_mask, params.comment_coattn)
    logits = head([ent.pooled, com.pooled], params)
    reports = [AttentionReport(
        news_entity=ent.attn_primary[b],
        entity=ent.attn_secondary[b],
        news_comment=com.attn_primary[b],
        comment=com.attn_secondary[b],
        news_mask=encoded.news_mask[b],
        entity_mask=encoded.entity_mask[b],
        comment_mask=encoded.comment_mask[b],
    ) for b in range(len(encoded))]
    return logits, reports


def head(pooled: list, params: ModelParams) -> Tensor:
    """The prediction head: logits [2 x B] of two affine layers over the
    ``pooled`` tensors stacked by rows. One tape node with a hand-written
    backward pass."""
    w1, b1, w2, b2 = params.head_w1, params.head_b1, params.head_w2, params.head_b2
    features = np.concatenate([p.data for p in pooled], axis=0)          # [8h x B]
    hidden = w1.data @ features + b1.data
    bounds = np.cumsum([0] + [p.shape[0] for p in pooled])

    def backward(g):
        b2.grad += g.sum(axis=1, keepdims=True)
        w2.grad += g @ hidden.T
        d_hidden = w2.data.T @ g
        b1.grad += d_hidden.sum(axis=1, keepdims=True)
        w1.grad += d_hidden @ features.T
        d_features = w1.data.T @ d_hidden
        for p, lo, hi in zip(pooled, bounds, bounds[1:]):
            p.grad += d_features[lo:hi]

    return fused("head", w2.data @ hidden + b2.data, (*pooled, w1, b1, w2, b2), backward)


_LOG_FLOOR = 1e-12


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of the negative log softmax probability of each
    column's true class; ``labels`` holds one 0/1 label per column of
    ``logits`` [2 x B] (a plain int for one column).

    Probabilities are clamped at 1e-12 inside the log, where the gradient is
    zero. One tape node with a hand-written backward pass.
    """
    labels = np.asarray(labels, dtype=np.intp).reshape(-1)
    if logits.shape != (2, labels.size):
        raise ShapeError(f"cross_entropy of logits {logits.shape} and {labels.size} labels")
    picked = np.arange(labels.size), labels
    probs = masked_softmax(logits.data.T)                                  # [B x 2]
    p_true = probs[picked]
    per_sample = -np.log(np.maximum(p_true, _LOG_FLOOR))
    scale = 1.0 / labels.size

    def backward(g):
        d_probs = np.zeros_like(probs)
        d_probs[picked] = (p_true >= _LOG_FLOOR) * (g[0, 0] * scale * -1.0) \
            / np.maximum(p_true, _LOG_FLOOR)
        logits.grad += softmax_backward(probs, d_probs).T

    return fused("cross_entropy", np.array([[per_sample.sum() * scale]]), (logits,), backward)


def predict_probs(logits: Tensor) -> np.ndarray:
    """Class probabilities [2] of one sample's logits [2 x 1]."""
    return masked_softmax(logits.data.reshape(-1))


def predicted_label(probs: np.ndarray) -> int:
    # exact ties predict real (0)
    return 1 if probs[1] > probs[0] else 0


def run_sample(sample: SampleArrays, params: ModelParams, embeddings, hp: HyperParams):
    """Encode one sample and run the forward pass; returns (logits
    [2 x 1], AttentionReport)."""
    logits, reports = forward(encode_samples([sample], params, embeddings, hp), params)
    return logits, reports[0]


def predict(samples: list, params: ModelParams, embeddings, hp: HyperParams, mode: str):
    """Yield (class probabilities [2], AttentionReport) per sample, in input
    order, running the forward pass in chunks of ``hp.batch_size`` under the
    input ablation ``mode``."""
    for start in range(0, len(samples), hp.batch_size):
        chunk = samples[start:start + hp.batch_size]
        if mode != "N+C+E":
            chunk = [ablate(s, mode) for s in chunk]
        logits, reports = forward(encode_samples(chunk, params, embeddings, hp), params)
        yield from zip(masked_softmax(logits.data.T), reports)


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------


def ablate(sample: SampleArrays, mode: str) -> SampleArrays:
    """Input-mode ablation: a dropped source keeps its slots but holds no
    sentence (``Source.dropped``); the kept sources are the sample's own,
    so nothing is copied."""
    if mode not in MODES:
        raise ValueError(f"unknown mode '{mode}' (expected one of {MODES})")
    kept = mode.split("+")
    return replace(sample,
                   entities=sample.entities if "E" in kept else sample.entities.dropped(),
                   comments=sample.comments if "C" in kept else sample.comments.dropped())


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------


# elements per chunk of the Adam update: whole-vector expressions at paper
# scale allocate several 8 MB temporaries while the step's graph is still
# alive, which costs both time and peak memory; a 256 KB block stays in cache
_ADAM_BLOCK = 1 << 15
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment vectors, laid out like ``FlatParams.values``, plus
    the shared step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def create(params: FlatParams) -> "AdamState":
        return AdamState(np.zeros_like(params.values), np.zeros_like(params.values))


def adam_step(params: FlatParams, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update over every parameter.

    A non-finite gradient anywhere raises NonFiniteError, naming the
    parameter, before any value, moment or the step count moves.
    """
    grads = params.bound_grads()
    finite = np.isfinite(grads)
    if not finite.all():
        name = params.name_at(int(np.argmin(finite)))
        raise NonFiniteError(
            f"non-finite gradient for parameter {name} in Adam step {state.t + 1}")
    state.t += 1
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for start in range(0, grads.size, _ADAM_BLOCK):
        block = slice(start, start + _ADAM_BLOCK)
        g, m, v, x = grads[block], state.m[block], state.v[block], params.values[block]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / bias1
        v_hat = v / bias2
        x -= lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def clip_gradients(params: FlatParams, max_norm: float) -> float:
    """Scale all gradients down to a global norm of ``max_norm``; returns the
    pre-clip norm."""
    grads = params.bound_grads()
    norm = float(np.sqrt(grads @ grads))
    if norm > max_norm > 0:
        grads *= max_norm / norm
    return norm


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

GRAD_CLIP_NORM = 5.0


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    grad_norm: float   # the largest pre-clip global gradient norm of the epoch
    val: dict


@dataclass
class TrainResult:
    params: ModelParams
    history: list
    best_epoch: int
    best_val_f1: float


def evaluate(samples: list, params: ModelParams, embeddings, hp: HyperParams,
             mode: str = "N+C+E") -> dict:
    """Metrics report over a sample list (no gradients recorded)."""
    probs = [p for p, _ in predict(samples, params, embeddings, hp, mode)]
    return metrics_report([predicted_label(p) for p in probs],
                          [int(s.label) for s in samples], [float(p[1]) for p in probs])


def train(train_samples: list, val_samples: list, hp: HyperParams,
          params: ModelParams, embeddings, mode: str = "N+C+E") -> TrainResult:
    """Mini-batch Adam with early stopping on validation macro-F1.

    Shuffling is seeded by ``hp.seed``; the returned parameters are the
    best-validation snapshot. A non-finite loss aborts with a diagnostic,
    the only report: numpy's floating-point warnings are off in the epochs.
    """
    if not train_samples or not val_samples:
        raise ValueError("train and validation splits must be non-empty")
    if mode != "N+C+E":
        train_samples = [ablate(s, mode) for s in train_samples]
    state = AdamState.create(params)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([hp.seed, 7]))
    history: list[EpochLog] = []
    best_values = None
    # best checkpoint: highest val macro-F1, ties broken by lower train loss;
    # patience counts epochs since the F1 itself last improved
    best_key = (-1.0, 0.0)
    best_epoch = 0
    since_best = 0
    with np.errstate(all="ignore"):
        for epoch in range(1, hp.max_epochs + 1):
            order = shuffle_rng.permutation(len(train_samples))
            losses, grad_norm = [], 0.0
            for start in range(0, len(order), hp.batch_size):
                batch = [train_samples[i] for i in order[start:start + hp.batch_size]]
                params.zero_grads()
                graph = Graph()
                with graph:
                    encoded = encode_samples(batch, params, embeddings, hp)
                    batch_loss = cross_entropy(forward(encoded, params)[0], encoded.labels)
                loss_value = batch_loss.item()
                if not np.isfinite(loss_value):
                    raise DivergenceError(
                        f"non-finite loss in epoch {epoch}, batch starting at {start}")
                graph.backward(batch_loss)
                grad_norm = max(grad_norm, clip_gradients(params, GRAD_CLIP_NORM))
                adam_step(params, state, hp.learning_rate)
                losses.append(loss_value)
            train_loss = float(np.mean(losses))
            val_report = evaluate(val_samples, params, embeddings, hp, mode)
            history.append(EpochLog(epoch, train_loss, grad_norm, val_report))
            key = (val_report["f1_macro"], -train_loss)
            if key > best_key:
                improved_f1 = val_report["f1_macro"] > best_key[0]
                best_key = key
                best_epoch = epoch
                best_values = None   # release the old snapshot before copying the new one
                best_values = params.copy_values()
                if improved_f1:
                    since_best = 0
                    continue
            since_best += 1
            if since_best >= hp.patience:
                break
    if best_epoch != len(history):   # else the parameters hold the best values already
        params.load_values(best_values)
    return TrainResult(params, history, best_epoch, best_key[0])


# ---------------------------------------------------------------------------
# checkpoint io
# ---------------------------------------------------------------------------

def save_checkpoint(path, hp: HyperParams, params: ModelParams) -> None:
    """Text header (version, hyperparameters, tensor directory with shapes and
    byte offsets) followed by raw little-endian float64 payloads."""
    header = io.StringIO()
    header.write(_CHECKPOINT_MAGIC + "\n")
    for f in fields(hp):
        header.write(f"hp {f.name} {getattr(hp, f.name)!r}\n")
    offset = 0
    for name, tensor in params.named().items():
        shape = ",".join(str(s) for s in tensor.shape)
        header.write(f"tensor {name} {shape} {offset}\n")
        offset += 8 * tensor.size
    header.write("end\n")
    with atomic_write(path, "wb") as fh:
        fh.write(header.getvalue().encode("utf-8"))
        # the tensors lie back to back in header order in the flat vector
        fh.write(memoryview(params.values.astype("<f8", copy=False)))


def load_checkpoint(path):
    """Read a checkpoint back; returns (hp, values dict name -> array).

    The round trip is bit-exact: arrays compare equal to what was saved.
    Anything malformed raises CheckpointError: the tensors must have unique
    names and lie back to back from offset 0 in header order, filling the
    payload exactly, and hold finite values only. A file that cannot be read
    raises CheckpointError too.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read: {e.strerror or e}") from e
    try:
        return _parse_checkpoint(raw)
    except ValueError as e:
        raise CheckpointError(f"{path}: {e}") from e


def _parse_checkpoint(raw: bytes):
    if not raw.startswith(_CHECKPOINT_MAGIC.encode() + b"\n"):
        raise ValueError("not a recognized checkpoint file")
    end = raw.find(b"\nend\n")
    if end < 0:
        raise ValueError("truncated header")
    hp_kwargs = {}
    directory = []
    for line in raw[:end].decode("utf-8").split("\n")[1:]:
        parts = line.split(" ")
        if parts[0] == "hp" and len(parts) == 3 and parts[1] not in hp_kwargs:
            hp_kwargs[parts[1]] = parse_field(HyperParams, parts[1], parts[2])
        elif parts[0] == "tensor" and len(parts) == 4:
            shape = tuple(int(s) for s in parts[2].split(","))
            if min(shape) < 0:
                raise ValueError(f"tensor {parts[1]} has a negative dimension")
            directory.append((parts[1], shape, int(parts[3])))
        else:
            raise ValueError(f"malformed or repeated header line {line!r}")
    missing = {f.name for f in fields(HyperParams)} - set(hp_kwargs)
    if missing:
        raise ValueError(f"header missing hyperparameters {sorted(missing)}")
    hp = HyperParams(**hp_kwargs)
    hp.validate()
    # each tensor is read in place from ``raw`` and copied once
    base = end + len(b"\nend\n")
    payload_size = len(raw) - base
    values = {}
    pos = 0
    for name, shape, offset in directory:
        if name in values:
            raise ValueError(f"tensor {name} listed twice")
        if offset != pos:
            raise ValueError(f"tensor {name} starts at byte {offset}, expected {pos}")
        count = math.prod(shape)
        pos += 8 * count
        if pos > payload_size:
            raise ValueError(f"payload truncated for tensor {name}")
        array = np.frombuffer(raw, dtype="<f8", count=count, offset=base + offset)
        if not np.isfinite(array).all():
            raise ValueError(f"tensor {name} holds non-finite values")
        values[name] = array.reshape(shape).copy()
    if pos != payload_size:
        raise ValueError(f"{payload_size - pos} payload bytes after the last tensor")
    return hp, values


def restore_params(hp: HyperParams, values: dict) -> ModelParams:
    params = ModelParams(hp, None)
    params.load_values(values)
    return params
