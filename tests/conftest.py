import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dualcan import data, model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """A module of ``perfbench/``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def tiny_hyperparams(seed=3):
    return model.HyperParams(
        embedding_dim=4, hidden_size=2, max_words=3,
        max_news_sentences=2, max_entity_sentences=2, max_comment_sentences=2,
        batch_size=2, learning_rate=0.001, seed=seed)


def tiny_vocab():
    vocab = data.Vocabulary()
    for tok in ["alpha", "beta", "gamma", "delta", "eps",
                "zeta", "eta", "theta", "iota", "kappa"]:
        vocab.add(tok)
    return vocab


def tiny_embeddings(vocab, dim=4, seed=1):
    matrix = np.random.default_rng(seed).uniform(-0.5, 0.5, (len(vocab), dim))
    matrix[0] = 0.0
    matrix[1] = 0.0
    return data.EmbeddingTable(matrix)


def tiny_documents():
    return [
        data.Document(
            "d0",
            news_sentences=[["alpha", "beta", "eps"], ["gamma", "iota"]],
            comment_sentences=[["delta", "eps", "zeta"], ["kappa", "alpha"]],
            entity_descriptions=[("acme", [["eta", "theta"], ["iota", "beta", "gamma"]])],
            label=1),
        data.Document(
            "d1",
            news_sentences=[["kappa", "gamma"], ["beta"]],
            comment_sentences=[["zeta", "eta"]],
            entity_descriptions=[("acme", [["alpha", "delta"]])],
            label=0),
    ]


@pytest.fixture
def tiny_setup():
    """hp, params, vocab, embeddings and two encoded samples at desk scale."""
    hp = tiny_hyperparams()
    params = model.ModelParams.create(hp)
    vocab = tiny_vocab()
    emb = tiny_embeddings(vocab, hp.embedding_dim)
    samples = [data.encode_document(d, vocab, hp) for d in tiny_documents()]
    return hp, params, vocab, emb, samples


def random_document(rng, doc_id, vocab_tokens, max_news=2, max_entity=2,
                    max_comment=2, max_words=3):
    def sentence():
        n = int(rng.integers(1, max_words + 1))
        return [vocab_tokens[int(rng.integers(2, len(vocab_tokens)))] for _ in range(n)]

    n_news = int(rng.integers(1, max_news + 1))
    n_ent = int(rng.integers(0, max_entity + 1))
    n_com = int(rng.integers(0, max_comment + 1))
    return data.Document(
        doc_id,
        news_sentences=[sentence() for _ in range(n_news)],
        comment_sentences=[sentence() for _ in range(n_com)],
        entity_descriptions=[("acme", [sentence() for _ in range(n_ent)])] if n_ent else [],
        label=int(rng.integers(0, 2)),
    )


class PadNoiseEmbeddings:
    """An embedding table whose lookup returns random finite noise at every
    PAD_ID cell of the id matrix it is given, and the table's own rows
    elsewhere. ``noised`` counts the cells replaced so far."""

    def __init__(self, table, rng):
        self.table = table
        self.rng = rng
        self.noised = 0

    @property
    def dim(self):
        return self.table.dim

    def lookup(self, ids):
        out = self.table.lookup(ids)
        pad = ids == data.PAD_ID
        out[pad] = self.rng.uniform(-3.0, 3.0, size=(int(pad.sum()), out.shape[-1]))
        self.noised += int(pad.sum())
        return out


def pad_block(sentences, vocab, slots, max_words):
    """The padded layout samples were once stored in: int64 ids and a word
    mask [slots x max_words] and a sentence mask [slots], id 0 and False in
    pad cells. The reference the padded fields of ``SampleArrays`` must equal."""
    ids = np.zeros((slots, max_words), dtype=np.int64)
    word_mask = np.zeros((slots, max_words), dtype=bool)
    sent_mask = np.zeros(slots, dtype=bool)
    for i, sent in enumerate(sentences[:slots]):
        toks = sent[:max_words]
        ids[i, :len(toks)] = [vocab.id_of(t) for t in toks]
        word_mask[i, :len(toks)] = True
        sent_mask[i] = len(toks) > 0
    return ids, word_mask, sent_mask


def paper_vocab(size=2000):
    vocab = data.Vocabulary()
    for i in range(size):
        vocab.add(f"w{i}")
    return vocab


def paper_document(rng, doc_id, vocab_tokens, sentences=20, entities=5, words=25):
    """A document of gossipcop shape: ``sentences`` news and comment
    sentences, ``entities`` descriptions of 4 sentences, sentence lengths
    within 40% of ``words``."""
    def block(n):
        return [[vocab_tokens[int(i)] for i in rng.integers(
            2, len(vocab_tokens), size=int(rng.integers(words * 0.6, words * 1.4 + 1)))]
            for _ in range(n)]

    return data.Document(doc_id, block(sentences), block(sentences),
                         [(f"e{k}", block(4)) for k in range(entities)], int(rng.integers(0, 2)))
