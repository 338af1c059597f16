import numpy as np
import pytest

from dualcan import data, model


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
