"""The benchmark under perfbench/ wraps and calls public names of the package.
These tests run its span tracer and its oracle and explain patterns on tiny
inputs, so that a refactor which breaks ``perfbench/run.py`` fails here."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dualcan import data, interpret, model

from conftest import random_document, tiny_documents, tiny_embeddings, tiny_hyperparams, tiny_vocab
from oracles import model_forward_loops

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tiny_batch():
    hp = tiny_hyperparams()
    vocab = tiny_vocab()
    rng = np.random.default_rng(8)
    docs = tiny_documents() + [random_document(rng, f"r{i}", vocab.tokens()) for i in range(4)]
    samples = [data.encode_document(d, vocab, hp) for d in docs]
    return hp, model.ModelParams.create(hp), tiny_embeddings(vocab, hp.embedding_dim), samples


def test_tracer_wraps_every_traced_name_and_restores_it(tiny_batch):
    hp, params, emb, samples = tiny_batch
    spans = load_spans()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in spans.TRACED]
    tracer = spans.Tracer("interface")
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not raw for owner, attr, raw in originals)
        model.train(samples, samples[:2], replace(hp, max_epochs=1), params, emb)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in originals)
    calls = {}
    for span in tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    batches = -(-len(samples) // hp.batch_size)
    assert calls["model.encode_samples"] == batches + 1        # training batches, one validation pass
    assert calls["layers.gru_sequence"] == 8 * calls["model.encode_samples"]
    assert calls["layers.bigru"] == 4 * calls["model.encode_samples"]
    assert calls["layers.co_attention"] == 2 * calls["model.forward"]
    assert calls["model.cross_entropy"] == calls["autodiff.Graph.backward"] == batches
    tape = [value for _, value in tracer.counters["autodiff.tape_nodes"]]
    assert len(tape) == batches and 0 < max(tape) <= 60
    useful = sum(v for _, v in tracer.counters["layers.gru_sequence.useful"])
    steps = sum(v for _, v in tracer.counters["layers.gru_sequence.steps"])
    assert 0 < useful <= steps


@pytest.mark.parametrize("mode", model.MODES)
def test_batched_and_batch_one_logits_match_oracle(tiny_batch, mode):
    # the pattern of the benchmark's oracle gate, then its explain pass
    hp, params, emb, samples = tiny_batch
    batch = [model.ablate(s, mode) for s in samples]
    checked = 0
    for sample, enc in zip(batch, model.encode_samples(batch, params, emb, hp)):
        expected, _ = model_forward_loops(sample, params, emb, hp)
        for logits in (model.forward(enc, params)[0],
                       model.run_sample(sample, params, emb, hp)[0]):
            assert np.abs(logits.data.reshape(-1) - expected).max() <= 1e-12
        checked += 1
    assert checked == len(batch)
    logits, attn = model.run_sample(batch[0], params, emb, hp)
    entry = interpret.report_entry(batch[0].doc_id, batch[0].label,
                                   model.predict_probs(logits), attn)
    assert abs(sum(entry["probabilities"].values()) - 1.0) <= 1e-9
    for weights, mask in ((attn.news_entity, attn.news_mask), (attn.entity, attn.entity_mask),
                          (attn.news_comment, attn.news_mask), (attn.comment, attn.comment_mask)):
        if mask.any():
            assert np.all(weights[~mask] == 0.0) and abs(weights.sum() - 1.0) <= 1e-9
