"""The benchmark under perfbench/ wraps and calls public names of the package.
These tests run its span tracer and its oracle and explain patterns on tiny
inputs, so that a refactor which breaks ``perfbench/run.py`` fails here."""

from dataclasses import replace

import numpy as np
import pytest

from dualcan import cli, data, interpret, model

from conftest import (load_perfbench, pad_block, random_document, tiny_documents,
                      tiny_embeddings, tiny_hyperparams, tiny_vocab)
from oracles import model_forward_loops


def load_spans():
    return load_perfbench("spans")


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


def test_input_stats_of_a_paper_corpus_read_as_in_the_padded_layout(tmp_path):
    # the benchmark's per-layer input metrics read the padded fields; they
    # keep the values the padded layout gave, which the oracle rebuilds
    gen = load_perfbench("gen")
    paths = gen.paper_corpus(tmp_path, 3, n_train=4, n_val=2, n_test=2)
    hp = replace(model.HyperParams.profile("gossipcop"), max_news_sentences=24,
                 max_entity_sentences=24, max_comment_sentences=24, batch_size=2)
    config = cli.RunConfig(train=str(paths["train"]), val=str(paths["val"]),
                           test=str(paths["test"]), embeddings=str(paths["embeddings"]),
                           entities=str(paths["entities"]), hp=hp)
    prepared = cli.prepare_data(config, hp)
    stats = gen.input_stats(prepared.train + prepared.val + prepared.test)

    resolver = data.SnapshotResolver(paths["entities"])
    real_words = word_slots = documents = 0
    sentences = {"news": 0, "entity": 0, "comment": 0}
    for split in ("train", "val", "test"):
        docs, _ = data.read_dataset(paths[split], hp.max_sentences_per_comment)
        for doc in data.resolve_documents(docs, resolver):
            documents += 1
            for side, sents, slots in (
                    ("news", doc.news_sentences, hp.max_news_sentences),
                    ("entity", data.resolve_entities(doc, hp), hp.max_entity_sentences),
                    ("comment", doc.comment_sentences, hp.max_comment_sentences)):
                _, word_mask, sent_mask = pad_block(sents, prepared.vocab, slots, hp.max_words)
                real_words += int(word_mask.sum())
                word_slots += word_mask.size
                sentences[side] += int(sent_mask.sum())
    expected = {"input.word_fill": real_words / word_slots}
    expected.update((f"input.{side}_sentences", n / documents) for side, n in sentences.items())
    assert stats == expected
    assert expected == {"input.word_fill": 0.179296875, "input.news_sentences": 20.25,
                        "input.entity_sentences": 20.0, "input.comment_sentences": 19.625}
