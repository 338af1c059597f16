import dataclasses
import math
import re
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcan import autodiff as ad
from dualcan import data, layers, model

from conftest import (random_document, tiny_documents, tiny_embeddings, tiny_hyperparams,
                      tiny_vocab)
from oracles import model_forward_loops
from tape_ops import grad_check, log, mean_all, scale, softmax_rows, transpose

LN2 = math.log(2.0)


def zero_all(params):
    for t in params.named().values():
        t.data[:] = 0.0
    return params


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------


def encode_one(sample, params, emb, hp):
    return model.encode_samples([sample], params, emb, hp)[0]


def test_encode_news_single_word_sentence(tiny_setup):
    hp, params, vocab, emb, _ = tiny_setup
    doc = data.Document("x", [["alpha"]], [], [], 0)
    sample = data.encode_document(doc, vocab, hp)
    enc = encode_one(sample, params, emb, hp)
    npt.assert_array_equal(enc.news_mask, [[True, False]])
    # expected: word BiGRU state pooled with weight 1, then the sentence BiGRU
    word_vec = emb.matrix[vocab.id_of("alpha")].reshape(-1, 1)
    word_states = layers.bigru([ad.Tensor(word_vec)], params.news_encoder.fwd,
                               params.news_encoder.bwd)
    pooled, weights = layers.word_attention(word_states, np.array([[True]]),
                                            params.news_encoder.attention)
    npt.assert_array_equal(weights, [[1.0]])
    keep = [ad.Tensor([[1.0]]), ad.Tensor([[0.0]])]
    states = layers.bigru([pooled, ad.Tensor(np.zeros((4, 1)))], params.sentence_fwd,
                          params.sentence_bwd, keep)
    expected = np.hstack([states.data[:, :1], np.zeros((4, 1))])
    npt.assert_allclose(enc.news.data, expected, atol=1e-12)


def test_encode_news_zero_params_zero_embeddings(tiny_setup):
    hp, params, vocab, _, _ = tiny_setup
    zero_all(params)
    emb = data.EmbeddingTable(np.zeros((len(vocab), hp.embedding_dim)), hp.embedding_dim)
    doc = data.Document("x", [["alpha", "beta"], ["gamma"]], [], [], 0)
    sample = data.encode_document(doc, vocab, hp)
    s = encode_one(sample, params, emb, hp).news
    npt.assert_array_equal(s.data, np.zeros_like(s.data))


def test_encode_news_empty_document_errors(tiny_setup):
    hp, params, _, emb, samples = tiny_setup
    empty = samples[0].copy()
    empty.news_ids[:] = 0
    empty.news_word_mask[:] = False
    empty.news_sent_mask[:] = False
    with pytest.raises(ad.DegenerateMaskError):
        model.encode_samples([samples[1], empty], params, emb, hp)


def test_encode_side_empty_gives_zeros_and_false_mask(tiny_setup):
    hp, params, vocab, emb, _ = tiny_setup
    doc = data.Document("x", [["alpha"]], [], [], 0)
    enc = encode_one(data.encode_document(doc, vocab, hp), params, emb, hp)
    for cols, mask in ((enc.comments, enc.comment_mask), (enc.entities, enc.entity_mask)):
        npt.assert_array_equal(cols.data, np.zeros((4, 2)))
        assert not mask.any()


def test_encode_side_exact_limit_full_mask(tiny_setup):
    hp, params, vocab, emb, _ = tiny_setup
    doc = data.Document("x", [["alpha"]],
                        [["beta", "gamma"], ["delta"]], [], 0)
    enc = encode_one(data.encode_document(doc, vocab, hp), params, emb, hp)
    assert enc.comment_mask.all()
    assert (np.abs(enc.comments.data).sum(axis=0) > 0).all()


def test_encode_side_truncation_is_inert(tiny_setup):
    hp, params, vocab, emb, _ = tiny_setup
    base = [["alpha", "beta"], ["gamma"], ["delta"], ["eps"], ["zeta"]]
    doc_a = data.Document("a", [["alpha"]], base, [], 0)
    doc_b = data.Document("b", [["alpha"]], base[:2] + [["kappa"], ["eta"], ["theta"]], [], 0)
    sample_a = data.encode_document(doc_a, vocab, hp)
    sample_b = data.encode_document(doc_b, vocab, hp)
    # limits cut both comment lists to the first two sentences
    npt.assert_array_equal(sample_a.comment_ids, sample_b.comment_ids)
    cols_a = encode_one(sample_a, params, emb, hp).comments
    cols_b = encode_one(sample_b, params, emb, hp).comments
    npt.assert_array_equal(cols_a.data, cols_b.data)


def test_encode_news_matches_composed_oracle(tiny_setup):
    hp, params, vocab, emb, samples = tiny_setup
    from oracles import bigru_loops, word_side_loops

    sample = samples[0]
    s = encode_one(sample, params, emb, hp).news
    s0 = word_side_loops(sample.news_ids, sample.news_word_mask,
                         sample.news_sent_mask, params.news_encoder, emb)
    expected = bigru_loops(s0, params.sentence_fwd, params.sentence_bwd,
                           list(sample.news_sent_mask))
    expected *= sample.news_sent_mask.astype(float).reshape(1, -1)
    npt.assert_allclose(s.data, expected, atol=1e-10)


def test_encode_samples_batch_matches_single_sample(tiny_setup):
    hp, params, _, emb, samples = tiny_setup
    batch = model.encode_samples(samples, params, emb, hp)
    for sample, enc_b in zip(samples, batch):
        enc_1 = encode_one(sample, params, emb, hp)
        npt.assert_allclose(enc_1.news.data, enc_b.news.data, atol=1e-12)
        npt.assert_allclose(enc_1.entities.data, enc_b.entities.data, atol=1e-12)
        npt.assert_allclose(enc_1.comments.data, enc_b.comments.data, atol=1e-12)


def test_encode_samples_mixed_batch_matches_oracle(tiny_setup):
    hp, params, vocab, emb, _ = tiny_setup
    rng = np.random.default_rng(5)
    docs = [data.Document("one", [["alpha", "beta"]], [["gamma"]], [("acme", [["delta"]])], 1),
            data.Document("full", [["eta"], ["theta", "iota"]], [["zeta"]],
                          [("acme", [["eps", "alpha"]])], 0)]
    docs += [random_document(rng, f"r{i}", vocab.tokens()) for i in range(6)]
    samples = [data.encode_document(d, vocab, hp) for d in docs]
    samples[2] = model.ablate(samples[2], "N+C")
    samples[3] = model.ablate(samples[3], "N+E")
    assert [int(s.news_sent_mask.sum()) for s in samples[:2]] == [1, hp.max_news_sentences]
    encoded = model.encode_samples(samples, params, emb, hp)
    batch_logits, reports = model.forward(encoded, params)
    assert batch_logits.shape == (2, 8) and len(reports) == 8
    for b, (sample, enc) in enumerate(zip(samples, encoded)):
        logits, _ = model.forward(enc, params)
        exp_logits, _ = model_forward_loops(sample, params, emb, hp)
        npt.assert_allclose(logits.data.reshape(-1), exp_logits, atol=1e-12)
        npt.assert_allclose(batch_logits.data[:, b], exp_logits, atol=1e-12)
        report = reports[b]
        for weights, mask in ((report.news_entity, report.news_mask),
                              (report.entity, report.entity_mask),
                              (report.news_comment, report.news_mask),
                              (report.comment, report.comment_mask)):
            if mask.any():
                assert abs(weights[mask].sum() - 1.0) <= 1e-12
                assert (weights[~mask] == 0.0).all()
            else:   # an ablated side: uniform over its slots
                npt.assert_allclose(weights, 1.0 / mask.size, atol=1e-15)


def test_encoded_batch_indexes_into_batch_of_one_views(tiny_setup):
    hp, params, _, emb, samples = tiny_setup
    encoded = model.encode_samples(samples, params, emb, hp)
    n, e, u = hp.max_news_sentences, hp.max_entity_sentences, hp.max_comment_sentences
    assert len(encoded) == 2 and encoded.news.shape == (4, 2 * n)
    assert encoded.news_mask.shape == (2, n) and encoded.entity_mask.shape == (2, e)
    npt.assert_array_equal(encoded.labels, [s.label for s in samples])
    views = list(encoded)
    assert len(views) == 2
    for i, view in enumerate(views):
        assert len(view) == 1 and view.labels.tolist() == [samples[i].label]
        npt.assert_array_equal(view.news.data, encoded.news.data[:, i * n:(i + 1) * n])
        npt.assert_array_equal(view.entities.data, encoded.entities.data[:, i * e:(i + 1) * e])
        npt.assert_array_equal(view.comments.data, encoded.comments.data[:, i * u:(i + 1) * u])
        npt.assert_array_equal(view.news_mask, [samples[i].news_sent_mask])
        npt.assert_array_equal(view.comment_mask, [samples[i].comment_sent_mask])
    with pytest.raises(IndexError):
        encoded[2]


@pytest.mark.parametrize("size", [1, 8])
def test_encode_samples_runs_one_recurrence_per_level(tiny_setup, monkeypatch, size):
    # three word-level BiGRUs (news, entities, comments) and the news
    # sentence-level BiGRU, each running gru_sequence once per direction
    hp, params, _, emb, samples = tiny_setup
    calls = {"gru_sequence": 0, "bigru": 0}
    for name in calls:
        original = getattr(layers, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(layers, name, counted)
    model.encode_samples((samples * 4)[:size], params, emb, hp)
    assert calls == {"gru_sequence": 8, "bigru": 4}


def _lengths_document(doc_id, news, comments, entities, vocab):
    """A document whose sentences have the given word counts, in order."""
    tokens = vocab.tokens()[2:]

    def sentences(lengths, shift):
        return [[tokens[(shift + i + j) % len(tokens)] for j in range(n)]
                for i, n in enumerate(lengths)]

    return data.Document(doc_id, sentences(news, 0), sentences(comments, 3),
                         [("acme", sentences(entities, 6))] if entities else [], len(news) % 2)


# per sample: word counts of its (news, comment, entity) sentences
PACKED_BATCHES = {
    "one-sample": [([3, 1, 2], [2, 4], [1, 3])],
    "one-word-sentences": [([1, 1], [1], [1, 1]), ([1], [1, 1, 1], [1])],
    "one-sample-one-word": [([1], [1], [1])],
    "full-length-sentence": [([4, 2], [6, 1], [4]), ([1, 4], [3], [2, 5])],
    "tied-lengths": [([2, 2], [2, 2], [2]), ([2], [2], [2, 2])],
    "already-sorted": [([4, 3], [3, 2], [2, 2]), ([2, 1], [1], [1])],
    "reverse-sorted": [([1, 2], [1], [1, 1]), ([2, 3], [2, 3], [3, 4])],
    "no-entity-side": [([2, 3], [1, 2], []), ([3], [4], [])],
    "no-comment-side": [([3, 1], [], [2]), ([2], [], [4, 1])],
}


def _packed_batch(tiny_setup, case):
    hp, params, vocab, emb, _ = tiny_setup
    hp = dataclasses.replace(hp, max_words=4, max_news_sentences=3,
                             max_entity_sentences=3, max_comment_sentences=3)
    docs = [_lengths_document(f"s{i}", *lengths, vocab)
            for i, lengths in enumerate(PACKED_BATCHES[case])]
    return hp, params, emb, [data.encode_document(d, vocab, hp) for d in docs]


@pytest.mark.parametrize("case", PACKED_BATCHES)
def test_length_sorted_word_recurrence_matches_oracle(tiny_setup, case):
    hp, params, emb, samples = _packed_batch(tiny_setup, case)
    if case == "full-length-sentence":   # 6 and 5 words are cut to max_words
        assert samples[0].comment_word_mask[0].all() and samples[1].entity_word_mask[1].all()
    logits, _ = model.forward(model.encode_samples(samples, params, emb, hp), params)
    for b, sample in enumerate(samples):
        expected, _ = model_forward_loops(sample, params, emb, hp)
        npt.assert_allclose(logits.data[:, b], expected, rtol=0, atol=1e-12)


class _CandidateColumns:
    """Stands in for ``numpy`` inside ``layers``: while a recurrence runs, it
    adds up the columns of every ``tanh``, which a GRU step calls once, on
    the candidates of the columns it computes."""

    def __init__(self):
        self.per_call = []
        self.active = False

    def __getattr__(self, name):
        return getattr(np, name)

    def tanh(self, x, *args, **kwargs):
        if self.active:
            self.per_call[-1] += x.shape[1]
        return np.tanh(x, *args, **kwargs)


def test_word_recurrence_computes_only_real_column_steps(tiny_setup, monkeypatch):
    # padded word steps cost nothing: each direction of a word-level BiGRU
    # computes as many column-steps as its source has real words
    hp, params, emb, samples = _packed_batch(tiny_setup, "reverse-sorted")
    counter = _CandidateColumns()
    recurrence = layers.gru_sequence

    def counted(*args, **kwargs):
        counter.per_call.append(0)
        counter.active = True
        try:
            return recurrence(*args, **kwargs)
        finally:
            counter.active = False

    monkeypatch.setattr(layers, "np", counter)
    monkeypatch.setattr(layers, "gru_sequence", counted)
    model.encode_samples(samples, params, emb, hp)
    real_words = [sum(int(words[sents].sum()) for words, sents in side) for side in (
        [(s.news_word_mask, s.news_sent_mask) for s in samples],
        [(s.entity_word_mask, s.entity_sent_mask) for s in samples],
        [(s.comment_word_mask, s.comment_sent_mask) for s in samples])]
    assert real_words == [8, 9, 6]     # of 12, 16 and 9 column-steps on the trimmed axis
    assert len(counter.per_call) == 8
    assert counter.per_call[:6] == [n for n in real_words for _ in ("fwd", "bwd")]


def test_sentence_without_words_fails_after_time_trimming(tiny_setup):
    # a real sentence slot whose words are all padding cannot be pooled: it
    # raises DegenerateMaskError (exit 2 on the command line), also when no
    # gathered sentence of its source has a real word left to trim to
    hp, params, _, emb, samples = tiny_setup
    broken = samples[0].copy()
    broken.comment_word_mask[0] = False
    with pytest.raises(layers.DegenerateMaskError):
        model.encode_samples([broken, samples[1]], params, emb, hp)
    broken.comment_word_mask[:] = False
    assert broken.comment_sent_mask.any()
    with pytest.raises(layers.DegenerateMaskError):
        model.encode_samples([broken], params, emb, hp)


def test_synthetic_training_batch_tape(tmp_path, monkeypatch):
    # one synthetic-profile training batch of 8: each GRU recurrence, word
    # attention and co-attention block is one tape node, the whole tape holds
    # at most 60 nodes, and a word-level
    # recurrence runs as many steps as the longest real sentence of its source
    from dualcan import cli

    assert cli.main(["synth", "--out", str(tmp_path), "--size", "60", "--seed", "7"]) == 0
    config = cli.build_run_config(
        cli.build_parser().parse_args(["train", "--config", str(tmp_path / "config.cfg")]))
    hp = config.hp
    prepared = cli.prepare_data(config, hp)
    batch = prepared.train[:8]
    params = model.ModelParams.create(hp)
    steps = {}
    original = layers.gru_sequence

    def recorded(columns, p, *args, **kwargs):
        steps.setdefault(id(p), []).append(len(columns))
        return original(columns, p, *args, **kwargs)

    monkeypatch.setattr(layers, "gru_sequence", recorded)
    graph = ad.Graph()
    with graph:
        encoded = model.encode_samples(batch, params, prepared.embeddings, hp)
        loss = model.cross_entropy(model.forward(encoded, params)[0], encoded.labels)
    graph.backward(loss)
    assert len(batch) == 8 and hp == model.HyperParams(embedding_dim=16, seed=7)
    assert len(graph) <= 60
    ops = [node.op for node in graph._nodes]
    assert (ops.count("gru_sequence"), ops.count("word_attention"),
            ops.count("co_attention")) == (8, 3, 2)
    longest = {}
    for source, enc in (("news", params.news_encoder), ("entity", params.entity_encoder),
                        ("comment", params.comment_encoder)):
        longest[source] = max(int(getattr(s, f"{source}_word_mask").sum(axis=1).max())
                              for s in batch)
        assert steps[id(enc.fwd)] == steps[id(enc.bwd)] == [longest[source]]
    assert min(longest.values()) < hp.max_words


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_zero_head_gives_uniform_probabilities(tiny_setup):
    hp, params, _, emb, samples = tiny_setup
    params.head_w2.data[:] = 0.0
    params.head_b2.data[:] = 0.0
    logits, _ = model.run_sample(samples[0], params, emb, hp)
    npt.assert_array_equal(logits.data, np.zeros((2, 1)))
    npt.assert_allclose(model.predict_probs(logits), [0.5, 0.5], atol=1e-15)


def test_forward_entity_order_permutation_invariant(tiny_setup):
    hp, params, vocab, emb, _ = tiny_setup
    doc = tiny_documents()[0]
    sents = doc.entity_descriptions[0][1]
    permuted = data.Document(doc.doc_id, doc.news_sentences, doc.comment_sentences,
                             [("acme", [sents[1], sents[0]])], doc.label)
    logits_a, _ = model.run_sample(data.encode_document(doc, vocab, hp), params, emb, hp)
    logits_b, _ = model.run_sample(data.encode_document(permuted, vocab, hp), params, emb, hp)
    npt.assert_allclose(logits_a.data, logits_b.data, atol=1e-12)


def test_forward_matches_composed_oracle(tiny_setup):
    hp, params, _, emb, samples = tiny_setup
    for sample in samples:
        logits, _ = model.run_sample(sample, params, emb, hp)
        exp_logits, exp_probs = model_forward_loops(sample, params, emb, hp)
        npt.assert_allclose(logits.data.reshape(-1), exp_logits, atol=1e-10)
        npt.assert_allclose(model.predict_probs(logits), exp_probs, atol=1e-10)


def test_forward_attention_report_sums(tiny_setup):
    hp, params, _, emb, samples = tiny_setup
    _, report = model.run_sample(samples[0], params, emb, hp)
    for weights, mask in ((report.news_entity, report.news_mask),
                          (report.entity, report.entity_mask),
                          (report.news_comment, report.news_mask),
                          (report.comment, report.comment_mask)):
        assert abs(weights[mask].sum() - 1.0) <= 1e-10
        assert (weights[~mask] == 0.0).all()


def test_forward_empty_side_uses_uniform_fallback(tiny_setup):
    hp, params, vocab, emb, _ = tiny_setup
    doc = data.Document("x", [["alpha", "beta"]], [], [], 1)
    sample = data.encode_document(doc, vocab, hp)
    logits, report = model.run_sample(sample, params, emb, hp)
    assert np.isfinite(logits.data).all()
    # no real comments: uniform over every slot, pooled vector is zero
    npt.assert_allclose(report.comment, [0.5, 0.5], atol=1e-12)
    enc = encode_one(sample, params, emb, hp)
    out = layers.co_attention(enc.news, enc.comments, enc.news_mask,
                              np.ones((1, 2), dtype=bool), params.comment_coattn)
    npt.assert_allclose(out.pooled.data[4:], np.zeros((4, 1)), atol=1e-15)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_loss_uniform_logits_is_ln2():
    logits = ad.Tensor([[0.0], [0.0]])
    assert model.cross_entropy(logits, 1).item() == pytest.approx(LN2, abs=1e-12)
    assert model.cross_entropy(logits, 0).item() == pytest.approx(LN2, abs=1e-12)


def test_loss_perfect_prediction_goes_to_zero():
    logits = ad.Tensor([[-20.0], [20.0]])
    assert model.cross_entropy(logits, 1).item() < 1e-8


def test_loss_hand_value():
    # p1 = e^-1 / (e^1 + e^-1) so the loss for label 0 is log(1 + e^-2)
    logits = ad.Tensor([[1.0], [-1.0]])
    expected = math.log(1.0 + math.exp(-2.0))
    assert model.cross_entropy(logits, 0).item() == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.12692801104297263, abs=1e-15)


def cross_entropy_reference(logits, label):
    """Tape-composed loss of one [2 x 1] logit column."""
    probs = softmax_rows(transpose(logits))            # [1 x 2]
    p0, p1 = ad.slice_cols(probs, 0, 1), ad.slice_cols(probs, 1, 2)
    return ad.add(scale(log(p1, floor=1e-12), -float(label)),
                  scale(log(p0, floor=1e-12), -(1.0 - label)))


def test_loss_batch_is_mean_of_reference_columns(rng):
    # value and logit gradient equal the tape-composed per-column losses and
    # their mean bit for bit, including a column where the floor clamps
    data = rng.uniform(-4, 4, (2, 7))
    data[:, 3] = [-40.0, 40.0]
    labels = [0, 1, 1, 0, 1, 0, 0]
    grads = []
    for batched in (True, False):
        logits = ad.Tensor(data.copy(), requires_grad=True)
        g = ad.Graph()
        with g:
            if batched:
                loss = model.cross_entropy(logits, labels)
            else:
                loss = mean_all(ad.concat(
                    [cross_entropy_reference(ad.slice_cols(logits, b, b + 1), y)
                     for b, y in enumerate(labels)], axis=1))
        g.backward(loss)
        grads.append((loss.item(), logits.grad))
    assert grads[0][0] == grads[1][0]
    npt.assert_array_equal(grads[0][1], grads[1][1])
    npt.assert_array_equal(grads[0][1][:, 3], 0.0)   # clamped: no gradient


def test_loss_shape_errors():
    with pytest.raises(ad.ShapeError):
        model.cross_entropy(ad.Tensor(np.zeros((2, 3))), [0, 1])
    with pytest.raises(ad.ShapeError):
        model.cross_entropy(ad.Tensor(np.zeros((3, 1))), 1)


def test_loss_nonnegative_random(rng):
    for _ in range(50):
        logits = ad.Tensor(rng.uniform(-4, 4, (2, 1)))
        y = int(rng.integers(0, 2))
        assert model.cross_entropy(logits, y).item() >= 0.0


def test_predicted_label_tie_goes_to_real():
    assert model.predicted_label(np.array([0.5, 0.5])) == 0
    assert model.predicted_label(np.array([0.4, 0.6])) == 1
    assert model.predicted_label(np.array([0.6, 0.4])) == 0


def test_predict_matches_batch_one_path_in_input_order(tiny_setup):
    hp, params, vocab, emb, _ = tiny_setup
    hp = dataclasses.replace(hp, batch_size=4)
    samples = _toy_split(hp, vocab, emb, n=6)   # a full chunk, then a part
    for mode in model.MODES:
        predicted = list(model.predict(samples, params, emb, hp, mode))
        assert len(predicted) == len(samples)
        for sample, (probs, report) in zip(samples, predicted):
            logits, expected = model.run_sample(model.ablate(sample, mode), params, emb, hp)
            npt.assert_allclose(probs, model.predict_probs(logits), rtol=0, atol=1e-12)
            for name in ("news_entity", "entity", "news_comment", "comment"):
                npt.assert_allclose(getattr(report, name), getattr(expected, name),
                                    rtol=0, atol=1e-12)
            for name in ("news_mask", "entity_mask", "comment_mask"):
                npt.assert_array_equal(getattr(report, name), getattr(expected, name))


def test_predict_ablates_only_outside_full_mode(tiny_setup, monkeypatch):
    hp, params, _, emb, samples = tiny_setup
    ablated = []
    ablate = model.ablate

    def counted_ablate(sample, mode):
        ablated.append(mode)
        return ablate(sample, mode)

    monkeypatch.setattr(model, "ablate", counted_ablate)
    model.evaluate(samples, params, emb, hp)
    assert ablated == []
    model.evaluate(samples, params, emb, hp, "N+C")
    assert ablated == ["N+C"] * len(samples)


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------


def test_adam_first_step_magnitude():
    x = ad.Tensor([[2.0, -3.0]], requires_grad=True)
    params = model.FlatParams({"x": x})
    x.grad[...] = [[1.0, -0.5]]
    state = model.AdamState.create(params)
    before = x.data.copy()
    model.adam_step(params, state, lr=0.01)
    delta = x.data - before
    assert (np.abs(delta) <= 0.01 + 1e-15).all()
    assert (np.abs(delta) >= 0.01 * (1 - 1e-6)).all()
    assert np.sign(delta[0, 0]) == -1 and np.sign(delta[0, 1]) == 1


def test_adam_zero_gradient_no_movement():
    x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
    params = model.FlatParams({"x": x})
    x.grad[...] = np.zeros((1, 2))
    state = model.AdamState.create(params)
    before = x.data.copy()
    for _ in range(5):
        model.adam_step(params, state, lr=0.1)
    npt.assert_array_equal(x.data, before)


def test_adam_three_steps_match_hand_run():
    x = ad.Tensor([[1.0]], requires_grad=True)
    params = model.FlatParams({"x": x})
    state = model.AdamState.create(params)
    # hand-run the update equations for f(x) = x^2
    xe, m, v = 1.0, 0.0, 0.0
    expected = []
    for t in range(1, 4):
        g = 2.0 * xe
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        xe -= 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        expected.append(xe)
    for t in range(3):
        x.grad[...] = 2.0 * x.data
        model.adam_step(params, state, lr=0.1)
        assert x.data[0, 0] == pytest.approx(expected[t], abs=1e-15)


def test_adam_non_finite_gradient_fails_fast():
    x = ad.Tensor([[1.0]], requires_grad=True)
    params = model.FlatParams({"x": x})
    x.grad[...] = np.array([[np.nan]])
    state = model.AdamState.create(params)
    with pytest.raises(ad.NonFiniteError):
        model.adam_step(params, state, lr=0.1)


def test_clip_gradients_scales_to_max_norm():
    x = ad.Tensor([[3.0]], requires_grad=True)
    y = ad.Tensor([[4.0]], requires_grad=True)
    params = model.FlatParams({"x": x, "y": y})
    x.grad[...] = np.array([[3.0]])
    y.grad[...] = np.array([[4.0]])
    norm = model.clip_gradients(params, 1.0)
    assert norm == pytest.approx(5.0)
    total = math.sqrt(float(x.grad[0, 0] ** 2 + y.grad[0, 0] ** 2))
    assert total == pytest.approx(1.0)


def _clip_gradients_reference(grads: dict, max_norm: float) -> float:
    """The per-tensor clipping loop the flat vector replaced, on name -> array."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm > 0:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


def _adam_step_reference(values: dict, grads: dict, m: dict, v: dict, t: int, lr: float,
                         b1=0.9, b2=0.999, eps=1e-8) -> None:
    """The per-tensor Adam loop the blocked flat update replaced; ``values``,
    ``m`` and ``v`` map names to arrays and are updated in step ``t``."""
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for name, g in grads.items():
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        m_hat = m[name] / bias1
        v_hat = v[name] / bias2
        values[name] = values[name] - lr * m_hat / (np.sqrt(v_hat) + eps)


def _flat(arrays: dict) -> np.ndarray:
    return np.concatenate([a.reshape(-1) for a in arrays.values()])


def _multi_block_params():
    # two full Adam blocks and a partial third one, split across tensor edges
    rng = np.random.default_rng(5)
    shapes = [(300, 200), (1, 77), (50, 200), (13, 1)]
    return model.FlatParams({f"t{i}": ad.Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
                             for i, shape in enumerate(shapes)})


@pytest.mark.parametrize("make, blocks", [
    (lambda: model.ModelParams.create(model.HyperParams()), 1),
    (_multi_block_params, 3),
], ids=["synthetic-profile", "multi-block"])
def test_flat_optimizer_matches_per_tensor_reference(make, blocks):
    params = make()
    size = params.values.size
    assert -(-size // model._ADAM_BLOCK) == blocks and size % model._ADAM_BLOCK
    named = params.named()
    state = model.AdamState.create(params)
    values = params.copy_values()
    m = {name: np.zeros(t.shape) for name, t in named.items()}
    v = {name: np.zeros(t.shape) for name, t in named.items()}
    rng = np.random.default_rng(11)
    for step in range(1, 7):
        for t in named.values():
            t.grad[...] = rng.normal(0.0, 0.1, t.shape)
        grads = {name: t.grad.copy() for name, t in named.items()}
        # odd steps clip, even steps do not
        max_norm = math.sqrt(float((params.grads ** 2).sum())) * (0.5 if step % 2 else 2.0)
        norm = model.clip_gradients(params, max_norm)
        reference_norm = _clip_gradients_reference(grads, max_norm)
        assert abs(norm - reference_norm) <= 1e-15 * reference_norm
        npt.assert_allclose(params.grads, _flat(grads), rtol=1e-15, atol=0)
        # Adam from the same clipped gradients moves every value and moment
        # bit for bit as the per-tensor loop does
        grads = {name: t.grad.copy() for name, t in named.items()}
        model.adam_step(params, state, lr=0.01)
        _adam_step_reference(values, grads, m, v, step, lr=0.01)
        assert state.t == step
        npt.assert_array_equal(params.values, _flat(values))
        npt.assert_array_equal(state.m, _flat(m))
        npt.assert_array_equal(state.v, _flat(v))


@pytest.mark.parametrize("where", [0, -1], ids=["first-value", "last-value"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adam_non_finite_gradient_moves_nothing_and_names_parameter(where, bad):
    params = model.ModelParams.create(tiny_hyperparams())
    named = params.named()
    state = model.AdamState.create(params)
    rng = np.random.default_rng(2)
    params.grads[:] = rng.normal(0.0, 0.1, params.grads.size)
    model.adam_step(params, state, lr=0.01)
    params.grads[:] = rng.normal(0.0, 0.1, params.grads.size)
    name = list(named)[len(named) // 2]
    named[name].grad.reshape(-1)[where] = bad
    values, m, v = params.values.copy(), state.m.copy(), state.v.copy()
    with pytest.raises(ad.NonFiniteError, match=rf"parameter {re.escape(name)} in Adam step 2$"):
        model.adam_step(params, state, lr=0.01)
    assert state.t == 1
    npt.assert_array_equal(params.values, values)
    npt.assert_array_equal(state.m, m)
    npt.assert_array_equal(state.v, v)


def assert_flat_views(params) -> None:
    """Every tensor's data and grad is the C-contiguous slice of the flat
    vectors at its offset in named() order."""
    offset = 0
    for name, t in params.named().items():
        for view, flat in ((t.data, params.values), (t.grad, params.grads)):
            assert np.shares_memory(view, flat) and view.flags.c_contiguous, name
            assert view.ctypes.data == flat.ctypes.data + 8 * offset, name
        offset += t.size
    assert offset == params.values.size == params.grads.size


def test_parameters_stay_views_of_the_flat_vectors(tiny_setup):
    hp, params, vocab, emb, samples = tiny_setup
    assert_flat_views(params)
    hp1 = dataclasses.replace(hp, max_epochs=2)
    result = model.train(_toy_split(hp1, vocab, emb), samples, hp1, params, emb)
    assert result.params is params
    assert_flat_views(params)
    values = model.ModelParams.create(hp, seed=9).copy_values()
    params.load_values(values)
    assert_flat_views(params)
    npt.assert_array_equal(params.values, _flat(values))
    restored = model.restore_params(hp, values)
    assert_flat_views(restored)
    npt.assert_array_equal(restored.values, params.values)

    def f():
        encoded = model.encode_samples(samples, params, emb, hp)
        return model.cross_entropy(model.forward(encoded, params)[0], encoded.labels)

    params.grads[:] = 1.0  # grad_check must zero this in place, not drop the views
    report = grad_check(f, params.named(), max_coords=32)
    assert report.passed(1e-4), report.summary()
    assert_flat_views(params)
    once = params.grads.copy()
    params.zero_grads()
    g = ad.Graph()
    with g:
        loss = f()
    g.backward(loss)
    npt.assert_array_equal(params.grads, once)


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def test_ablate_full_mode_is_identity(tiny_setup):
    _, _, _, _, samples = tiny_setup
    out = model.ablate(samples[0], "N+C+E")
    npt.assert_array_equal(out.entity_ids, samples[0].entity_ids)
    npt.assert_array_equal(out.comment_ids, samples[0].comment_ids)


def test_ablate_drops_entity_side(tiny_setup):
    hp, params, _, emb, samples = tiny_setup
    out = model.ablate(samples[0], "N+C")
    assert (out.entity_ids == 0).all()
    assert not out.entity_sent_mask.any()
    npt.assert_array_equal(out.comment_ids, samples[0].comment_ids)
    # the pooled entity vector collapses to the padding fallback (zero)
    enc = encode_one(out, params, emb, hp)
    co = layers.co_attention(enc.news, enc.entities, enc.news_mask,
                             np.ones((1, hp.max_entity_sentences), dtype=bool),
                             params.entity_coattn)
    npt.assert_allclose(co.pooled.data[4:], np.zeros((4, 1)), atol=1e-15)


def test_ablate_changes_logits_when_side_carried_content(tiny_setup):
    hp, params, _, emb, samples = tiny_setup
    full, _ = model.run_sample(samples[0], params, emb, hp)
    no_comments, _ = model.run_sample(model.ablate(samples[0], "N+E"), params, emb, hp)
    assert np.abs(full.data - no_comments.data).max() > 0


def test_ablate_rejects_unknown_mode(tiny_setup):
    _, _, _, _, samples = tiny_setup
    with pytest.raises(ValueError):
        model.ablate(samples[0], "N")


# ---------------------------------------------------------------------------
# inertness
# ---------------------------------------------------------------------------


def _perturb_masked_positions(sample, rng, vocab_size):
    noisy = sample.copy()
    for ids, word_mask, sent_mask in (
            (noisy.news_ids, noisy.news_word_mask, noisy.news_sent_mask),
            (noisy.entity_ids, noisy.entity_word_mask, noisy.entity_sent_mask),
            (noisy.comment_ids, noisy.comment_word_mask, noisy.comment_sent_mask)):
        pad_cells = ~word_mask
        ids[pad_cells] = rng.integers(2, vocab_size, size=int(pad_cells.sum()))
    return noisy


def test_padding_positions_are_exactly_inert(tiny_setup, rng):
    hp, params, vocab, emb, samples = tiny_setup
    for sample in samples:
        base, _ = model.run_sample(sample, params, emb, hp)
        for _ in range(5):
            noisy = _perturb_masked_positions(sample, rng, len(vocab))
            out, _ = model.run_sample(noisy, params, emb, hp)
            npt.assert_array_equal(out.data, base.data)


def test_appending_pad_slots_leaves_logits_unchanged(tiny_setup):
    hp, params, vocab, emb, _ = tiny_setup
    doc = tiny_documents()[0]
    sample_small = data.encode_document(doc, vocab, hp)
    import dataclasses
    hp_wide = dataclasses.replace(hp, max_news_sentences=4, max_entity_sentences=5,
                                  max_comment_sentences=6, max_words=5)
    sample_wide = data.encode_document(doc, vocab, hp_wide)
    logits_a, _ = model.run_sample(sample_small, params, emb, hp)
    logits_b, _ = model.run_sample(sample_wide, params, emb, hp_wide)
    npt.assert_allclose(logits_a.data, logits_b.data, atol=1e-12)


def test_truncated_document_content_is_inert(tiny_setup):
    hp, params, vocab, emb, _ = tiny_setup
    doc = data.Document(
        "x",
        news_sentences=[["alpha", "beta", "gamma", "delta", "eps"],
                        ["zeta"], ["eta"], ["theta"]],
        comment_sentences=[["iota"], ["kappa"], ["alpha"]],
        entity_descriptions=[("acme", [["beta"], ["gamma"], ["delta"]])],
        label=0)
    altered = data.Document(
        "x",
        news_sentences=[["alpha", "beta", "gamma", "kappa", "iota"],
                        ["zeta"], ["delta"], ["eps"]],
        comment_sentences=[["iota"], ["kappa"], ["theta"]],
        entity_descriptions=[("acme", [["beta"], ["gamma"], ["iota"]])],
        label=0)
    a = data.encode_document(doc, vocab, hp)
    b = data.encode_document(altered, vocab, hp)
    npt.assert_array_equal(a.news_ids, b.news_ids)
    la, _ = model.run_sample(a, params, emb, hp)
    lb, _ = model.run_sample(b, params, emb, hp)
    npt.assert_array_equal(la.data, lb.data)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _toy_split(hp, vocab, emb, n=6):
    rng = np.random.default_rng(0)
    from conftest import random_document

    tokens = vocab.tokens()
    docs = []
    while len(docs) < n:
        doc = random_document(rng, f"t{len(docs)}", tokens)
        docs.append(doc)
    labels = [0, 1] * (n // 2)
    docs = [data.Document(d.doc_id, d.news_sentences, d.comment_sentences,
                          d.entity_descriptions, labels[i]) for i, d in enumerate(docs)]
    return [data.encode_document(d, vocab, hp) for d in docs]


def test_train_zero_learning_rate_keeps_params(tiny_setup):
    hp, params, vocab, emb, _ = tiny_setup
    import dataclasses
    hp0 = dataclasses.replace(hp, learning_rate=0.0, max_epochs=2)
    samples = _toy_split(hp0, vocab, emb)
    before = params.copy_values()
    result = model.train(samples, samples, hp0, params, emb)
    after = result.params.copy_values()
    for name in before:
        npt.assert_array_equal(before[name], after[name])


def test_train_same_seed_identical_history(tiny_setup):
    hp, _, vocab, emb, _ = tiny_setup
    import dataclasses
    hp2 = dataclasses.replace(hp, max_epochs=3, learning_rate=0.01)
    samples = _toy_split(hp2, vocab, emb)
    runs = []
    for _ in range(2):
        params = model.ModelParams.create(hp2)
        result = model.train(samples, samples, hp2, params, emb)
        runs.append(result)
    assert [h.train_loss for h in runs[0].history] == [h.train_loss for h in runs[1].history]
    va = runs[0].params.copy_values()
    vb = runs[1].params.copy_values()
    for name in va:
        npt.assert_array_equal(va[name], vb[name])


def test_train_loss_decreases(tiny_setup):
    hp, _, vocab, emb, _ = tiny_setup
    import dataclasses
    hp2 = dataclasses.replace(hp, max_epochs=8, learning_rate=0.02, patience=8)
    samples = _toy_split(hp2, vocab, emb, n=6)
    params = model.ModelParams.create(hp2)
    result = model.train(samples, samples, hp2, params, emb)
    assert result.history[-1].train_loss < result.history[0].train_loss


def test_train_with_all_negative_validation_split_completes(tiny_setup, tmp_path, capsys):
    hp, params, vocab, emb, _ = tiny_setup
    import dataclasses
    hp2 = dataclasses.replace(hp, max_epochs=2)
    samples = _toy_split(hp2, vocab, emb)
    val = [s for s in samples if s.label == 0]
    result = model.train(samples, val, hp2, params, emb)
    assert [h.val["pr_auc"] for h in result.history] == [None, None]
    # on the command line: one warning before training names the split and
    # the missing label, and epochs.csv leaves the missing pr_auc empty
    from dualcan import cli

    corpus = tmp_path / "skewed"
    assert cli.main(["synth", "--out", str(corpus), "--size", "30", "--balance", "0.1",
                     "--seed", "1"]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--config", str(corpus / "config.cfg"), "--out",
                     str(corpus / "run"), "--set", "hp.max_epochs=2"]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert warnings == ["warning: val split has no samples with label 1 (fake)"]
    rows = (corpus / "run" / "epochs.csv").read_text().splitlines()
    assert [row.split(",")[-1] for row in rows] == ["val_pr_auc", "", ""]
    assert "None" not in "".join(rows)


def test_train_logs_largest_pre_clip_gradient_norm(tiny_setup, monkeypatch):
    hp, params, vocab, emb, _ = tiny_setup
    import dataclasses
    hp2 = dataclasses.replace(hp, max_epochs=2, patience=2)
    samples = _toy_split(hp2, vocab, emb)
    norms = []
    original = model.clip_gradients

    def recorded(*args):
        norms.append(original(*args))
        return norms[-1]

    monkeypatch.setattr(model, "clip_gradients", recorded)
    result = model.train(samples, samples, hp2, params, emb)
    per_epoch = len(samples) // hp2.batch_size
    assert len(norms) == 2 * per_epoch
    assert [h.grad_norm for h in result.history] == [max(norms[:per_epoch]),
                                                     max(norms[per_epoch:])]
    assert all(n > 0 for n in norms)


def test_train_snapshots_once_per_improving_epoch(tiny_setup, monkeypatch):
    hp, params, vocab, emb, _ = tiny_setup
    hp2 = dataclasses.replace(hp, max_epochs=3, patience=3, learning_rate=0.02)
    samples = _toy_split(hp2, vocab, emb, n=8)
    evaluations, copies = [], []
    evaluate, copy_values = model.evaluate, model.FlatParams.copy_values

    def counted_evaluate(*args, **kwargs):
        evaluations.append(None)
        return evaluate(*args, **kwargs)

    def recorded_copy(self):
        values = copy_values(self)
        copies.append((len(evaluations), values))   # the epoch it followed
        return values

    monkeypatch.setattr(model, "evaluate", counted_evaluate)
    monkeypatch.setattr(model.FlatParams, "copy_values", recorded_copy)
    result = model.train(samples[:5], samples, hp2, params, emb)
    best, improving = (-1.0, 0.0), []
    for log in result.history:
        key = (log.val["f1_macro"], -log.train_loss)
        if key > best:
            best, improving = key, improving + [log.epoch]
    # two snapshots, and the last epoch is not the best, so the restore matters
    assert len(improving) >= 2 and result.best_epoch == improving[-1] < len(result.history)
    assert [epoch for epoch, _ in copies] == improving
    for name, tensor in result.params.named().items():
        npt.assert_array_equal(tensor.data, copies[-1][1][name])


def test_restore_params_peaks_at_about_two_flat_vectors():
    hp = dataclasses.replace(model.HyperParams(), embedding_dim=48, hidden_size=48)
    values = model.ModelParams.create(hp, seed=9).copy_values()
    flat = sum(v.nbytes for v in values.values())
    tracemalloc.start()
    try:
        restored = model.restore_params(hp, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the values and the grads vector; no zero layout concatenated and dropped
    assert peak <= 2.1 * flat, peak / flat
    assert restored.values.nbytes == flat


def test_train_rejects_empty_split(tiny_setup):
    hp, params, _, emb, samples = tiny_setup
    with pytest.raises(ValueError):
        model.train([], samples, hp, params, emb)


def test_training_step_clean_under_debug_checks(tiny_setup):
    hp, params, _, emb, samples = tiny_setup
    state = model.AdamState.create(params)
    params.zero_grads()
    g = ad.Graph()
    with g:
        encoded = model.encode_samples(samples, params, emb, hp)
        loss = model.cross_entropy(model.forward(encoded, params)[0], encoded.labels)
    # every node recorded on the tape produced only finite values
    for node in g._nodes:
        assert np.isfinite(node.out.data).all(), node.op
    g.backward(loss)
    model.clip_gradients(params, model.GRAD_CLIP_NORM)
    model.adam_step(params, state, hp.learning_rate)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tiny_setup, tmp_path):
    hp, params, _, _, _ = tiny_setup
    path = tmp_path / "model.bin"
    model.save_checkpoint(path, hp, params)
    hp_back, values = model.load_checkpoint(path)
    assert hp_back == hp
    named = params.named()
    assert set(values) == set(named)
    for name, tensor in named.items():
        npt.assert_array_equal(values[name], tensor.data)
    restored = model.restore_params(hp_back, values)
    for name, tensor in restored.named().items():
        npt.assert_array_equal(tensor.data, named[name].data)


def test_restore_params_loads_without_drawing_an_initialisation(tiny_setup, monkeypatch):
    hp, _, _, _, _ = tiny_setup
    values = model.ModelParams.create(hp, seed=9).copy_values()
    first = np.random.default_rng(hp.seed)
    bound = 1.0 / math.sqrt(hp.embedding_dim)
    npt.assert_array_equal(model.ModelParams.create(hp).named()["news.word.fwd.reset.w"].data,
                           first.uniform(-bound, bound, (hp.hidden_size, hp.embedding_dim)))

    def no_draw(*args, **kwargs):
        raise AssertionError("restore_params drew an initialisation")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    restored = model.restore_params(hp, values)
    assert_flat_views(restored)
    assert list(restored.named()) == list(values)
    for name, tensor in restored.named().items():
        assert tensor.data.tobytes() == values[name].tobytes(), name
        assert not np.shares_memory(tensor.data, values[name]), name


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a checkpoint\n")
    with pytest.raises(model.CheckpointError):
        model.load_checkpoint(path)


def test_checkpoint_rejects_truncated_payload(tiny_setup, tmp_path):
    hp, params, _, _, _ = tiny_setup
    path = tmp_path / "model.bin"
    model.save_checkpoint(path, hp, params)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(model.CheckpointError):
        model.load_checkpoint(path)


def test_checkpoint_header_keeps_v1_layout(tiny_setup, tmp_path):
    hp, params, _, _, _ = tiny_setup
    path = tmp_path / "model.bin"
    model.save_checkpoint(path, hp, params)
    lines = path.read_bytes().split(b"\nend\n", 1)[0].decode().split("\n")
    assert lines[:14] == [
        "DUALCAN-CKPT v1", "hp embedding_dim 4", "hp hidden_size 2", "hp max_words 3",
        "hp max_news_sentences 2", "hp max_entity_sentences 2", "hp max_comment_sentences 2",
        "hp max_sentences_per_description 4", "hp max_sentences_per_comment 2",
        "hp batch_size 2", "hp learning_rate 0.001", "hp max_epochs 30", "hp patience 5",
        "hp seed 3"]
    assert lines[14] == "tensor news.word.fwd.reset.w 2,4 0"


def _save_checkpoint_reference(path, hp, params) -> None:
    """The per-tensor v1 writer that one write of the flat vector replaced."""
    header = "DUALCAN-CKPT v1\n" + "".join(
        f"hp {f.name} {getattr(hp, f.name)!r}\n" for f in dataclasses.fields(hp))
    offset, blobs = 0, []
    for name, tensor in params.named().items():
        header += f"tensor {name} {','.join(str(s) for s in tensor.data.shape)} {offset}\n"
        blobs.append(tensor.data.astype("<f8").tobytes())
        offset += len(blobs[-1])
    path.write_bytes((header + "end\n").encode("utf-8") + b"".join(blobs))


def test_checkpoint_bytes_match_per_tensor_writer(tiny_setup, tmp_path):
    hp, _, vocab, emb, samples = tiny_setup
    for params in (model.ModelParams.create(hp),
                   model.train(samples, samples, dataclasses.replace(hp, max_epochs=1),
                               model.ModelParams.create(hp), emb).params):
        model.save_checkpoint(tmp_path / "flat.bin", hp, params)
        _save_checkpoint_reference(tmp_path / "reference.bin", hp, params)
        assert (tmp_path / "flat.bin").read_bytes() == (tmp_path / "reference.bin").read_bytes()


def _with_payload_value(raw: bytes, value: float) -> bytes:
    """``raw`` with the first float of the payload replaced by ``value``."""
    start = raw.index(b"\nend\n") + 5
    return raw[:start] + struct.pack("<d", value) + raw[start + 8:]


def _first_tensor_line(raw: bytes) -> bytes:
    start = raw.index(b"\ntensor ") + 1
    return raw[start:raw.index(b"\n", start) + 1]


@pytest.mark.parametrize("corrupt, message", [
    (lambda raw: raw.replace(b"hp batch_size 2\n", b"hp batch_size 8.5\n"), "batch_size"),
    (lambda raw: raw.replace(b"hp hidden_size 2\n", b"hp hidden_size 0\n"), "hidden_size"),
    (lambda raw: raw.replace(b"hp seed 3\n", b"hp seed 3\nhp seed 4\n"), "repeated"),
    (lambda raw: raw.replace(b" 2,4 0\n", b" 2,4 -64\n", 1), "starts at byte -64"),
    (lambda raw: raw.replace(b" 2,4 0\n", b" 2,4 0x0\n", 1), "0x0"),
    (lambda raw: raw.replace(b" 2,4 0\n", b" 2.0,4 0\n", 1), "2.0"),
    (lambda raw: raw.replace(b" 2,4 0\n", b" -2,-4 0\n", 1), "negative dimension"),
    (lambda raw: raw.replace(b"\nend\n", b"\n" + _first_tensor_line(raw) + b"end\n") + bytes(8),
     "listed twice"),
    (lambda raw: raw + bytes(8), "8 payload bytes after"),
    (lambda raw: raw.replace(b"\nend\n", b"\nen"), "truncated header"),
    (lambda raw: _with_payload_value(raw, math.nan), "news.word.fwd.reset.w holds non-finite"),
    (lambda raw: _with_payload_value(raw, -math.inf), "news.word.fwd.reset.w holds non-finite"),
], ids=["hp-not-int", "hp-invalid", "hp-repeated", "negative-offset", "hex-offset",
        "float-shape", "negative-shape", "tensor-repeated", "trailing-bytes", "no-end-line",
        "nan-payload", "inf-payload"])
def test_checkpoint_rejects_inconsistent_directory(tiny_setup, tmp_path, corrupt, message):
    hp, params, _, _, _ = tiny_setup
    path = tmp_path / "model.bin"
    model.save_checkpoint(path, hp, params)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(model.CheckpointError, match=message):
        model.load_checkpoint(path)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    hp = tiny_hyperparams()
    params = model.ModelParams.create(hp)
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    model.save_checkpoint(path, hp, params)
    raw = path.read_bytes()
    return path, raw, raw.index(b"\nend\n") + 5, params.copy_values()


_HEADER_JUNK = [b"-8", b"8.5", b"0", b"1e3", b"", b" ", b",", b"\n", b"x", b"tensor ", b"hp ",
                b"end\n", b"99999999999", b"\xff\xfe"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupt_checkpoint_loads_saved_values_or_raises(saved_checkpoint, data):
    # one header edit at most, then a truncation or appended bytes: without a
    # checksum, a tensor that keeps its name and shape must keep its bytes
    path, raw, header_len, saved = saved_checkpoint
    blob = bytearray(raw)
    if data.draw(st.booleans()):
        lines = raw[:header_len].split(b"\n")
        at = data.draw(st.integers(0, len(lines) - 2))
        edit = data.draw(st.sampled_from(["bytes", "drop", "repeat"]))
        if edit == "bytes":
            col = data.draw(st.integers(0, len(lines[at])))
            width = data.draw(st.integers(0, 3))
            new = data.draw(st.sampled_from(_HEADER_JUNK) | st.binary(max_size=3))
            lines[at] = lines[at][:col] + new + lines[at][col + width:]
        elif edit == "drop":
            del lines[at]
        else:
            lines.insert(at, lines[at])
        blob = bytearray(b"\n".join(lines)) + raw[header_len:]
    tail = data.draw(st.sampled_from(["keep", "cut", "append"]))
    if tail == "cut":
        del blob[data.draw(st.integers(0, len(blob))):]
    elif tail == "append":
        blob += data.draw(st.binary(max_size=24))
    path.write_bytes(bytes(blob))
    try:
        _, values = model.load_checkpoint(path)
    except model.CheckpointError:
        return
    for name, array in values.items():
        if name in saved and array.shape == saved[name].shape:
            npt.assert_array_equal(array, saved[name])
    if bytes(blob) == raw:
        assert values.keys() == saved.keys()


def test_hyperparams_profiles():
    g = model.HyperParams.profile("gossipcop")
    assert (g.embedding_dim, g.hidden_size, g.max_words) == (100, 100, 120)
    assert (g.max_news_sentences, g.max_entity_sentences, g.max_comment_sentences) == (40, 100, 100)
    assert (g.batch_size, g.learning_rate) == (16, 0.001)
    c = model.HyperParams.profile("coaid")
    assert (c.embedding_dim, c.hidden_size) == (300, 300)
    assert (c.max_news_sentences, c.max_entity_sentences, c.max_comment_sentences) == (4, 20, 20)
    assert (c.batch_size, c.learning_rate) == (32, 0.001)
    assert g.max_sentences_per_description == 4
    assert g.max_sentences_per_comment == 2
    with pytest.raises(ValueError):
        model.HyperParams.profile("unknown")


def test_hyperparams_validate():
    import dataclasses
    hp = model.HyperParams()
    hp.validate()
    with pytest.raises(ValueError):
        dataclasses.replace(hp, hidden_size=0).validate()
    with pytest.raises(ValueError):
        dataclasses.replace(hp, learning_rate=-1.0).validate()


def test_gossipcop_profile_forward_shapes():
    # one forward at the published dimensions: h=100 means 8h=800 head input
    hp = model.HyperParams.profile("gossipcop")
    params = model.ModelParams.create(hp, seed=0)
    assert params.head_w1.shape == (200, 800)
    assert params.head_w2.shape == (2, 200)
    vocab = tiny_vocab()
    emb = tiny_embeddings(vocab, hp.embedding_dim)
    doc = tiny_documents()[0]
    sample = data.encode_document(doc, vocab, hp)
    assert sample.news_ids.shape == (40, 120)
    assert sample.entity_ids.shape == (100, 120)
    logits, attn = model.run_sample(sample, params, emb, hp)
    assert logits.shape == (2, 1)
    assert attn.entity.shape == (100,)
    assert abs(attn.news_entity.sum() - 1.0) <= 1e-10
