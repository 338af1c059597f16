"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Trained-model criteria use small fixed-seed corpora,
so every outcome here is deterministic.
"""

import json
import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from dualcan import autodiff as ad
from dualcan import cli, data, layers, metrics, model

from conftest import (
    PadNoiseEmbeddings,
    random_document,
    tiny_documents,
    tiny_embeddings,
    tiny_hyperparams,
    tiny_vocab,
)
from oracles import (
    average_precision_loops,
    co_attention_loops,
    coattn_params_arrays,
    word_attention_loops,
)
from tape_ops import concat, grad_check, mean_all


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def tiny():
    hp = tiny_hyperparams()
    params = model.ModelParams.create(hp)
    vocab = tiny_vocab()
    emb = tiny_embeddings(vocab, hp.embedding_dim)
    samples = [data.encode_document(d, vocab, hp) for d in tiny_documents()]
    return hp, params, vocab, emb, samples


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("mixed")
    assert cli.main(["synth", "--out", str(out), "--size", "200", "--seed", "11"]) == 0
    return out


@pytest.fixture(scope="module")
def entity_corpus_run(tmp_path_factory):
    """Entity-signal corpus trained end to end through the command line."""
    out = tmp_path_factory.mktemp("entity")
    assert cli.main(["synth", "--out", str(out), "--size", "120", "--seed", "0",
                     "--signal", "entities"]) == 0
    run_dir = out / "run"
    assert cli.main(["train", "--config", str(out / "config.cfg"),
                     "--out", str(run_dir)]) == 0
    return out, run_dir


def _train_in_process(corpus_dir, seed):
    config_path = corpus_dir / "config.cfg"
    parser = cli.build_parser()
    args = parser.parse_args(["train", "--config", str(config_path)])
    config = cli.build_run_config(args)
    import dataclasses
    config.hp = dataclasses.replace(config.hp, seed=seed)
    config.split_seed = seed
    prepared = cli.prepare_data(config, config.hp)
    params = model.ModelParams.create(config.hp)
    result = model.train(prepared.train, prepared.val, config.hp, params,
                         prepared.embeddings)
    return config.hp, result, prepared


# ---------------------------------------------------------------------------
# 1. gradient integrity
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_integrity(tiny):
    hp, params, vocab, emb, samples = tiny
    started = time.monotonic()

    def f():
        losses = [model.cross_entropy(model.run_sample(s, params, emb, hp)[0], s.label)
                  for s in samples]
        return mean_all(concat(losses, axis=1))

    report = grad_check(f, params.named(), h=1e-5)
    elapsed = time.monotonic() - started
    assert report.passed(1e-4), report.summary()
    assert elapsed < 60.0
    coords = sum(t.size for t in params.named().values())
    _report(1, f"grad check over {coords} coordinates, max rel err "
               f"{report.max_rel_err:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(2024)
    started = time.monotonic()
    worst = 0.0
    for _ in range(100):
        h = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        p = layers.WordAttentionParams.create(h, rng)
        v = rng.uniform(-2, 2, (2 * h, m))
        mask = rng.uniform(size=m) < 0.75
        if not mask.any():
            mask[int(rng.integers(0, m))] = True
        pooled, weights = layers.word_attention(ad.Tensor(v), mask.reshape(1, -1), p)
        exp_pooled, exp_alpha = word_attention_loops(
            v, list(mask), p.proj.data, p.bias.data.reshape(-1), p.context.data)
        worst = max(worst,
                    float(np.abs(weights[0] - exp_alpha).max()),
                    float(np.abs(pooled.data[:, 0] - exp_pooled).max()))
    for _ in range(100):
        h = int(rng.integers(1, 3))
        n = int(rng.integers(1, 5))
        e = int(rng.integers(1, 5))
        p = layers.CoAttentionParams.create(h, rng)
        s = rng.uniform(-2, 2, (2 * h, n))
        d = rng.uniform(-2, 2, (2 * h, e))
        mask_s = rng.uniform(size=n) < 0.75
        mask_d = rng.uniform(size=e) < 0.75
        if not mask_s.any():
            mask_s[0] = True
        if not mask_d.any():
            mask_d[0] = True
        out = layers.co_attention(ad.Tensor(s), ad.Tensor(d), mask_s.reshape(1, -1),
                                  mask_d.reshape(1, -1), p)
        exp = co_attention_loops(s, d, list(mask_s), list(mask_d),
                                 *coattn_params_arrays(p))
        worst = max(
            worst,
            float(np.abs(out.affinity[0] - exp[0]).max()),
            float(np.abs(out.attn_primary[0] - exp[3]).max()),
            float(np.abs(out.attn_secondary[0] - exp[4]).max()),
            float(np.abs(out.pooled.data[:2 * h, 0] - exp[5]).max()),
            float(np.abs(out.pooled.data[2 * h:, 0] - exp[6]).max()),
        )
    elapsed = time.monotonic() - started
    assert worst <= 1e-12
    assert elapsed < 10.0
    _report(2, f"100 word-attention + 100 co-attention instances, "
               f"max abs diff {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. normalization
# ---------------------------------------------------------------------------


def test_criterion_03_attention_normalization(tiny):
    hp, params, vocab, emb, _ = tiny
    rng = np.random.default_rng(33)
    tokens = vocab.tokens()
    samples = [data.encode_document(random_document(rng, f"n{i}", tokens), vocab, hp)
               for i in range(1000)]
    reports = []
    for start in range(0, len(samples), 50):
        encoded = model.encode_samples(samples[start:start + 50], params, emb, hp)
        reports += model.forward(encoded, params)[1]
    checked = 0
    for attn in reports:
        for weights, mask in ((attn.news_entity, attn.news_mask),
                              (attn.entity, attn.entity_mask),
                              (attn.news_comment, attn.news_mask),
                              (attn.comment, attn.comment_mask)):
            if mask.any():
                assert abs(weights[mask].sum() - 1.0) <= 1e-10
                assert (weights[~mask] == 0.0).all()
            else:
                # padding fallback: uniform over every slot
                assert abs(weights.sum() - 1.0) <= 1e-10
            checked += 1
    _report(3, f"{checked} attention vectors across 1000 random forwards")


# ---------------------------------------------------------------------------
# 4. inertness
# ---------------------------------------------------------------------------


def test_criterion_04_padding_inertness(tiny):
    hp, params, vocab, emb, _ = tiny
    rng = np.random.default_rng(44)
    noisy = PadNoiseEmbeddings(emb, rng)
    tokens = vocab.tokens()
    for i in range(100):
        doc = random_document(rng, f"p{i}", tokens)
        sample = data.encode_document(doc, vocab, hp)
        base, _ = model.run_sample(sample, params, emb, hp)
        # samples store no pad cells; the batch id matrix has them
        out, _ = model.run_sample(sample, params, noisy, hp)
        npt.assert_array_equal(out.data, base.data)
    assert noisy.noised > 0
    _report(4, f"100 random samples, noise at {noisy.noised} padded word cells changes "
               f"logits by exactly 0")


# ---------------------------------------------------------------------------
# 5. permutation equivariance
# ---------------------------------------------------------------------------


def test_criterion_05_entity_permutation(tiny):
    hp, params, vocab, emb, _ = tiny
    rng = np.random.default_rng(55)
    tokens = vocab.tokens()
    worst = 0.0
    for i in range(100):
        doc = random_document(rng, f"e{i}", tokens, max_entity=2)
        if not doc.entity_descriptions or len(doc.entity_descriptions[0][1]) < 2:
            doc = data.Document(doc.doc_id, doc.news_sentences, doc.comment_sentences,
                                [("acme", [["alpha", "beta"], ["gamma"]])], doc.label)
        name, sents = doc.entity_descriptions[0]
        order = rng.permutation(len(sents))
        shuffled = data.Document(doc.doc_id, doc.news_sentences, doc.comment_sentences,
                                 [(name, [sents[j] for j in order])], doc.label)
        la, _ = model.run_sample(data.encode_document(doc, vocab, hp), params, emb, hp)
        lb, _ = model.run_sample(data.encode_document(shuffled, vocab, hp), params, emb, hp)
        worst = max(worst, float(np.abs(la.data - lb.data).max()))
    assert worst <= 1e-12
    _report(5, f"100 shuffles, max logit drift {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. overfit
# ---------------------------------------------------------------------------


def test_criterion_06_overfit_toy_set(mixed_corpus):
    started = time.monotonic()
    parser = cli.build_parser()
    args = parser.parse_args(["train", "--config", str(mixed_corpus / "config.cfg")])
    config = cli.build_run_config(args)
    prepared = cli.prepare_data(config, config.hp)
    toy = prepared.train[:8]
    params = model.ModelParams.create(config.hp)
    state = model.AdamState.create(params)
    final = math.inf
    steps = 0
    for step in range(500):
        params.zero_grads()
        graph = ad.Graph()
        with graph:
            encoded = model.encode_samples(toy, params, prepared.embeddings, config.hp)
            loss = model.cross_entropy(model.forward(encoded, params)[0], encoded.labels)
        graph.backward(loss)
        model.clip_gradients(params, model.GRAD_CLIP_NORM)
        model.adam_step(params, state, 0.001)
        final = loss.item()
        steps = step + 1
        if final < 0.01:
            break
    elapsed = time.monotonic() - started
    assert final < 0.01, f"loss {final} after {steps} steps"
    assert elapsed < 120.0
    _report(6, f"training loss {final:.4f} after {steps} Adam steps (lr 0.001), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. synthetic end-to-end
# ---------------------------------------------------------------------------


def test_criterion_07_synthetic_end_to_end(mixed_corpus, tmp_path):
    started = time.monotonic()
    run_dir = tmp_path / "run"
    code = cli.main(["train", "--config", str(mixed_corpus / "config.cfg"),
                     "--out", str(run_dir)])
    elapsed = time.monotonic() - started
    assert code == 0
    report = json.loads((run_dir / "metrics.json").read_text())
    epochs = (run_dir / "epochs.csv").read_text().strip().splitlines()
    assert report["accuracy"] >= 0.95
    assert len(epochs) - 1 <= 30
    assert elapsed < 300.0
    _report(7, f"held-out accuracy {report['accuracy']:.3f} after "
               f"{len(epochs) - 1} epochs, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. ablation trend
# ---------------------------------------------------------------------------


def test_criterion_08_ablation_trend(tmp_path_factory):
    gaps = []
    for signal, keep_mode, drop_mode in (("entities", "N+C+E", "N+C"),
                                         ("comments", "N+C", "N+E")):
        for seed in (0, 1, 2):
            out = tmp_path_factory.mktemp(f"abl_{signal}_{seed}")
            assert cli.main(["synth", "--out", str(out), "--size", "120",
                             "--seed", str(seed), "--signal", signal]) == 0
            hp, result, prepared = _train_in_process(out, seed)
            keep = model.evaluate(prepared.test, result.params, prepared.embeddings,
                                  hp, keep_mode)
            drop = model.evaluate(prepared.test, result.params, prepared.embeddings,
                                  hp, drop_mode)
            gap = keep["accuracy"] - drop["accuracy"]
            gaps.append((signal, seed, keep["accuracy"], drop["accuracy"], gap))
            assert gap >= 0.10, (signal, seed, keep["accuracy"], drop["accuracy"])
    detail = "; ".join(f"{s} seed{i}: {k:.2f} vs {d:.2f}" for s, i, k, d, _ in gaps)
    _report(8, detail)


# ---------------------------------------------------------------------------
# 9. metrics oracle
# ---------------------------------------------------------------------------


def test_criterion_09_metrics_oracle():
    preds = [1, 0, 1, 1, 0, 0, 1, 0, 1, 0]
    labels = [1, 0, 0, 1, 1, 0, 1, 1, 0, 0]
    c = metrics.confusion(preds, labels)
    assert (c.tp, c.fp, c.tn, c.fn) == (3, 2, 3, 2)
    assert metrics.metrics_report(preds, labels)["accuracy"] == 6 / 10
    p, r, f1 = metrics.prf(c)
    assert p == 3 / 5 and r == 3 / 5
    assert f1 == 2 * (3 / 5) * (3 / 5) / ((3 / 5) + (3 / 5))
    p1, r1, f11 = metrics.prf(metrics.Confusion(1, 1, 0, 0))
    assert (p1, r1) == (0.5, 1.0) and f11 == pytest.approx(2 / 3, abs=1e-15)

    scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.2]
    ap_labels = [1, 0, 1, 1, 0, 0]
    ap = metrics.pr_auc(scores, ap_labels)
    assert abs(ap - 29 / 36) <= 1e-12
    assert abs(ap - average_precision_loops(scores, ap_labels)) <= 1e-12
    assert metrics.pr_auc([0.9, 0.1], [1, 0]) == 1.0
    assert metrics.pr_auc([0.9, 0.8, 0.1], [0, 0, 1]) == pytest.approx(1 / 3, abs=1e-12)
    _report(9, "confusion, accuracy, P/R/F1 exact; PR-AUC within 1e-12 of enumeration")


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------


def test_criterion_10_training_determinism(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("det")
    assert cli.main(["synth", "--out", str(corpus), "--size", "60", "--seed", "21"]) == 0
    checkpoints = []
    for name in ("first", "second"):
        run_dir = corpus / name
        code = cli.main(["train", "--config", str(corpus / "config.cfg"),
                         "--out", str(run_dir), "--set", "hp.max_epochs=4"])
        assert code == 0
        checkpoints.append((run_dir / "checkpoint.bin").read_bytes())
    assert checkpoints[0] == checkpoints[1]
    _report(10, f"two cmd_train runs, identical {len(checkpoints[0])}-byte checkpoints")


# ---------------------------------------------------------------------------
# 11. interpretability artifact
# ---------------------------------------------------------------------------


def test_criterion_11_entity_attention_concentration(entity_corpus_run, tmp_path):
    corpus, run_dir = entity_corpus_run
    explain_dir = tmp_path / "explain"
    code = cli.main(["explain", "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--config", str(corpus / "config.cfg"),
                     "--split", "test", "--out", str(explain_dir)])
    assert code == 0
    report = json.loads((explain_dir / "attention_report.json").read_text())
    samples = report["samples"]
    assert samples
    slots = len(samples[0]["attention"]["entity"])
    uniform = 1.0 / slots
    # the planted definition sentence is the first entity-description slot
    above = sum(1 for e in samples if e["attention"]["entity"][0] > uniform)
    fraction = above / len(samples)
    assert fraction >= 0.80, f"only {above}/{len(samples)} above uniform"
    for family in ("news_entity", "entity", "news_comment", "comment"):
        assert (explain_dir / f"attention_{family}.svg").exists()
    _report(11, f"planted sentence above 1/{slots} in {above}/{len(samples)} test samples")
