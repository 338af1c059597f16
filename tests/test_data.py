import json
from collections import Counter
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from dualcan import data, model

from conftest import random_document, tiny_hyperparams, tiny_vocab

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# sentence splitting and tokenization
# ---------------------------------------------------------------------------


def test_split_sentences_basic():
    assert data.split_sentences("A. B!") == ["A.", "B!"]
    assert data.split_sentences("") == []
    assert data.split_sentences("no terminal punctuation") == ["no terminal punctuation"]
    assert data.split_sentences("One?  Two.") == ["One?", "Two."]


def test_split_sentences_is_abbreviation_blind():
    # deliberately simple rule: any sentence punctuation before whitespace splits
    assert data.split_sentences("Dr. Smith spoke.") == ["Dr.", "Smith spoke."]


def test_split_sentences_fixture_paragraph():
    text = (FIXTURES / "paragraph.txt").read_text().strip()
    expected = json.loads((FIXTURES / "paragraph_sentences.json").read_text())
    assert data.split_sentences(text) == expected


def test_tokenize_basic():
    assert data.tokenize("It's FAKE!") == ["it", "'", "s", "fake", "!"]
    assert data.tokenize("") == []
    assert data.tokenize("  spaced   out  ") == ["spaced", "out"]


def test_tokenize_fixture_tweets():
    for case in json.loads((FIXTURES / "tweets.json").read_text()):
        assert data.tokenize(case["text"]) == case["tokens"], case["text"]


def test_sentences_to_tokens_drops_empty():
    assert data.sentences_to_tokens("Hello there. ") == [["hello", "there", "."]]
    assert data.sentences_to_tokens("") == []


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


def test_vocabulary_reserved_ids():
    vocab = data.Vocabulary()
    assert vocab.id_of(data.PAD_TOKEN) == 0
    assert vocab.id_of(data.OOV_TOKEN) == 1
    first = vocab.add("word")
    assert first == 2
    assert vocab.id_of("unseen") == data.OOV_ID


def test_vocabulary_round_trip():
    vocab = tiny_vocab()
    for token in vocab.tokens()[2:]:
        assert vocab.token_of(vocab.id_of(token)) == token


def test_vocabulary_build_covers_all_fields():
    doc = data.Document("x", [["a", "b"]], [["c"]], [("e", [["d"]])], 0)
    vocab = data.Vocabulary.build([doc])
    for token in ("a", "b", "c", "d"):
        assert vocab.id_of(token) > data.OOV_ID


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def test_load_embeddings_small_fixture(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("alpha 0.1 0.2 0.3\nbeta -1.0 0.0 2.5\n")
    vocab = data.Vocabulary()
    vocab.add("alpha")
    vocab.add("beta")
    vocab.add("missing")
    table = data.load_embeddings(path, vocab)
    assert table.dim == 3
    npt.assert_allclose(table.matrix[vocab.id_of("alpha")], [0.1, 0.2, 0.3])
    npt.assert_allclose(table.matrix[vocab.id_of("beta")], [-1.0, 0.0, 2.5])
    npt.assert_array_equal(table.matrix[vocab.id_of("missing")], [0.0, 0.0, 0.0])
    npt.assert_array_equal(table.matrix[data.PAD_ID], [0.0, 0.0, 0.0])
    npt.assert_array_equal(table.matrix[data.OOV_ID], [0.0, 0.0, 0.0])


def test_load_embeddings_dimension_mismatch_names_line(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("alpha 0.1 0.2 0.3\nbeta 1.0 2.0\n")
    vocab = data.Vocabulary()
    vocab.add("alpha")
    with pytest.raises(data.DatasetFormatError, match=":2"):
        data.load_embeddings(path, vocab)


def test_load_embeddings_empty_file_errors(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("")
    with pytest.raises(data.DatasetFormatError):
        data.load_embeddings(path, data.Vocabulary())


def test_load_embeddings_non_numeric_value(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("alpha 0.1 oops 0.3\n")
    vocab = data.Vocabulary()
    vocab.add("alpha")
    with pytest.raises(data.DatasetFormatError, match=":1"):
        data.load_embeddings(path, vocab)


def test_load_embeddings_checksums_against_alternate_parser(tmp_path, rng):
    # 100-line file read back by an independent split-and-accumulate parser
    path = tmp_path / "emb.txt"
    vocab = data.Vocabulary()
    lines = []
    for i in range(100):
        token = f"tok{i:03d}"
        vocab.add(token)
        vec = rng.uniform(-1, 1, 5)
        lines.append(token + " " + " ".join(f"{v:.8f}" for v in vec))
    path.write_text("\n".join(lines) + "\n")
    table = data.load_embeddings(path, vocab)

    alternate = {}
    for raw in path.read_text().splitlines():
        head, *rest = raw.split()
        alternate[head] = sum(float(r) for r in rest)
    for token, checksum in alternate.items():
        assert table.matrix[vocab.id_of(token)].sum() == pytest.approx(checksum, abs=1e-12)


@pytest.fixture(params=["one block", "blocks of 3"])
def embedding_block(request, monkeypatch):
    # the loader parses kept rows in blocks; small blocks must give the same
    # matrix and the same error lines (raising=False keeps these tests
    # meaningful for a loader without blocks)
    if request.param == "blocks of 3":
        monkeypatch.setattr(data, "_EMBEDDING_BLOCK", 3, raising=False)


def _float_parse(path, vocab: data.Vocabulary) -> np.ndarray:
    """Reference reader: every vocabulary row through float(), the last line
    of a token winning."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    matrix = np.zeros((len(vocab), len(lines[0].split(" ")) - 1))
    for line in lines:
        token, *values = line.split(" ")
        tid = vocab.id_of(token)
        if tid > data.OOV_ID:
            matrix[tid] = [float(v) for v in values]
    return matrix


def _write_lines(path, lines, newline="\n"):
    path.write_bytes("".join(line + newline for line in lines).encode("utf-8"))


def _vocab_of(tokens) -> data.Vocabulary:
    vocab = data.Vocabulary()
    for token in tokens:
        vocab.add(token)
    return vocab


def _full_precision_lines(rng, tokens, dim):
    # repr round-trips every bit; exponents reach +-300
    values = rng.standard_normal((len(tokens), dim)) * 10.0 ** rng.integers(-300, 301,
                                                                              (len(tokens), dim))
    return [token + " " + " ".join(repr(float(v)) for v in row)
            for token, row in zip(tokens, values)]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_load_embeddings_matches_float_parse(tmp_path, rng, embedding_block, newline):
    # vocabulary rows among rows the corpus never uses, and one token twice
    tokens = [f"{'v' if i % 3 else 'x'}{i}" for i in range(20)] + ["v1"]
    vocab = _vocab_of([t for t in tokens if t[0] == "v"] + ["absent"])
    path = tmp_path / "emb.txt"
    _write_lines(path, _full_precision_lines(rng, tokens, 6), newline)
    table = data.load_embeddings(path, vocab)
    assert table.dim == 6
    expected = _float_parse(path, vocab)
    npt.assert_array_equal(table.matrix, expected)
    later = [float(v) for v in path.read_text().splitlines()[-1].split(" ")[1:]]
    npt.assert_array_equal(table.matrix[vocab.id_of("v1")], later)
    npt.assert_array_equal(table.matrix[vocab.id_of("absent")], np.zeros(6))


@pytest.mark.parametrize("n_rows, dim", [(1, 5), (7, 1)], ids=["one-row", "d=1"])
def test_load_embeddings_matches_float_parse_small_shapes(tmp_path, rng, embedding_block,
                                                          n_rows, dim):
    tokens = [f"t{i}" for i in range(n_rows)]
    vocab = _vocab_of(tokens[::2])
    path = tmp_path / "emb.txt"
    _write_lines(path, _full_precision_lines(rng, tokens, dim))
    table = data.load_embeddings(path, vocab)
    assert table.dim == dim
    npt.assert_array_equal(table.matrix, _float_parse(path, vocab))


def test_load_embeddings_later_duplicate_line_wins(tmp_path, embedding_block):
    path = tmp_path / "emb.txt"
    _write_lines(path, ["a 1 2", "b 3 4", "a 5 6", "c 7 8", "a 9 10", "b 11 12"])
    vocab = _vocab_of(["a", "b", "c"])
    matrix = data.load_embeddings(path, vocab).matrix
    npt.assert_array_equal(matrix[2:], [[9, 10], [11, 12], [7, 8]])


def test_load_embeddings_bad_value_on_earlier_duplicate_still_raises(tmp_path,
                                                                      embedding_block):
    path = tmp_path / "emb.txt"
    _write_lines(path, ["a 1 2", "b 3 oops", "c 5 6", "b 7 8"])
    with pytest.raises(data.DatasetFormatError, match=r"emb\.txt:2: non-numeric value"):
        data.load_embeddings(path, _vocab_of(["a", "b"]))


def test_load_embeddings_ignores_non_numeric_row_outside_vocabulary(tmp_path,
                                                                     embedding_block):
    path = tmp_path / "emb.txt"
    _write_lines(path, ["a 1 2", "zz oops 0x1", "b 3 4"])
    matrix = data.load_embeddings(path, _vocab_of(["a", "b"])).matrix
    npt.assert_array_equal(matrix[2:], [[1, 2], [3, 4]])


def test_load_embeddings_width_mismatch_outside_vocabulary_names_line(tmp_path,
                                                                      embedding_block):
    path = tmp_path / "emb.txt"
    _write_lines(path, ["a 1 2", "b 3 4", "zz 1 2 3", "c 5 6"])
    with pytest.raises(data.DatasetFormatError,
                       match=r"emb\.txt:3: expected 2 values, found 3"):
        data.load_embeddings(path, _vocab_of(["a", "b", "c"]))


def test_load_embeddings_names_the_bad_line_not_the_first_kept_row(tmp_path,
                                                                   embedding_block):
    lines = [f"t{i} {i}.5 -{i}e-3" for i in range(1, 11)]
    lines[6] = "t7 1.0 1..0"
    path = tmp_path / "emb.txt"
    _write_lines(path, lines)
    with pytest.raises(data.DatasetFormatError, match=r"emb\.txt:7: non-numeric value$"):
        data.load_embeddings(path, _vocab_of(f"t{i}" for i in range(1, 11)))


@pytest.mark.parametrize("lines, message", [
    (["a 1 2", "b 3 x", "c 5 6", "d 7 8", "e 9"], "non-numeric value"),  # before a width error
    (["a 1 2", "b nan 2", "c x 2"], "non-finite value"),  # before a non-numeric value
], ids=["numeric-then-width", "finite-then-numeric"])
def test_load_embeddings_reports_the_first_bad_line_in_file_order(tmp_path, embedding_block,
                                                                  lines, message):
    path = tmp_path / "emb.txt"
    _write_lines(path, lines)
    with pytest.raises(data.DatasetFormatError, match=rf"emb\.txt:2: {message}"):
        data.load_embeddings(path, _vocab_of("abcde"))


@pytest.mark.parametrize("value", ["1_0", "0x10", "", "1,5"])
def test_load_embeddings_rejects_non_decimal_values(tmp_path, embedding_block, value):
    # underscores, hex, empty fields and commas are not decimals
    path = tmp_path / "emb.txt"
    _write_lines(path, ["a 1", "b 2", f"c {value}"])
    with pytest.raises(data.DatasetFormatError, match=r"emb\.txt:3: non-numeric value"):
        data.load_embeddings(path, _vocab_of("abc"))


@pytest.mark.parametrize("value", ["nan", "-inf", "INF", "1e999"])
def test_load_embeddings_rejects_non_finite_values(tmp_path, embedding_block, value):
    path = tmp_path / "emb.txt"
    _write_lines(path, ["a 1 2", "zz nan 0", "b 3 4", f"c 5 {value}", "d 6 7"])
    with pytest.raises(data.DatasetFormatError,
                       match=r"emb\.txt:4: non-finite value for token 'c'"):
        data.load_embeddings(path, _vocab_of("abcd"))


def test_load_embeddings_word2vec_header_fails_at_line_2(tmp_path):
    path = tmp_path / "emb.txt"
    _write_lines(path, ["2 3", "a 1 2 3", "b 4 5 6"])
    with pytest.raises(data.DatasetFormatError, match=r"emb\.txt:2: expected 1 values"):
        data.load_embeddings(path, _vocab_of("ab"))


# ---------------------------------------------------------------------------
# entity resolution
# ---------------------------------------------------------------------------


def test_snapshot_resolver_case_insensitive(tmp_path):
    path = tmp_path / "snap.jsonl"
    path.write_text(json.dumps({"name": "Acme Corp", "description": "Acme makes tools."}) + "\n")
    resolver = data.SnapshotResolver(path)
    assert resolver.lookup("acme corp") == "Acme makes tools."
    assert resolver.lookup("ACME  CORP") == "Acme makes tools."
    assert resolver.lookup("unknown") == ""


def test_snapshot_resolver_rejects_bad_records(tmp_path):
    path = tmp_path / "snap.jsonl"
    path.write_text('{"name": "x"}\n')
    with pytest.raises(data.DatasetFormatError):
        data.SnapshotResolver(path)


def snapshot(tmp_path, descriptions: dict):
    path = tmp_path / "snap.jsonl"
    path.write_text("".join(json.dumps({"name": name, "description": text}) + "\n"
                            for name, text in descriptions.items()))
    return data.SnapshotResolver(path)


def test_link_entities_gazetteer(tmp_path):
    resolver = snapshot(tmp_path, {"acme": "Acme is a brand.",
                                   "zeta corp": "Zeta makes widgets."})
    doc = data.Document("x", [["we", "saw", "zeta", "corp", "today"],
                              ["acme", "replied"]], [], [], 0)
    assert data.link_entities(doc, resolver) == ["zeta corp", "acme"]


def test_resolve_documents_fills_descriptions(tmp_path):
    resolver = snapshot(tmp_path, {"acme": "Acme is a brand. It sells tools."})
    doc = data.Document("x", [["acme", "said"]], [], [("acme", [])], 0)
    out = data.resolve_documents([doc], resolver)[0]
    assert out.entity_descriptions[0][1] == [["acme", "is", "a", "brand", "."],
                                             ["it", "sells", "tools", "."]]


def test_resolve_entities_caps_per_description():
    import dataclasses
    hp = dataclasses.replace(tiny_hyperparams(), max_entity_sentences=10)
    sentences = [[f"s{i}"] for i in range(6)]
    doc = data.Document("x", [["a"]], [], [("e", sentences)], 0)
    out = data.resolve_entities(doc, hp)
    # six available but only the first four sentences of a description count
    assert out == sentences[:4]


def test_resolve_entities_overall_cap_dominates():
    hp = tiny_hyperparams()  # entity budget of 2
    sentences = [[f"s{i}"] for i in range(6)]
    doc = data.Document("x", [["a"]], [], [("e", sentences)], 0)
    assert data.resolve_entities(doc, hp) == sentences[:2]


def test_resolve_entities_overall_cap_preserves_order():
    import dataclasses
    hp = dataclasses.replace(tiny_hyperparams(), max_entity_sentences=100)
    entities = []
    for e in range(30):
        entities.append((f"e{e}", [[f"e{e}s{i}"] for i in range(4)]))
    doc = data.Document("x", [["a"]], [], entities, 0)
    out = data.resolve_entities(doc, hp)
    assert len(out) == 100
    assert out[0] == ["e0s0"]
    assert out[99] == ["e24s3"]


def test_resolve_entities_empty():
    hp = tiny_hyperparams()
    doc = data.Document("x", [["a"]], [], [], 0)
    assert data.resolve_entities(doc, hp) == []


# ---------------------------------------------------------------------------
# dataset reading
# ---------------------------------------------------------------------------


def good_record(i=0):
    return {"id": f"doc{i}", "label": i % 2, "news": "Something happened. More soon.",
            "comments": ["First reply.", "Second reply. With two sentences. And a third."],
            "entities": [{"name": "acme", "description": "Acme is a brand."}]}


def test_parse_document_well_formed():
    doc = data.parse_document(good_record())
    assert doc.doc_id == "doc0"
    assert doc.label == 0
    assert doc.news_sentences[0] == ["something", "happened", "."]
    # the second comment is capped at two sentences before flattening
    assert len(doc.comment_sentences) == 3
    assert doc.entity_descriptions[0][0] == "acme"


def test_parse_document_missing_field():
    record = good_record()
    del record["comments"]
    with pytest.raises(data.DatasetFormatError, match="comments"):
        data.parse_document(record)


def test_parse_document_bad_label():
    record = good_record()
    record["label"] = 2
    with pytest.raises(data.DatasetFormatError):
        data.parse_document(record)


def test_parse_document_no_news():
    record = good_record()
    record["news"] = ""
    with pytest.raises(data.DegenerateInputError):
        data.parse_document(record)


def test_read_dataset_empty_file(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("")
    docs, warnings = data.read_dataset(path)
    assert docs == [] and warnings == []


def test_read_dataset_single_line(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(good_record()) + "\n")
    docs, warnings = data.read_dataset(path)
    assert len(docs) == 1 and not warnings
    assert docs[0].doc_id == "doc0"


def test_read_dataset_lenient_skips_malformed(tmp_path):
    lines = [json.dumps(good_record(i)) for i in range(10)]
    lines[4] = '{"id": "broken"'
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n")
    docs, warnings = data.read_dataset(path)
    assert len(docs) == 9
    assert len(warnings) == 1 and ":5:" in warnings[0]


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _padding_oracle(sentences, vocab, slots, max_words):
    """Second, independent padding implementation built from plain lists."""
    ids, word_mask, sent_mask = [], [], []
    for i in range(slots):
        if i < len(sentences) and sentences[i]:
            toks = sentences[i][:max_words]
            row = [vocab.id_of(t) for t in toks] + [0] * (max_words - len(toks))
            mask_row = [True] * len(toks) + [False] * (max_words - len(toks))
            sent_mask.append(True)
        else:
            row = [0] * max_words
            mask_row = [False] * max_words
            sent_mask.append(False)
        ids.append(row)
        word_mask.append(mask_row)
    return np.array(ids), np.array(word_mask), np.array(sent_mask)


def test_encode_document_matches_padding_oracle():
    hp = tiny_hyperparams()
    vocab = tiny_vocab()
    doc = data.Document(
        "x",
        news_sentences=[["alpha", "beta", "gamma", "delta"], ["eps"], ["zeta"]],
        comment_sentences=[["eta", "theta"]],
        entity_descriptions=[("acme", [["iota"], ["kappa"], ["alpha"], ["beta"], ["gamma"]])],
        label=1)
    sample = data.encode_document(doc, vocab, hp)
    ids, wm, sm = _padding_oracle(doc.news_sentences, vocab, hp.max_news_sentences, hp.max_words)
    npt.assert_array_equal(sample.news_ids, ids)
    npt.assert_array_equal(sample.news_word_mask, wm)
    npt.assert_array_equal(sample.news_sent_mask, sm)
    ent = data.resolve_entities(doc, hp)
    ids, wm, sm = _padding_oracle(ent, vocab, hp.max_entity_sentences, hp.max_words)
    npt.assert_array_equal(sample.entity_ids, ids)
    ids, wm, sm = _padding_oracle(doc.comment_sentences, vocab,
                                  hp.max_comment_sentences, hp.max_words)
    npt.assert_array_equal(sample.comment_ids, ids)
    npt.assert_array_equal(sample.comment_word_mask, wm)


def test_encode_document_long_sentence_truncated():
    import dataclasses
    hp = dataclasses.replace(tiny_hyperparams(), max_words=120)
    vocab = data.Vocabulary()
    tokens = [f"w{i}" for i in range(125)]
    for t in tokens:
        vocab.add(t)
    doc = data.Document("x", [tokens], [], [], 0)
    sample = data.encode_document(doc, vocab, hp)
    assert sample.news_word_mask[0].sum() == 120
    npt.assert_array_equal(sample.news_ids[0], [vocab.id_of(t) for t in tokens[:120]])


def test_encode_document_empty_comments():
    hp = tiny_hyperparams()
    vocab = tiny_vocab()
    doc = data.Document("x", [["alpha"]], [], [], 0)
    sample = data.encode_document(doc, vocab, hp)
    assert (sample.comment_ids == 0).all()
    assert not sample.comment_word_mask.any()
    assert not sample.comment_sent_mask.any()


def test_encode_document_rejects_empty_news():
    hp = tiny_hyperparams()
    with pytest.raises(data.DegenerateInputError):
        data.encode_document(data.Document("x", [], [], [], 0), tiny_vocab(), hp)


def test_encode_document_idempotent_and_ids_valid(rng):
    hp = tiny_hyperparams()
    vocab = tiny_vocab()
    tokens = vocab.tokens()
    for i in range(20):
        doc = random_document(rng, f"r{i}", tokens)
        sample = data.encode_document(doc, vocab, hp)
        for ids, mask in ((sample.news_ids, sample.news_word_mask),
                          (sample.entity_ids, sample.entity_word_mask),
                          (sample.comment_ids, sample.comment_word_mask)):
            assert ids.min() >= 0 and ids.max() < len(vocab)
            assert (ids[~mask] == 0).all()
        # re-encode the already-truncated document: identical arrays
        truncated = data.Document(
            doc.doc_id,
            [s[:hp.max_words] for s in doc.news_sentences[:hp.max_news_sentences]],
            [s[:hp.max_words] for s in doc.comment_sentences[:hp.max_comment_sentences]],
            [(n, [s[:hp.max_words] for s in sents[:hp.max_sentences_per_description]])
             for n, sents in doc.entity_descriptions],
            doc.label)
        again = data.encode_document(truncated, vocab, hp)
        npt.assert_array_equal(sample.news_ids, again.news_ids)
        npt.assert_array_equal(sample.entity_ids, again.entity_ids)
        npt.assert_array_equal(sample.comment_ids, again.comment_ids)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_split_dataset_stratified_and_deterministic():
    docs = []
    for i in range(100):
        docs.append(data.Document(f"d{i}", [["a"]], [], [], 1 if i < 40 else 0))
    train, val, test = data.split_dataset(docs, seed=5)
    assert len(train) == 70 and len(val) == 10 and len(test) == 20
    assert sum(d.label for d in train) == 28
    assert sum(d.label for d in val) == 4
    assert sum(d.label for d in test) == 8
    train2, val2, test2 = data.split_dataset(docs, seed=5)
    assert [d.doc_id for d in train] == [d.doc_id for d in train2]
    assert [d.doc_id for d in test] == [d.doc_id for d in test2]
    overlap = {d.doc_id for d in train} & {d.doc_id for d in test}
    assert not overlap


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def test_gen_synthetic_exact_balance(tmp_path):
    spec = data.SyntheticSpec(size=200, balance=0.5, seed=3)
    paths = data.gen_synthetic(spec, tmp_path / "set")
    docs, warnings = data.read_dataset(paths["dataset"])
    assert not warnings
    labels = [d.label for d in docs]
    assert sum(labels) == 100 and len(labels) == 200


def test_gen_synthetic_byte_identical_under_seed(tmp_path):
    spec = data.SyntheticSpec(size=40, balance=0.4, seed=9)
    paths_a = data.gen_synthetic(spec, tmp_path / "a")
    paths_b = data.gen_synthetic(data.SyntheticSpec(size=40, balance=0.4, seed=9),
                                 tmp_path / "b")
    for key in ("dataset", "entities", "embeddings", "meta"):
        assert Path(paths_a[key]).read_bytes() == Path(paths_b[key]).read_bytes()


def test_gen_synthetic_validates_spec():
    with pytest.raises(ValueError):
        data.SyntheticSpec(size=0).validate()
    with pytest.raises(ValueError):
        data.SyntheticSpec(signal=("bogus",)).validate()


def _bow_accuracy(train_docs, test_docs, text_of):
    """Multinomial naive Bayes on token counts, Laplace smoothing."""
    counts = {0: Counter(), 1: Counter()}
    class_docs = Counter()
    for doc in train_docs:
        class_docs[doc.label] += 1
        counts[doc.label].update(text_of(doc))
    vocab = set(counts[0]) | set(counts[1])
    totals = {c: sum(counts[c].values()) for c in (0, 1)}
    correct = 0
    for doc in test_docs:
        scores = {}
        for c in (0, 1):
            score = np.log(class_docs[c] / sum(class_docs.values()))
            for token in text_of(doc):
                p = (counts[c][token] + 1) / (totals[c] + len(vocab))
                score += np.log(p)
            scores[c] = score
        pred = 1 if scores[1] > scores[0] else 0
        correct += pred == doc.label
    return correct / len(test_docs)


def test_gen_synthetic_entity_only_cue_placement(tmp_path):
    spec = data.SyntheticSpec(size=300, balance=0.5, signal=("entities",), seed=13)
    paths = data.gen_synthetic(spec, tmp_path / "ent")
    docs, _ = data.read_dataset(paths["dataset"])
    resolver = data.SnapshotResolver(paths["entities"])
    docs = data.resolve_documents(docs, resolver)
    train, _, test = data.split_dataset(docs, seed=13)

    def news_text(doc):
        return [t for s in doc.news_sentences for t in s]

    def entity_text(doc):
        return [t for _, sents in doc.entity_descriptions for s in sents for t in s]

    news_acc = _bow_accuracy(train, test, news_text)
    assert news_acc <= 0.6, f"news text alone should be uninformative, got {news_acc}"

    # the cue tokens in the entity text decide the label exactly
    for doc in test:
        tokens = set(entity_text(doc))
        has_fake = data.FAKE_ENTITY_CUE in tokens
        has_real = data.REAL_ENTITY_CUE in tokens
        assert has_fake == (doc.label == 1)
        assert has_real == (doc.label == 0)
    # and the planted sentence is the first entity-description sentence
    for doc in test:
        first_sentence = doc.entity_descriptions[0][1][0]
        assert (data.FAKE_ENTITY_CUE in first_sentence) or (data.REAL_ENTITY_CUE in first_sentence)


def test_gen_synthetic_entity_slots_filled(tmp_path):
    spec = data.SyntheticSpec(size=20, balance=0.5, signal=("entities",), seed=2,
                              entity_slots=8)
    paths = data.gen_synthetic(spec, tmp_path / "slots")
    docs, _ = data.read_dataset(paths["dataset"])
    resolver = data.SnapshotResolver(paths["entities"])
    docs = data.resolve_documents(docs, resolver)
    hp = model.HyperParams(max_entity_sentences=8, max_words=20)
    for doc in docs:
        assert len(data.resolve_entities(doc, hp)) == 8


def test_gen_synthetic_comment_cue_is_late(tmp_path):
    spec = data.SyntheticSpec(size=30, balance=0.5, signal=("comments",), seed=4)
    paths = data.gen_synthetic(spec, tmp_path / "late")
    with open(paths["dataset"]) as fh:
        for line in fh:
            record = json.loads(line)
            cue = data.FAKE_COMMENT_CUE if record["label"] == 1 else data.REAL_COMMENT_CUE
            hits = [i for i, c in enumerate(record["comments"]) if cue in c.split()]
            assert hits, record["id"]
            assert hits[0] >= len(record["comments"]) // 2
