"""Corpus ingestion and the synthetic corpus generator.

The on-disk dataset is line-delimited JSON, one document per line:

    {"id": "...", "label": 0 or 1, "news": "text...",
     "comments": ["reply text", ...],                      # chronological
     "entities": [{"name": "...", "description": "..."}]}  # description may be ""

Empty descriptions are filled from an entity snapshot file (same JSONL
shape, ``{"name": ..., "description": ...}``) through a resolver. Label 1
marks fake.

:func:`encode_document` stores the int32 ids of a document's real tokens and
one int32 length per sentence slot; the model pads per batch. Run artifacts
are written through :func:`atomic_write`.
"""

from __future__ import annotations

import json
import os
import re
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, repeat

import numpy as np


class DatasetFormatError(ValueError):
    """A dataset or snapshot file violates its schema."""


class DegenerateInputError(ValueError):
    """A document has no usable content where some is required."""


def read_lines(path):
    """Yield ``(line number, line)`` per line of a UTF-8 text file; a leading BOM is dropped.

    The file is decoded in chunks with bad bytes escaped, and only a line
    that is not ASCII is checked, so an ASCII line costs one flag test. A
    byte that is not UTF-8 raises a DatasetFormatError naming ``path:line``,
    and a bad byte on an earlier line is the one reported. A file that cannot
    be opened raises a DatasetFormatError naming ``path``.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", errors="surrogateescape")
    except OSError as e:
        raise DatasetFormatError(f"{path}: cannot read: {e.strerror or e}") from e
    with fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as e:
                    byte = ord(line[e.start]) - 0xDC00  # surrogateescape's mapping
                    raise DatasetFormatError(
                        f"{path}:{line_no}: not UTF-8, can't decode byte 0x{byte:02x} "
                        f"at column {e.start + 1}") from None
            yield line_no, line


@contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Write a temporary file beside ``path`` that replaces it when the block
    ends; if the block raises, it is removed and ``path`` is left as it was."""
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(temporary, mode, **kwargs)
    try:
        with fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        os.remove(temporary)
        raise


def write_json(path, payload) -> None:
    """``payload`` as JSON indented by 2 with sorted keys, written atomically."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


PAD_ID = 0
OOV_ID = 1
PAD_TOKEN = "<pad>"
OOV_TOKEN = "<oov>"

_SENTENCE_BOUNDARY = re.compile(r"(?<=[.!?])(?:\s+|$)")
_TOKEN = re.compile(r"[a-z0-9]+|[^a-z0-9\s]")


def split_sentences(text: str) -> list[str]:
    """Split on '.', '!' or '?' followed by whitespace or end of text.

    Deliberately abbreviation-blind; empty segments are dropped.
    """
    parts = _SENTENCE_BOUNDARY.split(text)
    return [p.strip() for p in parts if p.strip()]


def tokenize(sentence: str) -> list[str]:
    """Lowercase, split punctuation into separate tokens, collapse whitespace.

    The tokens are interned, so every occurrence of a token across the
    documents, the resolved descriptions and the vocabulary's keys is one
    ``str``: a corpus holds a pointer per occurrence instead of a string,
    and a dict lookup of a token matches by identity. On Python 3.10, 3.11
    and from 3.13 on an interned string is freed with its last reference; on
    3.12 interning makes a string immortal, so each distinct token lives
    until the interpreter exits.
    """
    return list(map(sys.intern, _TOKEN.findall(sentence.lower())))


def sentences_to_tokens(text: str) -> list[list[str]]:
    out = []
    for s in split_sentences(text):
        toks = tokenize(s)
        if toks:
            out.append(toks)
    return out


@dataclass
class Document:
    """One labeled sample, already sentence-split and tokenized; ``line`` is
    its line in the dataset file (0 when it was not read from one)."""

    doc_id: str
    news_sentences: list  # list of token lists
    comment_sentences: list  # list of token lists, chronological
    entity_descriptions: list  # list of (name, list of token lists)
    label: int
    line: int = field(default=0, compare=False)

    def all_tokens(self):
        """Every token: the news, then the comments, then each entity's description."""
        return chain.from_iterable(chain(
            self.news_sentences, self.comment_sentences,
            *(sents for _, sents in self.entity_descriptions)))


class Vocabulary:
    """token -> id map in insertion order; ids 0 and 1 are padding and unknowns."""

    def __init__(self):
        self._ids = {PAD_TOKEN: PAD_ID, OOV_TOKEN: OOV_ID}

    def __len__(self):
        return len(self._ids)

    def add(self, token: str) -> int:
        return self._ids.setdefault(token, len(self._ids))

    def id_of(self, token: str) -> int:
        return self._ids.get(token, OOV_ID)

    def ids_of(self, tokens: list) -> np.ndarray:
        return np.fromiter(map(self._ids.get, tokens, repeat(OOV_ID)), np.int32)

    def token_of(self, tid: int) -> str:
        return self.tokens()[tid]

    def tokens(self) -> list[str]:
        return list(self._ids)

    @staticmethod
    def build(documents) -> "Vocabulary":
        """Every token of the documents in first-seen order, collected in one
        C-level pass."""
        vocab = Vocabulary()
        tokens = dict.fromkeys(chain(vocab._ids, chain.from_iterable(
            map(Document.all_tokens, documents))))
        vocab._ids = dict(zip(tokens, range(len(tokens))))
        return vocab


@dataclass
class EmbeddingTable:
    """Frozen word vectors; rows 0 (pad) and 1 (oov) are zero."""

    matrix: np.ndarray  # [|V| x d]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        return self.matrix[ids]


# kept rows parsed per np.loadtxt call: bounds the value text held at once
_EMBEDDING_BLOCK = 1 << 12


def load_embeddings(path, vocab: Vocabulary) -> EmbeddingTable:
    """Read a text embedding file: a token, then its values, one line each.

    Values are separated by single spaces. Line 1 sets the width d, and every
    line must have d values. Only the rows of vocabulary tokens are parsed;
    their values must be finite decimals (``nan``, ``inf`` and underscores as
    in ``1_0`` fail). When a token appears twice, the later line wins. There
    is no header line, so a word2vec ``count dim`` first line fails at line 2,
    and the message says that line 1 looks like such a header. A space after
    a line's last value fails too, and the message names it. Each of these
    errors is a DatasetFormatError naming ``path:line``, and the first bad
    line in file order is the one reported. Vocabulary tokens absent from the
    file keep zero vectors.

    The file is streamed. Each line is split once at its first space, and
    the value text of vocabulary rows is parsed in blocks of
    ``_EMBEDDING_BLOCK`` rows.
    """
    dim = None
    matrix = None
    block = []  # (line number, vocabulary id, value text) not parsed yet
    header = False  # line 1 reads like word2vec's "count dim"
    id_of = vocab.id_of
    for line_no, line in read_lines(path):
        token, sep, values = line.partition(" ")  # loadtxt takes the "\n"
        width = values.count(" ") + 1
        if dim is None and sep:
            dim = width
            matrix = np.zeros((len(vocab), dim))
            header = token.isdecimal() and values.strip().isdecimal()
        if not sep or width != dim:
            _parse_block(path, block, matrix, vocab)  # an earlier bad line reports first
            if not sep:
                raise DatasetFormatError(f"{path}:{line_no}: embedding line has no values")
            problem = f"expected {dim} values, found {width}{_trailing_space(values)}"
            if header:
                problem += "; line 1 looks like a word2vec 'count dim' header (drop that line)"
            raise DatasetFormatError(f"{path}:{line_no}: {problem}")
        tid = id_of(token)
        if tid > OOV_ID:
            block.append((line_no, tid, values))
            if len(block) == _EMBEDDING_BLOCK:
                _parse_block(path, block, matrix, vocab)
                block = []
    if dim is None:
        raise DatasetFormatError(f"{path}: empty embedding file")
    _parse_block(path, block, matrix, vocab)
    return EmbeddingTable(matrix)


def _parse_rows(texts: list, dim: int) -> np.ndarray:
    """[len(texts) x dim] float64 values; ValueError on any malformed text."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns when every text is blank
        rows = np.loadtxt(texts, dtype=np.float64, delimiter=" ", ndmin=2, comments=None)
    if rows.shape != (len(texts), dim):
        raise ValueError("loadtxt skips a blank text")
    return rows


def _parse_block(path, block: list, matrix: np.ndarray, vocab: Vocabulary) -> None:
    """Parse kept rows into ``matrix`` by id; of two lines of one token the
    later wins."""
    if not block:
        return
    try:
        rows = _parse_rows([text for _, _, text in block], matrix.shape[1])
        good = bool(np.isfinite(rows).all())
    except ValueError:
        good = False
    if not good:
        raise _first_bad_row(path, block, matrix.shape[1], vocab)
    # a repeated index in one fancy assignment has no defined winner
    latest = {tid: i for i, (_, tid, _) in enumerate(block)}
    matrix[list(latest)] = rows[list(latest.values())]


def _trailing_space(values: str) -> str:
    """A note for an error message when a space follows a line's last value."""
    trailing = values.rstrip("\r\n").endswith(" ")
    return " (a trailing space follows the last value)" if trailing else ""


def _first_bad_row(path, block: list, dim: int, vocab: Vocabulary) -> DatasetFormatError:
    """The error naming the first row of a failed block that fails on its own."""
    for line_no, tid, text in block:
        try:
            row = _parse_rows([text], dim)
        except ValueError:
            return DatasetFormatError(
                f"{path}:{line_no}: non-numeric value{_trailing_space(text)}")
        if not np.isfinite(row).all():
            return DatasetFormatError(
                f"{path}:{line_no}: non-finite value for token {vocab.token_of(tid)!r}")
    return DatasetFormatError(f"{path}:{block[0][0]}-{block[-1][0]}: rows fail to parse together")


def _normalize_name(name: str) -> str:
    return " ".join(name.lower().split())


class SnapshotResolver:
    """Maps an entity name to its description text ('' when unknown), from a
    JSONL snapshot of entity descriptions."""

    def __init__(self, path):
        self._descriptions = {}
        self._names = []
        for line_no, line in read_lines(path):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise DatasetFormatError(f"{path}:{line_no}: invalid JSON") from e
            if not (isinstance(record, dict) and isinstance(record.get("name"), str)
                    and isinstance(record.get("description"), str)):
                raise DatasetFormatError(
                    f"{path}:{line_no}: snapshot record needs name and description strings")
            key = _normalize_name(record["name"])
            if key not in self._descriptions:
                self._names.append(record["name"])
            self._descriptions[key] = record["description"]

    def lookup(self, name: str) -> str:
        return self._descriptions.get(_normalize_name(name), "")

    @cached_property
    def patterns(self) -> list:
        """(name, " tok tok ") per snapshot name with tokens, in snapshot
        order: its tokens space-joined between spaces, made on first use."""
        return [(name, f" {' '.join(tokens)} ") for name in self._names
                if (tokens := tokenize(name))]


def link_entities(doc: Document, resolver: SnapshotResolver) -> list[str]:
    """Gazetteer pass: snapshot names whose token sequence occurs in the news.

    Returns names in order of first appearance, names that first appear at
    the same token in snapshot order; used when a document carries no
    explicit entity list. Tokens hold no whitespace, so a name's pattern
    occurs in the space-joined news tokens exactly where its tokens do.
    """
    text = f" {' '.join(tok for sent in doc.news_sentences for tok in sent)} "
    found = [(at, name) for name, pattern in resolver.patterns
             if (at := text.find(pattern)) >= 0]
    found.sort(key=lambda pair: pair[0])
    return [name for _, name in found]


def parse_document(record: dict, line_no: int = 0,
                   max_sentences_per_comment: int = 2) -> Document:
    """Validate one JSON record and tokenize it into a Document.

    A ``null`` field is a missing one, an entity's missing description is
    empty, an integer id reads as its decimal text, and any other field not of
    its type is an error. Comments keep at most ``max_sentences_per_comment``
    sentences each, flattened chronologically (their bounds are known here).
    """
    where = f"line {line_no}" if line_no else "record"
    for field_name in ("id", "label", "news", "comments", "entities"):
        if record.get(field_name) is None:
            raise DatasetFormatError(f"{where}: missing required field '{field_name}'")
    doc_id = str(record["id"]) if type(record["id"]) is int else record["id"]
    if not isinstance(doc_id, str):
        raise DatasetFormatError(f"{where}: id must be a string or an integer")
    label = record["label"]
    if type(label) is not int or label not in (0, 1):
        raise DatasetFormatError(f"{where}: label must be 0 or 1, got {label!r}")
    if not isinstance(record["news"], str):
        raise DatasetFormatError(f"{where}: news must be a string")
    if not isinstance(record["comments"], list):
        raise DatasetFormatError(f"{where}: comments must be an array of strings")
    if not isinstance(record["entities"], list):
        raise DatasetFormatError(f"{where}: entities must be an array of objects")
    news = sentences_to_tokens(record["news"])
    if not news:
        raise DegenerateInputError(f"{where}: document has no news sentences")
    comments = []
    for comment in record["comments"]:
        if not isinstance(comment, str):
            raise DatasetFormatError(f"{where}: comments must be strings")
        comments.extend(sentences_to_tokens(comment)[:max_sentences_per_comment])
    entities = []
    for ent in record["entities"]:
        if not isinstance(ent, dict) or ent.get("name") is None:
            raise DatasetFormatError(f"{where}: entity entries need a name")
        description = "" if ent.get("description") is None else ent["description"]
        if not (isinstance(ent["name"], str) and isinstance(description, str)):
            raise DatasetFormatError(f"{where}: entity name and description must be strings")
        entities.append((ent["name"], sentences_to_tokens(description)))
    return Document(doc_id, news, comments, entities, label, line_no)


def read_dataset(path, max_sentences_per_comment: int = 2):
    """Parse a JSONL dataset. Returns (documents, warnings): a malformed line
    is skipped and reported as a warning."""
    docs = []
    warnings = []
    for line_no, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise DatasetFormatError(f"line {line_no}: record is not an object")
            docs.append(parse_document(record, line_no, max_sentences_per_comment))
        except (DatasetFormatError, DegenerateInputError, json.JSONDecodeError) as e:
            warnings.append(f"{path}:{line_no}: skipped ({e})")
    return docs, warnings


def resolve_documents(docs: list, resolver: SnapshotResolver | None) -> list:
    """Fill empty entity descriptions in place of the originals.

    Documents with an empty entity list get one from the gazetteer pass over
    the snapshot names. Must run before vocabulary building so description
    tokens are in-vocabulary. Each name's description is tokenized once, and
    documents that mention it share its token lists.
    """
    if resolver is None:
        return docs
    out = []
    described = {}
    for doc in docs:
        entities = doc.entity_descriptions
        if not entities:
            entities = [(name, []) for name in link_entities(doc, resolver)]
        filled = []
        for name, sentences in entities:
            if not sentences:
                if name not in described:
                    described[name] = sentences_to_tokens(resolver.lookup(name))
                sentences = described[name]
            filled.append((name, sentences))
        out.append(replace(doc, entity_descriptions=filled))
    return out


def resolve_entities(doc: Document, hp) -> list:
    """Combined entity-description sentence list for one document.

    Per entity (document order): keep at most ``hp.max_sentences_per_description``
    sentences; the combined list is truncated to ``hp.max_entity_sentences``.
    Entities without a description (filled beforehand by
    :func:`resolve_documents` where a snapshot has one) contribute nothing.
    """
    combined = []
    for _, sentences in doc.entity_descriptions:
        combined.extend(sentences[:hp.max_sentences_per_description])
        if len(combined) >= hp.max_entity_sentences:
            break
    return combined[:hp.max_entity_sentences]


_NO_IDS, _ZERO = np.zeros(0, np.int32), np.zeros((), np.int32)


@dataclass(slots=True)
class Source:
    """One input source of a sample, ragged: ``ids`` holds the int32 ids of
    its real tokens, sentence after sentence in slot order, and ``lengths``
    the int32 word count of each sentence slot. A slot without words holds
    no sentence: a hole keeps its slot."""

    ids: np.ndarray
    lengths: np.ndarray
    max_words: int

    @property
    def real(self) -> np.ndarray:
        """The slots that hold a sentence."""
        return self.lengths > 0

    def dropped(self) -> "Source":
        """The same slots with no sentence in any; allocates no array."""
        return Source(_NO_IDS, np.broadcast_to(_ZERO, self.lengths.shape), self.max_words)

    def padded(self) -> tuple:
        """(ids int64, word mask) [slots x max_words], id 0 in pad cells."""
        word_mask = np.arange(self.max_words) < self.lengths[:, None]
        ids = np.zeros(word_mask.shape, np.int64)
        ids[word_mask] = self.ids
        return ids, word_mask


@dataclass(slots=True)
class SampleArrays:
    """One document's three sources, whose arrays are views of one id array
    and one length array. The padded ``*_ids``, ``*_word_mask`` and
    ``*_sent_mask`` of each source are built on each read."""

    doc_id: str
    label: int
    news: Source
    entities: Source
    comments: Source

    news_ids = property(lambda self: self.news.padded()[0])
    news_word_mask = property(lambda self: self.news.padded()[1])
    news_sent_mask = property(lambda self: self.news.real)
    entity_ids = property(lambda self: self.entities.padded()[0])
    entity_word_mask = property(lambda self: self.entities.padded()[1])
    entity_sent_mask = property(lambda self: self.entities.real)
    comment_ids = property(lambda self: self.comments.padded()[0])
    comment_word_mask = property(lambda self: self.comments.padded()[1])
    comment_sent_mask = property(lambda self: self.comments.real)


def encode_document(doc: Document, vocab: Vocabulary, hp) -> SampleArrays:
    """Truncate one document to the hp dimensions: per source, the first
    ``slots`` sentences and the first ``hp.max_words`` words of each."""
    tokens, lengths, bounds = [], [], [(0, 0)]
    for sentences, slots in ((doc.news_sentences, hp.max_news_sentences),
                             (resolve_entities(doc, hp), hp.max_entity_sentences),
                             (doc.comment_sentences, hp.max_comment_sentences)):
        kept = [sent[:hp.max_words] for sent in sentences[:slots]]
        for sent in kept:
            tokens += sent
        lengths += [len(sent) for sent in kept] + [0] * (slots - len(kept))
        bounds.append((len(tokens), len(lengths)))
    ids, lengths = vocab.ids_of(tokens), np.array(lengths, np.int32)
    if not lengths[:hp.max_news_sentences].any():
        raise DegenerateInputError(f"document {doc.doc_id}: no news sentences to encode")
    return SampleArrays(doc.doc_id, doc.label, *(
        Source(ids[w0:w1], lengths[s0:s1], hp.max_words)
        for (w0, s0), (w1, s1) in zip(bounds, bounds[1:])))


def split_dataset(docs: list, seed: int):
    """Stratified 70/10/20 train/val/test split, deterministic under the seed."""
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for label in (0, 1):
        group = [d for d in docs if d.label == label]
        order = rng.permutation(len(group))
        n_train = int(round(0.7 * len(group)))
        n_val = int(round(0.1 * len(group)))
        for rank, idx in enumerate(order):
            if rank < n_train:
                train.append(group[idx])
            elif rank < n_train + n_val:
                val.append(group[idx])
            else:
                test.append(group[idx])
    for part in (train, val, test):
        rng.shuffle(part)
    return train, val, test


# ---------------------------------------------------------------------------
# synthetic corpus generation
# ---------------------------------------------------------------------------

_FILLER_WORDS = [
    "market", "report", "season", "team", "local", "officials", "said",
    "meeting", "river", "project", "update", "festival", "weather", "city",
    "council", "budget", "school", "garden", "traffic", "museum", "concert",
    "library", "harbor", "bridge", "agenda", "review", "notes", "plan",
    "street", "window",
]

_COMMENT_FILLER = [
    "interesting read", "thanks for sharing", "saw this earlier today",
    "anyone have more details", "following this story", "not sure what to think",
]

FAKE_NEWS_CUE = "shockingclaim"
REAL_NEWS_CUE = "confirmedreport"
FAKE_COMMENT_CUE = "fake"
REAL_COMMENT_CUE = "legit"
FAKE_ENTITY_CUE = "fabricated"
REAL_ENTITY_CUE = "respected"

_FILLER_ENTITY_NAMES = ["almanac", "gazette", "chronicle", "tribune"]
_COMMENTS_PER_DOC = 8


@dataclass
class SyntheticSpec:
    """Knobs for the generated corpus.

    ``signal`` lists the channels that carry the label cue: any subset of
    {"news", "comments", "entities"}. Entity-description cues sit in the
    first sentence of the first entity's description, and the entity slots
    are filled to exactly ``entity_slots`` sentences so that a uniform
    attention weight is 1/entity_slots.
    """

    size: int = 200
    balance: float = 0.5
    signal: tuple = ("news", "comments", "entities")
    seed: int = 0
    embedding_dim: int = 16
    entity_slots: int = 8

    def validate(self):
        if self.size <= 0:
            raise ValueError("size must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0.0 <= self.balance <= 1.0:
            raise ValueError("balance must be in [0, 1]")
        for name in ("embedding_dim", "entity_slots"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        unknown = set(self.signal) - {"news", "comments", "entities"}
        if unknown:
            raise ValueError(f"unknown signal channels: {sorted(unknown)}")


def _sentence(rng, lo=4, hi=8) -> str:
    n = int(rng.integers(lo, hi + 1))
    words = [_FILLER_WORDS[int(rng.integers(0, len(_FILLER_WORDS)))] for _ in range(n)]
    return " ".join(words) + "."


def _entity_description(name: str, label: int | None, rng) -> str:
    if label is None:
        first = f"{name} is a regional publication covering daily events."
    elif label == 1:
        first = f"{name} is a {FAKE_ENTITY_CUE} outlet known for invented stories."
    else:
        first = f"{name} is a {REAL_ENTITY_CUE} outlet known for careful reporting."
    extra = [_sentence(rng, 4, 7) for _ in range(3)]
    return " ".join([first] + extra)


# the files gen_synthetic writes, by the key of the path it returns for each
SYNTHETIC_FILES = {"dataset": "dataset.jsonl", "entities": "entities.jsonl",
                   "embeddings": "embeddings.txt", "meta": "meta.json"}


def gen_synthetic(spec: SyntheticSpec, out_dir) -> dict:
    """Write the :data:`SYNTHETIC_FILES` into ``out_dir``: the dataset, the
    entity snapshot, the embeddings and the spec's meta data.

    Labels are decidable only from the planted cue tokens in the enabled
    channels; everything else is drawn from a shared filler distribution.
    Byte-identical output for identical specs.
    """
    from pathlib import Path

    spec.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)

    n_fake = int(round(spec.size * spec.balance))
    labels = [1] * n_fake + [0] * (spec.size - n_fake)
    order = rng.permutation(spec.size)
    labels = [labels[i] for i in order]

    snapshot = {}
    records = []
    for idx, label in enumerate(labels):
        doc_id = f"doc{idx:04d}"
        org = f"org{idx:04d}"

        news_sents = [_sentence(rng) for _ in range(int(rng.integers(2, 4)))]
        if "entities" in spec.signal:
            # the name is ambiguous in the news; only its description disambiguates
            mention = f"the {org} desk filed a new story this week."
            news_sents.insert(0, mention)
        if "news" in spec.signal:
            cue = FAKE_NEWS_CUE if label == 1 else REAL_NEWS_CUE
            pos = int(rng.integers(0, len(news_sents)))
            news_sents[pos] = f"sources describe a {cue} about the {_sentence(rng, 2, 3)}"

        comments = [_COMMENT_FILLER[int(rng.integers(0, len(_COMMENT_FILLER)))] + "."
                    for _ in range(_COMMENTS_PER_DOC)]
        if "comments" in spec.signal:
            cue = FAKE_COMMENT_CUE if label == 1 else REAL_COMMENT_CUE
            pos = max(1, int(round(0.7 * (_COMMENTS_PER_DOC - 1))))
            comments[pos] = f"fyi this one is {cue} for sure."

        entities = []
        if "entities" in spec.signal:
            snapshot[org] = _entity_description(org, label, rng)
            entities.append({"name": org, "description": ""})
            filled = 4
        else:
            filled = 0
        fi = 0
        while filled < spec.entity_slots:
            name = _FILLER_ENTITY_NAMES[fi % len(_FILLER_ENTITY_NAMES)]
            if name not in snapshot:
                snapshot[name] = _entity_description(name, None, rng)
            entities.append({"name": name, "description": ""})
            filled += 4
            fi += 1

        records.append({
            "id": doc_id,
            "label": label,
            "news": " ".join(news_sents),
            "comments": comments,
            "entities": entities,
        })

    dataset_path = out / SYNTHETIC_FILES["dataset"]
    with atomic_write(dataset_path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(record, sort_keys=True) + "\n" for record in records)

    snapshot_path = out / SYNTHETIC_FILES["entities"]
    with atomic_write(snapshot_path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"name": name, "description": snapshot[name]},
                                 sort_keys=True) + "\n" for name in sorted(snapshot))

    # every token that can appear gets a deterministic frozen vector
    docs = [parse_document(r) for r in records]
    vocab_tokens = set()
    for doc in docs:
        vocab_tokens.update(doc.all_tokens())
    for desc in snapshot.values():
        for sent in sentences_to_tokens(desc):
            vocab_tokens.update(sent)
    emb_rng = np.random.default_rng(spec.seed + 1)
    embeddings_path = out / SYNTHETIC_FILES["embeddings"]
    with atomic_write(embeddings_path, "w", encoding="utf-8") as fh:
        for token in sorted(vocab_tokens):
            vec = emb_rng.uniform(-0.5, 0.5, size=spec.embedding_dim)
            fh.write(token + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")

    meta = {
        "size": spec.size,
        "balance": spec.balance,
        "signal": sorted(spec.signal),
        "seed": spec.seed,
        "embedding_dim": spec.embedding_dim,
        "entity_slots": spec.entity_slots,
        "labels": {"fake": n_fake, "real": spec.size - n_fake},
        "cue_entity_sentence_index": 0 if "entities" in spec.signal else None,
    }
    meta_path = out / SYNTHETIC_FILES["meta"]
    write_json(meta_path, meta)

    return {
        "dataset": str(dataset_path),
        "entities": str(snapshot_path),
        "embeddings": str(embeddings_path),
        "meta": str(meta_path),
    }
