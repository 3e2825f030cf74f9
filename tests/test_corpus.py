import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mbofs import corpus as corpus_mod
from mbofs.corpus import (
    Corpus,
    CorpusError,
    CorpusStats,
    RawDocument,
    build_vocabulary,
    compute_stats,
    load_corpus,
    load_stopwords,
    tokenize,
    vectorize_tfidf,
)
from mbofs.cli import main
from mbofs.harness import ExperimentConfig, load_input


def make_corpus(pairs):
    return Corpus.from_docs(RawDocument(label=l, text=t) for l, t in pairs)


def reference_tokenize(text, stopwords):
    """The earlier tokenizer, kept as the oracle of tokenize: the lowercased
    text split by the regex engine on runs of characters outside [0-9a-z]."""
    return [tok for tok in re.split(r"[^0-9a-z]+", text.lower())
            if len(tok) >= 2 and tok not in stopwords]


class TestTokenize:
    def test_stopwords_and_case(self):
        assert tokenize("The cat sat.", {"the"}) == ["cat", "sat"]

    def test_empty(self):
        assert tokenize("", set()) == []

    def test_short_tokens_dropped(self):
        assert tokenize("a I x", set()) == []

    def test_splits_on_nonalnum_runs(self):
        assert tokenize("foo--bar!!baz42", set()) == ["foo", "bar", "baz42"]

    @pytest.mark.parametrize("text, tokens", [
        ("300\u212a Kelvin", ["300k", "kelvin"]),  # the Kelvin sign lowercases to ASCII k
        ("\u0130stanbul", ["stanbul"]),  # İ lowercases to i and a combining dot
        ("Stra\u00dfe", ["stra"]),  # ß has no ASCII form
        ("Caf\u00e9s na\u00efve r\u00e9sum\u00e9", ["caf", "na", "ve", "sum"]),
        ("won 2-1, 40% faster at 220C", ["won", "40", "faster", "at", "220c"]),
        ("\uff11\uff12\uff13 \u0661\u0662 12", ["12"]),  # full-width and Arabic-Indic digits
        ("pizza\U0001f355time \U0001f600\U0001f600", ["pizza", "time"]),
        ("ab\ud800cd", ["ab", "cd"]),  # a lone surrogate
    ])
    def test_named_cases_match_reference(self, text, tokens):
        assert tokenize(text, set()) == reference_tokenize(text, set()) == tokens

    @settings(max_examples=300)
    @given(st.one_of(st.text(), st.text(alphabet="aZ09 -_.\t\u00e9\u00df\u0130\u212a\U0001f355")),
           st.frozensets(st.text(alphabet="az09", max_size=3)))
    def test_matches_reference(self, text, stopwords):
        assert tokenize(text, stopwords) == reference_tokenize(text, stopwords)


class TestLoadCorpus:
    def test_tsv(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("spam\tbuy now\nham\thello there\nspam\tcheap pills\n")
        c = load_corpus(p, "tsv")
        assert len(c.docs) == 3
        assert c.classes == ("spam", "ham")

    def test_tsv_byte_order_mark_and_crlf(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_bytes("\ufeffspam\tbuy now\r\nham\thello there\r\nspam\tcheap pills\r\n"
                      .encode("utf-8"))
        c = load_corpus(p, "tsv")
        assert c.classes == ("spam", "ham")
        assert [d.text for d in c.docs] == ["buy now", "hello there", "cheap pills"]

    def test_tsv_lone_cr_stays_in_the_text(self, tmp_path):
        # a lone CR ends no line, so a tab after it makes no extra document
        p = tmp_path / "c.tsv"
        p.write_bytes(b"spam\tcheap\rham\toffer\nham\tmeeting notes\r\n")
        c = load_corpus(p, "tsv")
        assert [(d.label, d.text) for d in c.docs] == [
            ("spam", "cheap\rham\toffer"), ("ham", "meeting notes")]
        assert tokenize(c.docs[0].text) == ["cheap", "ham", "offer"]

    def test_tsv_lone_cr_before_text_without_a_tab(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_bytes(b"spam\tcheap\roffer pills\nham\tmeeting notes\n")
        c = load_corpus(p, "tsv")
        assert [(d.label, d.text) for d in c.docs] == [
            ("spam", "cheap\roffer pills"), ("ham", "meeting notes")]
        assert tokenize(c.docs[0].text) == ["cheap", "offer", "pills"]

    def test_tsv_malformed(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("spam no tab here\n")
        with pytest.raises(CorpusError, match="no tab"):
            load_corpus(p, "tsv")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("")
        with pytest.raises(CorpusError, match="zero documents"):
            load_corpus(p, "tsv")

    def test_missing_path(self, tmp_path):
        with pytest.raises(CorpusError, match="does not exist"):
            load_corpus(tmp_path / "nope.tsv", "tsv")

    def test_class_dirs(self, tmp_path, capsys):
        for cls, texts in [("ham", ["hello friend"]), ("spam", ["buy", "cheap"])]:
            d = tmp_path / cls
            d.mkdir()
            for i, t in enumerate(texts):
                (d / f"{i}.txt").write_text(t)
        c = load_corpus(tmp_path, "dirs")
        assert len(c.docs) == 3
        assert c.classes == ("ham", "spam")
        # the layout's one name is "dirs"; no alias for it is accepted
        config = tmp_path / "exp.cfg"
        config.write_text(f"corpus_path = {tmp_path}\ncorpus_format = class-dirs\n")
        (tmp_path / "m.txt").write_text("M=1\n1\n")  # evaluate reads the mask first
        assert main(["evaluate", "--mask", str(tmp_path / "m.txt"),
                     "--config", str(config)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: [load] unknown corpus format: 'class-dirs'"]


class TestVocabulary:
    def test_df_hand_count(self):
        c = make_corpus([("a", "cat cat dog"), ("a", "dog")])
        v = build_vocabulary(c, set())
        assert v.terms == {"cat": 0, "dog": 1}
        assert v.df.tolist() == [1, 2]

    def test_singleton(self):
        v = build_vocabulary(make_corpus([("a", "cat")]), set())
        assert v.n_terms == 1
        assert v.df.tolist() == [1]

    def test_all_stopwords(self):
        with pytest.raises(CorpusError, match="empty"):
            build_vocabulary(make_corpus([("a", "the the")]), {"the"})

    def test_counts_hand_count(self):
        c = make_corpus([("a", "dog cat the dog"), ("b", "the"), ("a", "fish cat")])
        v = build_vocabulary(c, {"the"})
        assert v.terms == {"dog": 0, "cat": 1, "fish": 2}
        assert v.counts.toarray().tolist() == [[2, 1, 0], [0, 0, 0], [0, 1, 1]]
        assert v.counts.indices.tolist() == [0, 1, 1, 2]  # sorted within each row
        assert v.df.tolist() == [1, 2, 1]


class TestTfidf:
    def test_idf_everywhere_is_one(self):
        c = make_corpus([("a", "cat"), ("b", "cat")])
        v = build_vocabulary(c, set())
        m = vectorize_tfidf(c, v)
        # df = N so idf = ln(1)+1 = 1; single-term rows normalize to 1.0
        assert m.weights[0, 0] == pytest.approx(1.0)

    def test_idf_value(self):
        c = make_corpus([("a", "cat dog"), ("b", "dog")])
        v = build_vocabulary(c, set())
        idf_cat = math.log((1 + 2) / (1 + 1)) + 1
        assert idf_cat == pytest.approx(1.405465, abs=1e-6)
        m = vectorize_tfidf(c, v)
        w = m.weights[0].toarray().ravel()
        expected = np.array([idf_cat, 1.0])
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_row_norms(self):
        c = make_corpus([("a", "x1 x2 x3 x1"), ("b", "x2 x4"), ("a", "")])
        v = build_vocabulary(c, set())
        m = vectorize_tfidf(c, v)
        dense = m.weights.toarray()
        assert np.linalg.norm(dense[0]) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(dense[1]) == pytest.approx(1.0, abs=1e-9)
        assert np.all(dense[2] == 0)  # empty doc stays a zero row
        assert np.all(m.weights.data > 0)

    def test_deterministic(self):
        c = make_corpus([("a", "cat dog"), ("b", "dog fish"), ("a", "cat")])
        v = build_vocabulary(c, set())
        m1 = vectorize_tfidf(c, v)
        m2 = vectorize_tfidf(c, v)
        assert (m1.weights != m2.weights).nnz == 0
        np.testing.assert_array_equal(m1.labels, m2.labels)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.lists(st.sampled_from(["cat", "dog", "fish", "bird"]), max_size=6),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_df_bounds_property(self, rows):
        docs = [(lbl, " ".join(toks)) for lbl, toks in rows]
        if not any(toks for _, toks in rows):
            return
        c = make_corpus(docs)
        v = build_vocabulary(c, set())
        n = len(c.docs)
        assert np.all(v.df >= 1)
        assert np.all(v.df <= n)
        m = vectorize_tfidf(c, v)
        norms = np.sqrt(np.asarray(m.weights.multiply(m.weights).sum(axis=1))).ravel()
        for nrm in norms:
            assert nrm == pytest.approx(1.0, abs=1e-9) or nrm == 0.0


def reference_front_end(corpus, stopwords):
    """The earlier per-document front end, kept as the oracle of the count
    matrix path: each document's term indices counted with Counter, sorted,
    weighted and normalized in Python. Returns the CSR data, indices and
    indptr, the document frequencies and the statistics."""
    terms = {}
    doc_terms = [[terms.setdefault(tok, len(terms))
                  for tok in reference_tokenize(doc.text, stopwords)]
                 for doc in corpus.docs]
    df = np.zeros(len(terms), dtype=np.int64)
    for row in doc_terms:
        df[list(set(row))] += 1
    n = len(corpus.docs)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    indptr, indices, data = [0], [], []
    for row in doc_terms:
        counts = Counter(row)
        row_idx = sorted(counts)
        row_w = [counts[i] * idf[i] for i in row_idx]
        acc = 0.0
        for w in row_w:  # a plain running sum; Python 3.12's sum() compensates
            acc += w * w
        norm = math.sqrt(acc)
        if norm > 0:
            row_w = [w / norm for w in row_w]
        indices.extend(row_idx)
        data.extend(row_w)
        indptr.append(len(indices))
    term_length = [len(t) for t in terms]  # dicts keep insertion order: index order
    n_words = sum(len(row) for row in doc_terms)
    n_chars = sum(term_length[i] for row in doc_terms for i in row)
    stats = CorpusStats(n_features=len(terms), n_instances=n, n_classes=len(corpus.classes),
                        avg_words_per_instance=n_words / n,
                        avg_word_length=(n_chars / n_words) if n_words else 0.0)
    return (np.asarray(data, dtype=np.float64), np.asarray(indices, dtype=np.int64),
            np.asarray(indptr, dtype=np.int64), df, stats)


STOP = ["the", "and"]
WORDS = [f"t{i}" for i in range(40)]


def _documents():
    token = st.sampled_from(WORDS)
    return st.one_of(
        st.just([]),  # empty
        st.lists(st.sampled_from(STOP), min_size=1, max_size=4),  # stopwords only
        st.lists(token, min_size=1, max_size=8).map(lambda toks: toks * 3),  # repeats
        st.lists(token, min_size=20, max_size=40, unique=True)  # 20+ distinct terms
        .flatmap(lambda toks: st.lists(st.sampled_from(toks), max_size=20)
                 .map(lambda extra: toks + extra)),
        st.lists(st.sampled_from(WORDS + STOP), max_size=30),
    )


class TestFrontEndOracle:
    """build_vocabulary, vectorize_tfidf and compute_stats against the
    per-document reference, compared byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), _documents()),
                    min_size=1, max_size=12))
    def test_matches_per_document_reference(self, rows):
        assume(any(tok not in STOP for _, toks in rows for tok in toks))
        c = make_corpus([(label, " ".join(toks)) for label, toks in rows])
        v = build_vocabulary(c, set(STOP))
        m = vectorize_tfidf(c, v)
        data, indices, indptr, df, stats = reference_front_end(c, set(STOP))
        assert m.weights.data.tobytes() == data.tobytes()
        assert m.weights.indices.astype(np.int64).tobytes() == indices.tobytes()
        assert m.weights.indptr.astype(np.int64).tobytes() == indptr.tobytes()
        assert v.df.tolist() == df.tolist()
        assert compute_stats(c, v) == stats


class TestStats:
    def test_avg_words(self):
        c = make_corpus([("a", "one two three"), ("b", "v w1 x2 y3 z4 q5")])
        v = build_vocabulary(c, set())
        s = compute_stats(c, v)
        # "v" is dropped by the length filter: 3 and 5 tokens
        assert s.avg_words_per_instance == pytest.approx(4.0)

    def test_avg_word_length(self):
        c = make_corpus([("a", "cat door")])
        v = build_vocabulary(c, set())
        s = compute_stats(c, v)
        assert s.avg_word_length == pytest.approx(3.5)


def test_load_stopwords(tmp_path):
    p = tmp_path / "stop.txt"
    p.write_text("The\nand\n\n  of \n")
    assert load_stopwords(p) == {"the", "and", "of"}


def test_load_stopwords_byte_order_mark(tmp_path):
    p = tmp_path / "stop.txt"
    p.write_text("\ufeffcheap\nfree\n", encoding="utf-8")
    assert load_stopwords(p) == {"cheap", "free"}


# A small corpus with case, punctuation, digits, repeated words, stopwords,
# one-letter tokens, non-ASCII letters and a document that is all stopwords.
SMALL_TSV = (
    "sport\tThe match was won in the final minute; the crowd roared!\n"
    "sport\tA late goal, a roaring crowd, and the cup: won 2-1.\n"
    "tech\tNew GPU drivers ship; the GPU runs 40% faster on Linux-6.\n"
    "tech\tDrivers, drivers, drivers: the kernel team ships again.\n"
    "food\tBake the bread at 220C for 30 minutes, then rest the bread.\n"
    "food\tIt is what it is.\n"
    "food\tFresh bread and caf\u00e9 au lait \u2014 na\u00efve pleasures.\n"
)


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.tsv"
    path.write_text(SMALL_TSV, encoding="utf-8")
    return ExperimentConfig(corpus_path=str(path))


def test_load_input_tokenizes_each_document_once(small_config, monkeypatch):
    calls = []
    real = corpus_mod.tokenize
    monkeypatch.setattr(corpus_mod, "tokenize", lambda *a: calls.append(a) or real(*a))
    matrix, _, _ = load_input(small_config)
    assert len(calls) == matrix.n_docs == 7


def test_small_corpus_matrix_and_stats_pinned(small_config):
    """Values of the earlier design, which tokenized each document three times."""
    matrix, terms, stats = load_input(small_config)
    assert matrix.fingerprint() == (
        "6d58b08a9cce787700aff56448b914018824b1713a00924a7f46e7d80d44f0d3")
    assert stats == CorpusStats(n_features=35, n_instances=7, n_classes=3,
                                avg_words_per_instance=6.142857142857143,
                                avg_word_length=4.5813953488372094)
    assert len(terms) == 35 and matrix.weights.nnz == 39
