import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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


class TestTokenize:
    def test_stopwords_and_case(self):
        assert tokenize("The cat sat.", {"the"}) == ["cat", "sat"]

    def test_empty(self):
        assert tokenize("", set()) == []

    def test_short_tokens_dropped(self):
        assert tokenize("a I x", set()) == []

    def test_splits_on_nonalnum_runs(self):
        assert tokenize("foo--bar!!baz42", set()) == ["foo", "bar", "baz42"]


class TestLoadCorpus:
    def test_tsv(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("spam\tbuy now\nham\thello there\nspam\tcheap pills\n")
        c = load_corpus(p, "tsv")
        assert len(c.docs) == 3
        assert c.classes == ("spam", "ham")

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

    def test_doc_terms_in_token_order(self):
        c = make_corpus([("a", "dog cat the dog"), ("b", "the"), ("a", "fish cat")])
        v = build_vocabulary(c, {"the"})
        assert v.terms == {"dog": 0, "cat": 1, "fish": 2}
        assert v.doc_terms == ([0, 1, 0], [], [2, 1])


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
