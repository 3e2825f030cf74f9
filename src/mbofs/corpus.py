"""Corpus ingestion: tokenization, stopword removal, TF-IDF vectorization."""

from __future__ import annotations

import hashlib
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from pathlib import Path

import numpy as np
import scipy.sparse as sp

# A byte table that keeps the bytes of [0-9a-z] and turns every other byte into
# a space. Every byte of a non-ASCII character's UTF-8 form is >= 0x80, so each
# such character separates tokens, as a character outside [0-9a-z] does.
_TOKEN_BYTES = b"0123456789abcdefghijklmnopqrstuvwxyz"
_SEPARATE = bytes(b if b in _TOKEN_BYTES else 0x20 for b in range(256))

# Minimal built-in English stopword list; external files override it.
DEFAULT_STOPWORDS = frozenset(
    """a an and are as at be but by for from has have he her his if in into is it
    its no not of on or she that the their them then there these they this to was
    we were what which who will with you your""".split()
)


class CorpusError(Exception):
    """Raised for ingestion and vocabulary failures."""


@dataclass(frozen=True)
class RawDocument:
    label: str
    text: str

    def __post_init__(self):
        if not self.label:
            raise CorpusError("document label must be non-empty")


@dataclass(frozen=True)
class Corpus:
    docs: tuple[RawDocument, ...]
    classes: tuple[str, ...]  # first-appearance order

    @staticmethod
    def from_docs(docs) -> "Corpus":
        docs = tuple(docs)
        seen: dict[str, None] = {}
        for d in docs:
            seen.setdefault(d.label, None)
        return Corpus(docs=docs, classes=tuple(seen))


@dataclass(frozen=True)
class Vocabulary:
    terms: dict[str, int]  # term -> index; indices count up in insertion order
    counts: sp.csr_matrix  # documents x terms token counts, column indices sorted

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def df(self) -> np.ndarray:
        """Document frequency per term index."""
        return np.bincount(self.counts.indices, minlength=self.n_terms)

    def term_list(self) -> list[str]:
        return list(self.terms)


@dataclass(frozen=True)
class DocTermMatrix:
    """Sparse N x M TF-IDF matrix with per-row class labels."""

    weights: sp.csr_matrix
    labels: np.ndarray  # class index per row

    @property
    def n_docs(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def restrict_columns(self, column_indices: np.ndarray) -> "DocTermMatrix":
        """Matrix over a feature subset; engines run on IG-reduced universes."""
        return DocTermMatrix(
            weights=self.weights[:, column_indices].tocsr(), labels=self.labels
        )

    def fingerprint(self) -> str:
        """SHA-256 of the content: CSR shape, indptr, indices, data and labels."""
        w = self.weights
        digest = hashlib.sha256(f"{w.shape[0]}x{w.shape[1]}".encode())
        for array, dtype in ((w.indptr, "<i8"), (w.indices, "<i8"), (w.data, "<f8"),
                             (self.labels, "<i8")):
            digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
        return digest.hexdigest()


@dataclass(frozen=True)
class CorpusStats:
    n_features: int
    n_instances: int
    n_classes: int
    avg_words_per_instance: float
    avg_word_length: float


def tokenize(text: str, stopwords=DEFAULT_STOPWORDS) -> list[str]:
    """The runs of ASCII letters and digits in the lowercased text, of two or
    more characters and not stopwords. Any other character, an accented letter
    included, separates tokens: "Cafés" gives "caf"."""
    words = text.lower().encode("utf-8", "surrogatepass").translate(_SEPARATE)
    return [tok for tok in words.decode("ascii").split()
            if len(tok) >= 2 and tok not in stopwords]


def _unreadable(path, exc: OSError | UnicodeDecodeError) -> CorpusError:
    why = exc.strerror if isinstance(exc, OSError) else "not valid UTF-8"
    return CorpusError(f"cannot read {path}: {why}")


def load_stopwords(path) -> frozenset[str]:
    """One token per line, UTF-8 with or without a byte-order mark."""
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from exc
    return frozenset(tok.strip().lower() for tok in lines if tok.strip())


def load_corpus(path, format: str = "tsv") -> Corpus:
    """The documents at `path`, in the format the config's `corpus_format`
    names: "tsv", one `label<TAB>text` line per document, or "dirs",
    `path/<class>/<file>` with one UTF-8 document per file, in sorted order.
    A TSV file may open with a UTF-8 byte-order mark, and its lines end in LF
    or CRLF; a lone CR stays in the text, where it separates tokens. An
    unreadable or non-UTF-8 file raises CorpusError naming that file."""
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"corpus path does not exist: {path}")
    docs = []
    try:
        if format == "tsv":
            with path.open(encoding="utf-8-sig", newline="\n") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.removesuffix("\n").removesuffix("\r")
                    if not line:
                        continue
                    if "\t" not in line:
                        raise CorpusError(f"malformed TSV line {lineno}: no tab")
                    label, text = line.split("\t", 1)
                    docs.append(RawDocument(label=label, text=text))
        elif format == "dirs":
            for class_dir in sorted(p for p in path.iterdir() if p.is_dir()):
                for doc_file in sorted(p for p in class_dir.iterdir() if p.is_file()):
                    try:  # the error names the document
                        text = doc_file.read_text(encoding="utf-8")
                    except (OSError, UnicodeDecodeError) as exc:
                        raise _unreadable(doc_file, exc) from exc
                    docs.append(RawDocument(label=class_dir.name, text=text))
        else:
            raise CorpusError(f"unknown corpus format: {format!r}")
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from exc
    if not docs:
        raise CorpusError("zero documents")
    return Corpus.from_docs(docs)


def build_vocabulary(corpus: Corpus, stopwords=DEFAULT_STOPWORDS) -> Vocabulary:
    """The one tokenization pass: the terms and the document-term count
    matrix, which vectorize_tfidf and compute_stats read."""
    terms = defaultdict(count().__next__)  # a new term takes the next index
    ids = array("q")  # numpy reads it in place, with no second copy of the ids
    indptr = [0]
    for doc in corpus.docs:
        ids.extend(map(terms.__getitem__, tokenize(doc.text, stopwords)))
        indptr.append(len(ids))
    terms.default_factory = None  # an unknown term is a KeyError again, as in a dict
    if not terms:
        raise CorpusError("vocabulary empty after filtering")
    counts = sp.csr_matrix((np.ones(len(ids), dtype=np.int64),
                            np.frombuffer(ids, dtype=np.int64), indptr),
                           shape=(len(corpus.docs), len(terms)))
    counts.sum_duplicates()  # sorts each row's columns and adds repeated tokens
    return Vocabulary(terms=terms, counts=counts)


def vectorize_tfidf(corpus: Corpus, vocab: Vocabulary) -> DocTermMatrix:
    """tf * (ln((1+N)/(1+df)) + 1), rows L2-normalized; zero rows left zero."""
    n = len(corpus.docs)
    idf = np.log((1.0 + n) / (1.0 + vocab.df)) + 1.0
    class_of = {c: i for i, c in enumerate(corpus.classes)}
    labels = np.array([class_of[doc.label] for doc in corpus.docs], dtype=np.int64)
    weights = vocab.counts.astype(np.float64)
    weights.data *= idf[weights.indices]
    row_of = np.repeat(np.arange(n), np.diff(weights.indptr))
    # bincount adds each row's squares one at a time in column order, a plain
    # running sum; reduceat and sum(axis=1) add in other orders
    norms = np.sqrt(np.bincount(row_of, weights=weights.data * weights.data, minlength=n))
    weights.data /= norms[row_of]  # count * idf >= 1, so a stored row's norm is > 0
    return DocTermMatrix(weights=weights, labels=labels)


def compute_stats(corpus: Corpus, vocab: Vocabulary) -> CorpusStats:
    """Word and character totals read from `vocab.counts`, so no
    per-document loop runs after tokenization."""
    if not corpus.docs:
        raise CorpusError("empty corpus")
    term_length = np.array([len(t) for t in vocab.term_list()], dtype=np.int64)
    counts = vocab.counts
    n_words = int(counts.data.sum())
    n_chars = int(term_length[counts.indices] @ counts.data)
    n = len(corpus.docs)
    return CorpusStats(
        n_features=vocab.n_terms,
        n_instances=n,
        n_classes=len(corpus.classes),
        avg_words_per_instance=n_words / n,
        avg_word_length=(n_chars / n_words) if n_words else 0.0,
    )
