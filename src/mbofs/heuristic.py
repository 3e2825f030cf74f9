"""Shared search machinery: bit-vector solutions, neighbor moves, the per-tour
change count of the config's `base_fraction`, derived RNG streams, the memoized
cross-validation fitness, and the search loop both engines run under."""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

import numpy as np

# cross_val_accuracy is not called here; the benchmark's tracer
# (perfbench/layers.py) wraps heuristic.cross_val_accuracy by name
from .classifiers import NbFoldKernel, cross_val_accuracy, stratified_folds  # noqa: F401
from .corpus import DocTermMatrix


class HeuristicError(Exception):
    pass


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")
_CHAR_BITS = bytes.maketrans(b"01", b"\x00\x01")

# Draws generate_neighbor makes before it gives up on finding a neighbour
# that keeps at least one feature.
NEIGHBOR_REDRAWS = 16


@dataclass(frozen=True)
class FeatureMask:
    """Immutable length-M bit vector; popcount = number of selected features."""

    bits: bytes  # one byte per position, 0 or 1

    @staticmethod
    def from_array(arr) -> "FeatureMask":
        return FeatureMask(np.asarray(arr, dtype=bool).astype(np.uint8).tobytes())

    @staticmethod
    def ones(universe: int) -> "FeatureMask":
        return FeatureMask(b"\x01" * universe)

    @staticmethod
    def zeros(universe: int) -> "FeatureMask":
        return FeatureMask(b"\x00" * universe)

    @property
    def universe(self) -> int:
        return len(self.bits)

    def to_array(self) -> np.ndarray:
        return np.frombuffer(self.bits, dtype=np.uint8).astype(bool)

    @property
    def popcount(self) -> int:
        return self.bits.count(1)

    def to_bitstring(self) -> str:
        return self.bits.translate(_BIT_CHARS).decode("ascii")

    @staticmethod
    def from_bitstring(s: str) -> "FeatureMask":
        raw = s.encode("ascii", "replace")  # anything else becomes "?"
        if raw.translate(None, b"01"):
            raise HeuristicError("mask bit string holds characters other than 0 and 1")
        return FeatureMask(raw.translate(_CHAR_BITS))


def flip(mask: FeatureMask, position: int) -> FeatureMask:
    if not 0 <= position < mask.universe:
        raise HeuristicError(f"flip position {position} out of range")
    bits = bytearray(mask.bits)
    bits[position] ^= 1
    return FeatureMask(bytes(bits))


@dataclass(frozen=True)
class RngStream:
    """Seeded stream addressed by a path of (tag, index) pairs.

    Equal (master_seed, path) always produce identical draws; distinct paths
    give independent streams, so parallel evaluation order cannot change
    results.
    """

    master_seed: int
    path: tuple[tuple[str, int], ...] = ()

    def child(self, tag: str, index: int = 0) -> "RngStream":
        return RngStream(self.master_seed, self.path + ((tag, index),))

    def generator(self) -> np.random.Generator:
        """PCG64 seeded by SeedSequence([master_seed, crc32(tag), index, ...]).

        The entropy is handed over as the uint32 words numpy would make of
        that list (each int's little-endian 32-bit words, 0 as one word 0), so
        the pool is the same and numpy skips its per-int coercion."""
        entropy = [self.master_seed]
        for tag, index in self.path:
            entropy += (zlib.crc32(tag.encode()), index)
        words = []
        for n in entropy:
            while n > 0xFFFFFFFF:
                words.append(n & 0xFFFFFFFF)
                n >>= 32
            words.append(n)
        return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


def change_count(counter: int, m_prime: int, base_fraction: float) -> int:
    """Geometric decay per tour: broad moves early, single flips late; never
    all m' bits, whose flip would empty an all-ones input."""
    return max(1, min(m_prime - 1, int(base_fraction * m_prime / 2**counter)))


def generate_neighbor(mask: FeatureMask, change: int, rng: RngStream) -> FeatureMask:
    """Flip `change` distinct uniformly drawn positions; re-draw if all-zero."""
    if not 1 <= change <= mask.universe:
        raise HeuristicError(f"change {change} out of range for M={mask.universe}")
    gen = rng.generator()
    base = np.frombuffer(mask.bits, dtype=np.uint8)
    for _ in range(NEIGHBOR_REDRAWS):
        positions = gen.choice(mask.universe, size=change, replace=False)
        bits = base.copy()
        bits[positions] ^= 1
        if bits.any():
            return FeatureMask(bits.tobytes())
    raise HeuristicError("degenerate neighbor: all-zero after re-draws")


def _key(mask: FeatureMask) -> bytes:
    """The mask's bits packed eight to a byte: exact within one universe."""
    return np.packbits(np.frombuffer(mask.bits, dtype=np.uint8)).tobytes()


class FitnessFn:
    """Cross-validated Naive Bayes accuracy on a mask.

    Fold seed is fixed for the whole run so every mask is scored on identical
    folds; values are memoized on the mask's packed bits. Empty masks score 0.0
    so engine selection logic stays total. Every value is NbFoldKernel's, as
    cross_val_accuracy(matrix, mask, "nb", k, seed).mean_accuracy is; a call
    sends a mask the memo lacks through batch. A matrix with a negative or
    non-finite weight raises ClassifierError.
    """

    def __init__(self, matrix: DocTermMatrix, k: int = 5, seed: int = 0):
        self._memo: dict[bytes, float] = {}
        self.evaluations = 0  # masks scored (memo misses), for trace/diagnostics
        self._nb = NbFoldKernel(matrix, stratified_folds(matrix.labels, k, seed))

    def __call__(self, mask: FeatureMask) -> float:
        if 1 not in mask.bits:
            return 0.0
        key = _key(mask)
        if key not in self._memo:
            self.batch([mask])
        return self._memo[key]

    def batch(self, masks) -> list[float]:
        """`[self(mask) for mask in masks]`, after the non-empty masks the memo
        lacks are scored into it, once each, together by
        NbFoldKernel.accuracy_batch. So the values, the memo and
        `evaluations` are those of one call per mask, and the benchmark's
        tracer sees each call."""
        todo: dict[bytes, bytes] = {}  # packed key -> mask bits
        nonempty = [mask.bits for mask in masks if 1 in mask.bits]
        if nonempty:
            joined = np.frombuffer(b"".join(nonempty), dtype=np.uint8)
            keys = np.packbits(joined.reshape(len(nonempty), -1), axis=1)
            for key, bits in zip(map(bytes, keys), nonempty):
                if key not in self._memo:
                    todo.setdefault(key, bits)
        if todo:
            rows = np.frombuffer(b"".join(todo.values()), dtype=bool).reshape(len(todo), -1)
            self._memo.update(zip(todo, self._nb.accuracy_batch(rows)))
            self.evaluations += len(todo)
        return [self(mask) for mask in masks]


@dataclass(frozen=True)
class SearchTrace:
    """What a search returns beside its best mask."""

    records: list  # the snapshot's records, one per step taken
    termination: str  # the stop rule's reason, or "budget"
    elapsed_seconds: float  # time spent before a resume included


def last_gain(records, start: float) -> int:
    """The 1-based step of the last record whose `best` rose above the one
    before it, `start` standing before the first; 0 if none rose."""
    last, before = 0, start
    for n, record in enumerate(records, 1):
        if record.best > before:
            last = n
        before = record.best
    return last


def run_search(input_mask: FeatureMask, resume, init, step, stop, budget_seconds: float,
               on_step=None) -> tuple[FeatureMask, SearchTrace]:
    """Advance an engine's live snapshot from the input mask until its stop
    rule or the budget ends it; return the snapshot's `best_mask` and the
    trace.

    An input that selects nothing is refused, and a one-feature universe,
    whose only non-empty mask is the input, is returned as is, with status
    "single-feature", no step and no evaluation. Otherwise the clock starts
    before the snapshot is taken: `resume`, or `init()` when that is None,
    so a fresh search's time covers its initialization. The snapshot keeps
    its global best as `best_mask` and `best_fitness`, and its `records`
    are its only record of progress: one per step taken, each with the best
    fitness so far (`best`) and the elapsed milliseconds at its end; a
    resume's clock goes on from its last record's. The step count is their
    number and MBO's stagnation test reads them, so a checkpoint cannot
    claim a step its records do not list, nor a termination reason before
    the search has ended. Each round checks
    `stop(snapshot)` (a termination reason or None) before the budget, then
    runs `step(snapshot, clock)`, one tour or iteration in place, with
    `clock()` giving the elapsed seconds, and hands the snapshot to `on_step`.
    """
    if input_mask.popcount < 1:
        raise HeuristicError("input mask must select at least one feature")
    if input_mask.universe == 1:
        return input_mask, SearchTrace([], "single-feature", 0.0)
    start = time.monotonic()
    snapshot = init() if resume is None else resume
    records = snapshot.records
    already = records[-1].elapsed_ms / 1000.0 if records else 0.0
    clock = lambda: already + (time.monotonic() - start)
    while (reason := stop(snapshot)) is None:
        if clock() >= budget_seconds:
            reason = "budget"
            break
        step(snapshot, clock)
        if on_step is not None:
            on_step(snapshot)
    return snapshot.best_mask, SearchTrace(records, reason, clock())
