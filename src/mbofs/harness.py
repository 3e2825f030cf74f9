"""Experiment orchestration: config files, the load -> filter -> search ->
evaluate pipeline, mask/report serialization, and checkpointing."""

from __future__ import annotations

import base64
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import re
import time
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import classifiers, corpus as corpus_mod, filter_ig
from .corpus import CorpusStats, DocTermMatrix
from .forked import side_by_side
from .heuristic import FeatureMask, FitnessFn, HeuristicError, change_count, last_gain
from .mbo import MboSnapshot, mbo_select
from .pso import V_MAX, PsoSnapshot, pso_select

# 2: PSO velocities as base64 float64; 3: traces as dataclasses; 4: step counts
# and elapsed time kept only in the trace; 5: the snapshot holds the records and
# no trace; 6: both engines name the global best best_mask and best_fitness, and
# each record's best fitness best
CHECKPOINT_VERSION = 6
# Config fields that change a search's trajectory; a checkpoint is bound to them.
SEARCH_FIELDS = ("seed", "folds", "ig_cap", "flock_size", "neighbors",
                 "base_fraction", "swarm_size", "pso_iterations")
# A config comment: a '#' that starts a line or follows whitespace, to the end
# of the line; a '#' inside a value, as in `corpus_path = c#1.tsv`, is kept.
_COMMENT = re.compile(r"(?:^|\s)#.*")
# Least wall time between two checkpoint writes of one search; the last step is
# always written when the search returns.
CHECKPOINT_INTERVAL_S = 5.0


class PipelineError(Exception):
    """The one error a run, a load or a check raises to the CLI. Reads `[stage]
    message`; its args stay (stage, message), so it survives the pickling that
    brings a forked search's error back."""

    def __init__(self, stage: str, message: str):
        super().__init__(stage, message)

    def __str__(self):
        return "[%s] %s" % self.args


@contextlib.contextmanager
def _stage(stage: str, *errors):
    """Raises any of `errors` raised inside as PipelineError(stage, its message)."""
    try:
        yield
    except errors as exc:
        raise PipelineError(stage, str(exc)) from exc


@dataclass
class ExperimentConfig:
    """One run's settings; both search engines read theirs from it."""

    corpus_path: str = ""
    corpus_format: str = "tsv"  # tsv | dirs
    stopwords_path: str = ""
    ig_cap: int = 2500
    method: str = "all"  # ig | mbo | pso | all
    eval_classifier: str = "best"  # nb | dt | best
    folds: int = 5
    seed: int = 0
    budget_seconds: float = 600.0
    flock_size: int = 7
    neighbors: int = 3
    base_fraction: float = 0.02
    swarm_size: int = 30
    pso_iterations: int = 100
    out_dir: str = "runs/latest"

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        """Flat key = value lines, UTF-8 with or without a byte-order mark, and
        '#' comments that start a line or follow whitespace."""
        cfg = ExperimentConfig()
        types = {f.name: type(getattr(cfg, f.name)) for f in cfg.__dataclass_fields__.values()}
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise PipelineError("config", str(corpus_mod._unreadable(path, exc))) from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            line = _COMMENT.sub("", line, count=1).strip()
            if not line:
                continue
            if "=" not in line:
                raise PipelineError("config", f"line {lineno}: expected key = value")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in types:
                raise PipelineError("config", f"line {lineno}: unknown key {key!r}")
            try:
                setattr(cfg, key, types[key](value))
            except ValueError as exc:
                raise PipelineError(
                    "config", f"line {lineno}: bad value for {key}: {exc}"
                ) from exc
        return cfg

    def validate(self):
        if self.folds < 2:
            raise PipelineError("config", "folds must be >= 2")
        if not self.budget_seconds > 0:  # NaN fails too
            raise PipelineError("config", "budget_seconds must be > 0")
        if self.ig_cap < 1:
            raise PipelineError("config", "ig_cap must be >= 1")
        if self.seed < 0:
            raise PipelineError("config", "seed must be >= 0")
        if self.method not in ("ig", "mbo", "pso", "all"):
            raise PipelineError("config", f"unknown method {self.method!r}")
        if self.eval_classifier not in ("nb", "dt", "best"):
            raise PipelineError("config", f"unknown eval_classifier {self.eval_classifier!r}")
        # every engine's fields, whatever the method
        if not 0 <= self.base_fraction <= 1:  # NaN fails too
            raise PipelineError("config", "base_fraction must be in [0, 1]")
        if self.flock_size < 3 or self.flock_size % 2 == 0:  # a leader and two equal wings
            raise PipelineError("config", "flock_size must be odd and >= 3")
        if self.neighbors < 3:  # the leader keeps its best and hands two shares down the wings
            raise PipelineError("config", "neighbors must be >= 3")
        if self.swarm_size < 1:
            raise PipelineError("config", "swarm_size must be >= 1")
        if self.pso_iterations < 1:
            raise PipelineError("config", "pso_iterations must be >= 1")


@dataclass
class MethodResult:
    """One report row. `elapsed_s` is the seconds spent making the mask plus
    its fold trees and an even share of the evaluation step's NB kernel
    (classifiers.cross_val_accuracies); trace files time the search alone."""

    name: str  # raw | ig | mbo | pso
    m_prime: int
    accuracy: float
    classifier: str
    elapsed_s: float
    status: str  # ok | stagnation | max-tours | max-iterations | budget | single-feature
    evaluations: int = 0  # masks the search scored that the fitness memo lacked
    last_gain: int = 0  # the search's step of its last best-fitness rise (heuristic.last_gain)


@dataclass
class RunReport:
    corpus: CorpusStats
    methods: list[MethodResult]
    seed: int
    config: dict

    def to_dict(self) -> dict:
        return _encode(self)

    @staticmethod
    def from_dict(d: dict) -> "RunReport":
        try:
            return _decode(RunReport, d)
        except (KeyError, TypeError) as exc:
            raise PipelineError("report", f"malformed report: {exc!r}") from exc


def evaluate_masks(
    matrix: DocTermMatrix, masks: list, classifier: str, k: int, seed: int
) -> list[tuple[float, str, float]]:
    """Each mask's accuracy under the named classifier, or the best of nb/dt
    (tie -> nb), with the seconds its own cross-validations took. The masks are
    one evaluation step (classifiers.cross_val_accuracies): their fold trees
    run from one work queue, and one NB kernel scores all their NB folds."""
    kinds = ("nb", "dt") if classifier == "best" else (classifier,)
    with _stage("evaluate", classifiers.ClassifierError):
        step = classifiers.cross_val_accuracies(matrix, masks, kinds, k, seed)
    out = []
    for reports, seconds in step:
        best = max(kinds, key=lambda kind: reports[kind].mean_accuracy)  # first on ties
        out.append((reports[best].mean_accuracy, best, seconds))
    return out


def evaluate_mask(
    matrix: DocTermMatrix, mask: np.ndarray, classifier: str, k: int, seed: int
) -> tuple[float, str]:
    """Accuracy under the named classifier, or the best of nb/dt (tie -> nb)."""
    ((accuracy, best, _),) = evaluate_masks(matrix, [mask], classifier, k, seed)
    return accuracy, best


# ---------------------------------------------------------------------------
# Mask files


def _unwritable(path, exc: OSError) -> PipelineError:
    """The one-line error for an output file that cannot be written."""
    return PipelineError("output", f"cannot write {path}: {exc.strerror}")


def save_mask(path, mask: np.ndarray):
    """First line M=<universe>, second line the bits as {0,1} characters."""
    bits = FeatureMask.from_array(mask).to_bitstring()
    Path(path).write_text(f"M={len(mask)}\n{bits}\n", encoding="utf-8")


def load_mask(path) -> np.ndarray:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise PipelineError("mask", f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise PipelineError("mask", f"malformed mask file: {path}") from exc
    if len(lines) < 2 or not lines[0].startswith("M="):
        raise PipelineError("mask", f"malformed mask file: {path}")
    try:
        m = int(lines[0][2:])
    except ValueError as exc:
        raise PipelineError("mask", f"bad universe size {lines[0]!r}: {path}") from exc
    try:
        mask = FeatureMask.from_bitstring(lines[1])
    except HeuristicError:
        mask = None
    if mask is None or mask.universe != m:
        raise PipelineError("mask", f"mask bits do not match M={m}: {path}")
    return mask.to_array()


def save_mask_sidecar(path, mask: np.ndarray, terms: list[str] | None, gain: np.ndarray):
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature_index", "term", "ig_score"])
        for idx in np.flatnonzero(mask):
            term = terms[idx] if terms else ""
            writer.writerow([int(idx), term, repr(float(gain[idx]))])


# ---------------------------------------------------------------------------
# Snapshot and report codec, checkpoints


def _encode(value):
    """JSON form of a snapshot or report: masks as 0/1 strings, float arrays as
    base64 of little-endian float64 (exact, and shorter than a float list),
    dataclasses as objects with one key per field."""
    if isinstance(value, FeatureMask):
        return value.to_bitstring()
    if isinstance(value, np.ndarray):
        return base64.b64encode(np.asarray(value, dtype="<f8").tobytes()).decode("ascii")
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _decode(hint, value):
    """Inverse of _encode, led by the type hints; a value of the wrong type raises TypeError."""
    if hint in (FeatureMask, np.ndarray) and not isinstance(value, str):
        raise TypeError(f"expected a string for {hint.__name__}, got {value!r}")
    if hint is FeatureMask:
        return FeatureMask.from_bitstring(value)
    if hint is np.ndarray:
        return np.frombuffer(base64.b64decode(value, validate=True), dtype="<f8").astype(np.float64)
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return hint(**{f.name: _decode(hints[f.name], value[f.name])
                       for f in dataclasses.fields(hint)
                       if f.name in value or f.default is dataclasses.MISSING})
    origin = typing.get_origin(hint)
    if origin in (list, tuple):
        return origin(_decode(typing.get_args(hint)[0], v) for v in value)
    if not isinstance(value, (int, float) if hint is float else hint) or isinstance(value, bool):
        raise TypeError(f"expected {hint.__name__}, got {value!r}")
    return float(value) if hint is float else value


def _leaves(value, name=None):
    """(field name, value) of each field of a snapshot that holds a mask or no
    dataclass or list: the masks, the velocity arrays and the numbers."""
    if dataclasses.is_dataclass(value) and not isinstance(value, FeatureMask):
        for f in dataclasses.fields(value):
            yield from _leaves(getattr(value, f.name), f.name)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _leaves(v, name)
    else:
        yield name, value


def _resume_problem(snapshot, universe: int, config: ExperimentConfig) -> str | None:
    """Why the config's search could not have made a decoded snapshot, or None:
    a mask or velocity not over the IG-reduced universe, a flock or swarm of
    another size, a tour whose change is not the schedule's, an empty best,
    bird or pbest mask (a PSO position may be empty), a fitness outside
    [0, 1], a velocity outside [-V_MAX, V_MAX] (NaN too, for both), or an
    elapsed time that is not finite and >= 0."""
    leaves = list(_leaves(snapshot))
    if {len(getattr(v, "bits", v)) for _, v in leaves
            if isinstance(v, (FeatureMask, np.ndarray))} - {universe}:
        return f"masks and velocities must have {universe} entries"
    if isinstance(snapshot, MboSnapshot):
        if snapshot.flock.size != config.flock_size:
            return f"the flock must have {config.flock_size} birds"
        for n, record in enumerate(snapshot.records):
            change = change_count(n, universe, config.base_fraction)  # m' = universe
            if record.change != change:
                return f"tour {n + 1} change {record.change!r} is not the schedule's {change}"
    elif len(snapshot.particles) != config.swarm_size:
        return f"the swarm must have {config.swarm_size} particles"
    for name, value in leaves:
        if name in ("mask", "best_mask", "pbest_mask") and 1 not in value.bits:
            return f"{name} selects no feature"
        if name in ("fitness", "pbest_fitness", "best_fitness", "best") and not 0 <= value <= 1:
            return f"{name} {value!r} is outside [0, 1]"
        if name == "velocity" and not np.all(np.abs(value) <= V_MAX):
            return f"a velocity is outside [-{V_MAX}, {V_MAX}]"
        if name == "elapsed_ms" and not 0 <= value < math.inf:
            return f"elapsed_ms {value!r} is not finite and >= 0"
    return None


def mbo_snapshot_to_json(snap: MboSnapshot) -> dict:
    return _encode(snap)


def pso_snapshot_to_json(snap: PsoSnapshot) -> dict:
    return _encode(snap)


def checkpoint_save(path, method: str, fingerprint: str, payload: dict):
    """Atomic write (synced temp + rename) so a crash never leaves a torn file;
    a write that fails removes its temp file."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "method": method,
        "fingerprint": fingerprint,
        "payload": payload,
    }
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise _unwritable(path, exc) from exc


class _CheckpointWriter:
    """One search's `on_step`: writes the live snapshot once CHECKPOINT_INTERVAL_S
    has passed since the search started or since the last write. `flush()`, called
    after the search returns, writes the last step if it is not on disk yet.
    A search that ran no step (a budget that ends before the first one, or a
    resume from a final checkpoint) writes no file. Nothing is written on an
    exception: a snapshot caught mid-step is torn. So a crash loses at most
    one interval of search, plus the step it interrupts."""

    def __init__(self, write):
        self._write = write  # snapshot -> None; encodes only when called
        self._last = time.monotonic()
        self._pending = None

    def __call__(self, snapshot):
        self._pending = snapshot
        if time.monotonic() - self._last >= CHECKPOINT_INTERVAL_S:
            self.flush()

    def flush(self):
        if self._pending is not None:
            self._write(self._pending)
            self._pending = None
            self._last = time.monotonic()


def run_fingerprint(matrix: DocTermMatrix, config: ExperimentConfig) -> str:
    """SHA-256 binding checkpoints to the corpus content and the search config."""
    search = {name: getattr(config, name) for name in SEARCH_FIELDS}
    payload = json.dumps({"matrix": matrix.fingerprint(), "search": search}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def checkpoint_load(path, fingerprint: str) -> tuple[str, dict]:
    """The (method, payload) of a checkpoint written under `fingerprint`; a
    file that cannot be read, is not a JSON object, or is of another format
    version (1 to 5 included) or of another corpus or search config raises
    PipelineError("checkpoint", ...)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise PipelineError("checkpoint", f"unreadable checkpoint: {exc}") from exc
    if not isinstance(doc, dict):
        raise PipelineError("checkpoint", "malformed checkpoint: not a JSON object")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise PipelineError("checkpoint", f"checkpoint version {doc.get('format_version')} "
                                          f"!= {CHECKPOINT_VERSION}")
    if doc.get("fingerprint") != fingerprint:
        raise PipelineError("checkpoint", "checkpoint from a different corpus or search config")
    try:
        return doc["method"], doc["payload"]
    except KeyError as exc:
        raise PipelineError("checkpoint", f"malformed checkpoint: no {exc} field") from exc


# ---------------------------------------------------------------------------
# Pipeline


def _expand_mask(reduced_mask: FeatureMask, ig_columns: np.ndarray, universe: int) -> np.ndarray:
    """Map a mask over the IG-reduced universe back to original feature indices."""
    full = np.zeros(universe, dtype=bool)
    full[ig_columns[reduced_mask.to_array()]] = True
    return full


def load_input(config: ExperimentConfig) -> tuple[DocTermMatrix, list[str], CorpusStats]:
    """The corpus the config names, as a TF-IDF matrix, its terms and its statistics."""
    with _stage("load", corpus_mod.CorpusError):
        stopwords = (
            corpus_mod.load_stopwords(config.stopwords_path)
            if config.stopwords_path
            else corpus_mod.DEFAULT_STOPWORDS
        )
        raw = corpus_mod.load_corpus(config.corpus_path, config.corpus_format)
        vocab = corpus_mod.build_vocabulary(raw, stopwords)
        matrix = corpus_mod.vectorize_tfidf(raw, vocab)
        return matrix, vocab.term_list(), corpus_mod.compute_stats(raw, vocab)


def run_experiment(
    config: ExperimentConfig,
    matrix: DocTermMatrix | None = None,
    terms: list[str] | None = None,
    stats: CorpusStats | None = None,
    resume_path: str | None = None,
) -> RunReport:
    """Full pipeline: load -> vectorize -> IG filter -> engines seeded from the
    IG mask -> one evaluation step of the raw, IG and searched masks -> every
    output. A pre-built matrix may be injected (synthetic benchmarks);
    otherwise the corpus is loaded from config.

    Each failure it reports is a PipelineError. Every refusal comes before any
    search, fork or output, and before the run directory is made: the
    config, the corpus, IG, a resume checkpoint (`[checkpoint]`: loaded,
    then decoded and checked by _resume_problem once the IG mask is known),
    the evaluation's weights and a class with fewer rows than `folds`
    (`[evaluate]`), then NB's weight check (classifiers._check_nb_weights)
    of the IG columns every search's fitness reads (`[search]`).
    The tree reads every column under `eval_classifier` dt or best, and NB
    under nb or best; a signed weight passes the tree, so `method = ig` with
    `eval_classifier = dt` runs.

    Every run searches first, then evaluates once, then writes once. With
    `method = all` the searches run side by side (forked.side_by_side): MBO
    here and PSO in a forked child, so the run takes about as long as the
    longer search. The child writes PSO's checkpoints itself and sends back
    the best mask, the trace and the evaluation count. A search's own error
    gives `[search]`, and an error in the child gives the exit code and
    error line of the same error in a one-engine run. Once the child is
    joined, one evaluation step (evaluate_masks) scores every mask, so at
    most one child is alive at any time. One loop then writes every mask,
    sidecar and trace file, in method order, and the report. A run that
    fails in its search or its evaluation writes no mask; checkpoints are
    still written on the clock during the search."""
    config.validate()
    if matrix is None:
        matrix, terms, stats = load_input(config)
    if stats is None:
        stats = CorpusStats(
            n_features=matrix.n_features,
            n_instances=matrix.n_docs,
            n_classes=matrix.n_classes,
            avg_words_per_instance=0.0,
            avg_word_length=0.0,
        )

    fingerprint = run_fingerprint(matrix, config)
    resume_method, resume_payload = (None, None)
    if resume_path:
        resume_method, resume_payload = checkpoint_load(resume_path, fingerprint)
        if resume_method not in ("mbo", "pso") or config.method not in (resume_method, "all"):
            raise PipelineError("checkpoint", f"{resume_method!r} checkpoint cannot resume "
                                              f"method {config.method!r}")

    t0 = time.monotonic()
    with _stage("ig", filter_ig.FilterError):
        scores = filter_ig.ig_scores(matrix)
        ig_mask = filter_ig.cap_mask(scores, cap=config.ig_cap)
    ig_scoring_s = time.monotonic() - t0
    ig_columns = np.flatnonzero(ig_mask)

    # built per call, so the engine and encoder names are looked up at run time
    engines = {
        "mbo": (mbo_select, mbo_snapshot_to_json, MboSnapshot),
        "pso": (pso_select, pso_snapshot_to_json, PsoSnapshot),
    }
    resume = None
    if resume_method is not None:  # decoded here, before any evaluation or search
        try:
            resume = _decode(engines[resume_method][2], resume_payload)
        except (KeyError, TypeError, ValueError, HeuristicError) as exc:
            raise PipelineError("checkpoint",
                                f"malformed {resume_method} checkpoint: {exc!r}") from exc
        problem = _resume_problem(resume, len(ig_columns), config)
        if problem:
            raise PipelineError("checkpoint", f"malformed {resume_method} checkpoint: {problem}")

    # the tree reads every column when it evaluates, and NB too when it
    # evaluates: a weight either refuses, or a class with fewer rows than
    # folds, stops the run before any search or output
    with _stage("evaluate", classifiers.ClassifierError):
        if config.eval_classifier in ("dt", "best"):
            classifiers._check_tree_weights(matrix.weights)
        if config.eval_classifier in ("nb", "best"):
            classifiers._check_nb_weights(matrix.weights)
        classifiers.stratified_folds(matrix.labels, config.folds, config.seed)
    names = [name for name in engines if config.method in (name, "all")]
    if names:
        reduced = matrix.restrict_columns(ig_columns)
        with _stage("search", classifiers.ClassifierError):
            classifiers._check_nb_weights(reduced.weights)

    # made once nothing more is refused, so a refused run leaves no directory
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file is in the way
        raise PipelineError("output", f"cannot create {out_dir}: {exc.strerror}") from exc
    input_mask = FeatureMask.ones(len(ig_columns))

    def search(name: str):
        """One engine's search and its checkpoints. It builds a fitness
        function of its own, after any fork, on the IG columns whose weights
        were checked above, so its memo starts empty and its `evaluations`
        are those of a run of that engine alone."""
        select, to_json, _ = engines[name]
        with _stage("search", classifiers.ClassifierError, HeuristicError):
            fitness = FitnessFn(reduced, k=config.folds, seed=config.seed)
            ckpt_path = out_dir / f"checkpoint_{name}.json"
            writer = _CheckpointWriter(
                lambda snap: checkpoint_save(ckpt_path, name, fingerprint, to_json(snap)))
            best, trace = select(input_mask, config, fitness,
                                 resume=resume if name == resume_method else None,
                                 on_step=writer)
            writer.flush()
            evaluations = fitness.evaluations
            # both engines start from the input mask: a first record above its
            # fitness counts as a rise (for PSO, the initial swarm's with it)
            return best, trace, evaluations, last_gain(trace.records, fitness(input_mask))

    found = side_by_side({f"{name} search": functools.partial(search, name) for name in names},
                         functools.partial(PipelineError, "search"))
    # name -> (mask, seconds spent making it, status, evaluations, last gain)
    made = {"raw": (np.ones(matrix.n_features, dtype=bool), 0.0, "ok", 0, 0),
            "ig": (ig_mask, ig_scoring_s, "ok", 0, 0)}
    traces = {}
    for name, (best, trace, evaluations, gained) in zip(names, found):
        made[name] = (_expand_mask(best, ig_columns, matrix.n_features),
                      trace.elapsed_seconds, trace.termination, evaluations, gained)
        traces[name] = trace

    # one evaluation step, once no search child is left: each row's elapsed_s
    # is the making of its mask plus its share of the step
    scored = evaluate_masks(matrix, [mask for mask, *_ in made.values()],
                            config.eval_classifier, config.folds, config.seed)
    methods: list[MethodResult] = []
    try:
        for (name, (mask, made_s, *rest)), (accuracy, classifier, eval_s) in zip(
                made.items(), scored):
            methods.append(MethodResult(name, int(mask.sum()), accuracy, classifier,
                                        made_s + eval_s, *rest))
            if name == "raw":  # every feature: no files
                continue
            save_mask(out_dir / f"mask_{name}.txt", mask)
            save_mask_sidecar(out_dir / f"mask_{name}_features.csv", mask, terms, scores.gain)
            if name in traces:
                _write_trace(out_dir / f"trace_{name}.txt",
                             [r.trace_line(n) for n, r in enumerate(traces[name].records, 1)])
        report = RunReport(corpus=stats, methods=methods, seed=config.seed,
                           config=asdict(config))
        (out_dir / "report.json").write_text(render_report(report, "json"), encoding="utf-8")
    except OSError as exc:  # a write error may name no file: the run directory then
        raise _unwritable(exc.filename or out_dir, exc) from exc
    return report


def _write_trace(path, lines: list[str]):
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def render_report(report: RunReport, style: str = "table") -> str:
    if style == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if style == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["method", "m_prime", "accuracy", "classifier", "elapsed_s", "status",
                         "evaluations", "last_gain"])
        for m in report.methods:
            writer.writerow([m.name, m.m_prime, repr(m.accuracy), m.classifier,
                             f"{m.elapsed_s:.3f}", m.status, m.evaluations, m.last_gain])
        return buf.getvalue()
    if style == "table":
        # mirrors the accuracy-comparison and feature-count table shapes
        names = [m.name for m in report.methods]
        acc = [
            "-" if m.status == "budget" else f"{100.0 * m.accuracy:.1f}"
            for m in report.methods
        ]
        feats = [
            "-" if m.status == "budget" else str(m.m_prime) for m in report.methods
        ]
        widths = [max(len(a), len(b), len(c), 8) for a, b, c in zip(names, acc, feats)]
        fmt = lambda cells: "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        lines = [
            "method    " + fmt(names),
            "accuracy% " + fmt(acc),
            "features  " + fmt(feats),
        ]
        return "\n".join(lines) + "\n"
    raise PipelineError("report", f"unknown style {style!r}")
