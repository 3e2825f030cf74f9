"""Experiment orchestration: config files, the load -> filter -> search ->
evaluate pipeline, mask/report serialization, and checkpointing."""

from __future__ import annotations

import base64
import csv
import hashlib
import io
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import classifiers, corpus as corpus_mod, filter_ig
from .corpus import CorpusStats, DocTermMatrix
from .heuristic import ChangeSchedule, FeatureMask, FitnessFn
from .mbo import (
    Bird,
    Flock,
    MboConfig,
    MboSnapshot,
    MboState,
    RunTrace,
    TourRecord,
    mbo_select,
)
from .pso import IterationRecord, Particle, PsoConfig, PsoSnapshot, PsoTrace, pso_select

CHECKPOINT_VERSION = 2  # 2: PSO velocities as base64 float64
# Config fields that change a search's trajectory; a checkpoint is bound to them.
SEARCH_FIELDS = ("seed", "folds", "ig_cap", "flock_size", "neighbors",
                 "base_fraction", "swarm_size", "pso_iterations")


class PipelineError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class CheckpointError(Exception):
    pass


@dataclass
class ExperimentConfig:
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
        """Flat key = value lines, UTF-8, '#' comments."""
        cfg = ExperimentConfig()
        types = {f.name: type(getattr(cfg, f.name)) for f in cfg.__dataclass_fields__.values()}
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise PipelineError("config", f"cannot read {path}: {exc.strerror}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
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
        if self.budget_seconds <= 0:
            raise PipelineError("config", "budget_seconds must be > 0")
        if self.ig_cap < 1:
            raise PipelineError("config", "ig_cap must be >= 1")
        if self.method not in ("ig", "mbo", "pso", "all"):
            raise PipelineError("config", f"unknown method {self.method!r}")


@dataclass
class MethodResult:
    name: str  # raw | ig | mbo | pso
    m_prime: int
    accuracy: float
    classifier: str
    elapsed_s: float
    status: str  # ok | stagnation | max-tours | max-iterations | budget


@dataclass
class RunReport:
    corpus: CorpusStats
    methods: list[MethodResult]
    seed: int
    config: dict

    def to_dict(self) -> dict:
        return {
            "corpus": asdict(self.corpus),
            "methods": [asdict(m) for m in self.methods],
            "seed": self.seed,
            "config": self.config,
        }

    @staticmethod
    def from_dict(d: dict) -> "RunReport":
        return RunReport(
            corpus=CorpusStats(**d["corpus"]),
            methods=[MethodResult(**m) for m in d["methods"]],
            seed=d["seed"],
            config=d["config"],
        )


def evaluate_mask(
    matrix: DocTermMatrix, mask: np.ndarray, classifier: str, k: int, seed: int
) -> tuple[float, str]:
    """Accuracy under the named classifier, or the best of nb/dt (tie -> nb)."""
    if classifier in ("nb", "dt"):
        return (
            classifiers.cross_val_accuracy(matrix, mask, classifier, k, seed).mean_accuracy,
            classifier,
        )
    nb = classifiers.cross_val_accuracy(matrix, mask, "nb", k, seed).mean_accuracy
    dt = classifiers.cross_val_accuracy(matrix, mask, "dt", k, seed).mean_accuracy
    return (nb, "nb") if nb >= dt else (dt, "dt")


# ---------------------------------------------------------------------------
# Mask files


def save_mask(path, mask: np.ndarray):
    """First line M=<universe>, second line the bits as {0,1} characters."""
    bits = "".join("1" if b else "0" for b in mask)
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
    bits = lines[1]
    if len(bits) != m or set(bits) - {"0", "1"}:
        raise PipelineError("mask", f"mask bits do not match M={m}: {path}")
    return np.array([ch == "1" for ch in bits])


def save_mask_sidecar(path, mask: np.ndarray, terms: list[str] | None, gain: np.ndarray):
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature_index", "term", "ig_score"])
        for idx in np.flatnonzero(mask):
            term = terms[idx] if terms else ""
            writer.writerow([int(idx), term, repr(float(gain[idx]))])


# ---------------------------------------------------------------------------
# Checkpoints


def _mask_to_json(mask: FeatureMask) -> str:
    return mask.to_bitstring()


def _flock_to_json(flock: Flock) -> dict:
    bird = lambda b: {"mask": _mask_to_json(b.mask), "fitness": b.fitness}
    return {
        "leader": bird(flock.leader),
        "left": [bird(b) for b in flock.left],
        "right": [bird(b) for b in flock.right],
    }


def _flock_from_json(d: dict) -> Flock:
    bird = lambda b: Bird(mask=FeatureMask.from_bitstring(b["mask"]), fitness=b["fitness"])
    return Flock(
        leader=bird(d["leader"]),
        left=tuple(bird(b) for b in d["left"]),
        right=tuple(bird(b) for b in d["right"]),
    )


def mbo_snapshot_to_json(snap: MboSnapshot) -> dict:
    s = snap.state
    return {
        "state": {
            "f_max": s.f_max,
            "b_max": _mask_to_json(s.b_max),
            "f1": s.f1,
            "f2": s.f2,
            "f3": s.f3,
            "counter": s.counter,
        },
        "flock": _flock_to_json(snap.flock),
        "elapsed_seconds": snap.elapsed_seconds,
        "trace": [asdict(r) for r in snap.trace.records],
    }


def mbo_snapshot_from_json(d: dict) -> MboSnapshot:
    s = d["state"]
    state = MboState(
        f_max=s["f_max"],
        b_max=FeatureMask.from_bitstring(s["b_max"]),
        f1=s["f1"],
        f2=s["f2"],
        f3=s["f3"],
        counter=s["counter"],
    )
    trace = RunTrace(records=[TourRecord(**r) for r in d["trace"]])
    return MboSnapshot(
        state=state,
        flock=_flock_from_json(d["flock"]),
        elapsed_seconds=d["elapsed_seconds"],
        trace=trace,
    )


def _velocity_to_json(v: np.ndarray) -> str:
    """Base64 of the little-endian float64 bytes: exact, and shorter than a float list."""
    return base64.b64encode(np.asarray(v, dtype="<f8").tobytes()).decode("ascii")


def _velocity_from_json(s: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(s), dtype="<f8").astype(np.float64)


def pso_snapshot_to_json(snap: PsoSnapshot) -> dict:
    return {
        "particles": [
            {
                "position": _mask_to_json(p.position),
                "velocity": _velocity_to_json(p.velocity),
                "pbest_mask": _mask_to_json(p.pbest_mask),
                "pbest_fitness": p.pbest_fitness,
            }
            for p in snap.particles
        ],
        "gbest_mask": _mask_to_json(snap.gbest_mask),
        "gbest_fitness": snap.gbest_fitness,
        "iteration": snap.iteration,
        "elapsed_seconds": snap.elapsed_seconds,
        "trace": [asdict(r) for r in snap.trace.records],
    }


def pso_snapshot_from_json(d: dict) -> PsoSnapshot:
    particles = [
        Particle(
            position=FeatureMask.from_bitstring(p["position"]),
            velocity=_velocity_from_json(p["velocity"]),
            pbest_mask=FeatureMask.from_bitstring(p["pbest_mask"]),
            pbest_fitness=p["pbest_fitness"],
        )
        for p in d["particles"]
    ]
    trace = PsoTrace(records=[IterationRecord(**r) for r in d["trace"]])
    return PsoSnapshot(
        particles=particles,
        gbest_mask=FeatureMask.from_bitstring(d["gbest_mask"]),
        gbest_fitness=d["gbest_fitness"],
        iteration=d["iteration"],
        elapsed_seconds=d["elapsed_seconds"],
        trace=trace,
    )


def checkpoint_save(path, method: str, fingerprint: str, payload: dict):
    """Atomic write (temp + rename) so a crash never leaves a torn file."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "method": method,
        "fingerprint": fingerprint,
        "payload": payload,
    }
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc), encoding="utf-8")
    os.replace(tmp, path)


def run_fingerprint(matrix: DocTermMatrix, config: ExperimentConfig) -> str:
    """SHA-256 binding checkpoints to the corpus content and the search config."""
    search = {name: getattr(config, name) for name in SEARCH_FIELDS}
    payload = json.dumps({"matrix": matrix.fingerprint(), "search": search}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def checkpoint_load(path, fingerprint: str) -> tuple[str, dict]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint: {exc}") from exc
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {doc.get('format_version')} != {CHECKPOINT_VERSION}"
        )
    if doc.get("fingerprint") != fingerprint:
        raise CheckpointError("checkpoint from a different corpus or search config")
    return doc["method"], doc["payload"]


# ---------------------------------------------------------------------------
# Pipeline


def _expand_mask(reduced_mask: FeatureMask, ig_columns: np.ndarray, universe: int) -> np.ndarray:
    """Map a mask over the IG-reduced universe back to original feature indices."""
    full = np.zeros(universe, dtype=bool)
    full[ig_columns[reduced_mask.to_array()]] = True
    return full


def run_experiment(
    config: ExperimentConfig,
    matrix: DocTermMatrix | None = None,
    terms: list[str] | None = None,
    stats: CorpusStats | None = None,
    resume_path: str | None = None,
) -> RunReport:
    """Full pipeline: load -> vectorize -> raw baseline -> IG filter -> engines
    seeded from the IG mask -> evaluation. A pre-built matrix may be injected
    (synthetic benchmarks); otherwise the corpus is loaded from config."""
    config.validate()
    if matrix is None:
        try:
            stopwords = (
                corpus_mod.load_stopwords(config.stopwords_path)
                if config.stopwords_path
                else corpus_mod.DEFAULT_STOPWORDS
            )
            raw = corpus_mod.load_corpus(config.corpus_path, config.corpus_format)
            vocab = corpus_mod.build_vocabulary(raw, stopwords)
            matrix = corpus_mod.vectorize_tfidf(raw, vocab, stopwords)
            terms = vocab.term_list()
            stats = corpus_mod.compute_stats(raw, vocab, stopwords)
        except corpus_mod.CorpusError as exc:
            raise PipelineError("load", str(exc)) from exc
    if stats is None:
        stats = CorpusStats(
            n_features=matrix.n_features,
            n_instances=matrix.n_docs,
            n_classes=matrix.n_classes,
            avg_words_per_instance=0.0,
            avg_word_length=0.0,
        )

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fingerprint = run_fingerprint(matrix, config)

    methods: list[MethodResult] = []

    t0 = time.monotonic()
    raw_acc, raw_clf = evaluate_mask(
        matrix, np.ones(matrix.n_features, dtype=bool), config.eval_classifier,
        config.folds, config.seed,
    )
    methods.append(MethodResult("raw", matrix.n_features, raw_acc, raw_clf,
                                time.monotonic() - t0, "ok"))

    try:
        t0 = time.monotonic()
        scores = filter_ig.ig_scores(matrix)
        ig_mask = filter_ig.cap_mask(scores, cap=config.ig_cap)
    except filter_ig.FilterError as exc:
        raise PipelineError("ig", str(exc)) from exc
    ig_acc, ig_clf = evaluate_mask(matrix, ig_mask, config.eval_classifier,
                                   config.folds, config.seed)
    methods.append(MethodResult("ig", int(ig_mask.sum()), ig_acc, ig_clf,
                                time.monotonic() - t0, "ok"))
    save_mask(out_dir / "mask_ig.txt", ig_mask)
    save_mask_sidecar(out_dir / "mask_ig_features.csv", ig_mask, terms, scores.gain)

    if config.method != "ig":
        ig_columns = np.flatnonzero(ig_mask)
        reduced = matrix.restrict_columns(ig_columns)
        input_mask = FeatureMask.ones(len(ig_columns))
        # one fitness fn (fold seed + memo table) shared by both engines
        fitness = FitnessFn(reduced, classifier="nb", k=config.folds, seed=config.seed)
        schedule = ChangeSchedule(base_fraction=config.base_fraction)

        resume_method, resume_payload = (None, None)
        if resume_path:
            resume_method, resume_payload = checkpoint_load(resume_path, fingerprint)

        if config.method in ("mbo", "all"):
            mbo_cfg = MboConfig(
                flock_size=config.flock_size,
                neighbors=config.neighbors,
                schedule=schedule,
                budget_seconds=config.budget_seconds,
                seed=config.seed,
            )
            ckpt_path = out_dir / "checkpoint_mbo.json"
            on_tour = lambda snap: checkpoint_save(
                ckpt_path, "mbo", fingerprint, mbo_snapshot_to_json(snap)
            )
            resume = (
                mbo_snapshot_from_json(resume_payload)
                if resume_method == "mbo"
                else None
            )
            best, _state, trace = mbo_select(
                reduced, input_mask, mbo_cfg, fitness=fitness,
                resume=resume, on_tour=on_tour,
            )
            full = _expand_mask(best, ig_columns, matrix.n_features)
            acc, clf = evaluate_mask(matrix, full, config.eval_classifier,
                                     config.folds, config.seed)
            methods.append(MethodResult("mbo", int(full.sum()), acc, clf,
                                        trace.elapsed_seconds, trace.termination))
            save_mask(out_dir / "mask_mbo.txt", full)
            save_mask_sidecar(out_dir / "mask_mbo_features.csv", full, terms, scores.gain)
            _write_trace(out_dir / "trace_mbo.txt", [
                f"tour={r.counter} change={r.change} f_max={r.f_max!r} elapsed_ms={r.elapsed_ms:.1f}"
                for r in trace.records
            ])

        if config.method in ("pso", "all"):
            pso_cfg = PsoConfig(
                swarm_size=config.swarm_size,
                max_iterations=config.pso_iterations,
                schedule=schedule,
                budget_seconds=config.budget_seconds,
                seed=config.seed,
            )
            ckpt_path = out_dir / "checkpoint_pso.json"
            on_iter = lambda snap: checkpoint_save(
                ckpt_path, "pso", fingerprint, pso_snapshot_to_json(snap)
            )
            resume = (
                pso_snapshot_from_json(resume_payload)
                if resume_method == "pso"
                else None
            )
            best, trace = pso_select(
                reduced, input_mask, pso_cfg, fitness=fitness,
                resume=resume, on_iteration=on_iter,
            )
            full = _expand_mask(best, ig_columns, matrix.n_features)
            acc, clf = evaluate_mask(matrix, full, config.eval_classifier,
                                     config.folds, config.seed)
            methods.append(MethodResult("pso", int(full.sum()), acc, clf,
                                        trace.elapsed_seconds, trace.termination))
            save_mask(out_dir / "mask_pso.txt", full)
            save_mask_sidecar(out_dir / "mask_pso_features.csv", full, terms, scores.gain)
            _write_trace(out_dir / "trace_pso.txt", [
                f"iteration={r.iteration} gbest={r.gbest_fitness!r} elapsed_ms={r.elapsed_ms:.1f}"
                for r in trace.records
            ])

    report = RunReport(corpus=stats, methods=methods, seed=config.seed,
                       config=asdict(config))
    (out_dir / "report.json").write_text(
        render_report(report, "json"), encoding="utf-8"
    )
    return report


def _write_trace(path, lines: list[str]):
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def render_report(report: RunReport, style: str = "table") -> str:
    if style == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if style == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["method", "m_prime", "accuracy", "classifier", "elapsed_s", "status"])
        for m in report.methods:
            writer.writerow([m.name, m.m_prime, repr(m.accuracy), m.classifier,
                             f"{m.elapsed_s:.3f}", m.status])
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
