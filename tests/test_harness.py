import dataclasses
import hashlib
import importlib
import json
import multiprocessing
import os
import re
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from mbofs.harness import (
    _decode,
    ExperimentConfig,
    MethodResult,
    PipelineError,
    RunReport,
    checkpoint_load,
    checkpoint_save,
    run_fingerprint,
    load_mask,
    mbo_snapshot_to_json,
    pso_snapshot_to_json,
    render_report,
    run_experiment,
    save_mask,
    save_mask_sidecar,
)
from mbofs import classifiers, harness
from mbofs.corpus import CorpusStats
from mbofs.filter_ig import cap_mask, ig_scores
from mbofs.heuristic import FeatureMask, FitnessFn
from mbofs.mbo import MboSnapshot, mbo_select
from mbofs.pso import PsoSnapshot, pso_select
from mbofs.synth import make_planted_matrix


class TestConfig:
    def test_parse_and_defaults(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "# demo config\n"
            "corpus_path = data.tsv\n"
            "ig_cap = 100  # capped small\n"
            "seed = 7\n"
            "budget_seconds = 30\n"
        )
        cfg = ExperimentConfig.from_file(p)
        assert cfg.corpus_path == "data.tsv"
        assert cfg.ig_cap == 100
        assert cfg.seed == 7
        assert cfg.budget_seconds == 30.0
        assert cfg.folds == 5  # untouched default

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "#folds = 9\n"
            "  # an indented comment\n"
            "corpus_path = c#1.tsv\n"
            "out_dir = runs/a#b\t# a comment after a tab\n"
            "seed = 7 #a comment after a space\n",
            encoding="utf-8",
        )
        cfg = ExperimentConfig.from_file(p)
        assert (cfg.corpus_path, cfg.out_dir, cfg.seed, cfg.folds) == ("c#1.tsv", "runs/a#b", 7, 5)

    def test_byte_order_mark(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("\ufefffolds = 3\nseed = 2\n", encoding="utf-8")
        cfg = ExperimentConfig.from_file(p)
        assert (cfg.folds, cfg.seed) == (3, 2)

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("not_a_key = 1\n")
        with pytest.raises(PipelineError, match="unknown key"):
            ExperimentConfig.from_file(p)

    def test_validation(self):
        for field, value in [
            ("folds", 1), ("seed", -1), ("swarm_size", 0), ("swarm_size", -2),
            ("base_fraction", float("nan")), ("base_fraction", -0.1), ("base_fraction", 1.5),
            ("budget_seconds", float("nan")), ("eval_classifier", "NB"),
            ("flock_size", 4), ("flock_size", 1), ("neighbors", 2),
            ("pso_iterations", 0), ("pso_iterations", -5),
        ]:
            with pytest.raises(PipelineError, match=field):
                ExperimentConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field, value", [
        ("seed", 0), ("swarm_size", 1), ("base_fraction", 0.0), ("base_fraction", 1.0),
        ("eval_classifier", "nb"), ("eval_classifier", "dt"), ("flock_size", 3),
        ("neighbors", 3), ("pso_iterations", 1),
    ])
    def test_validation_accepts_edges(self, field, value):
        ExperimentConfig(**{field: value}).validate()


class TestMaskFiles:
    def test_roundtrip(self, tmp_path):
        mask = np.array([True, False, True, True, False])
        p = tmp_path / "m.txt"
        save_mask(p, mask)
        assert p.read_text(encoding="utf-8") == "M=5\n10110\n"
        np.testing.assert_array_equal(load_mask(p), mask)

    def test_malformed(self, tmp_path):
        p = tmp_path / "m.txt"
        for bits in ["101", "10x1", "10 1", "1\u066101", "1\u00b901", "????"]:
            p.write_text(f"M=4\n{bits}\n", encoding="utf-8")
            with pytest.raises(PipelineError, match="mask bits do not match M=4"):
                load_mask(p)

    def test_sidecar(self, tmp_path):
        p = tmp_path / "side.csv"
        save_mask_sidecar(p, np.array([True, False, True]),
                          ["cat", "dog", "fish"], np.array([0.5, 0.1, 0.25]))
        rows = p.read_text().splitlines()
        assert rows[0] == "feature_index,term,ig_score"
        assert rows[1].startswith("0,cat,")
        assert rows[2].startswith("2,fish,")


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "ck.json"
        checkpoint_save(p, "mbo", "fp", {"x": 1})
        method, payload = checkpoint_load(p, "fp")
        assert method == "mbo"
        assert payload == {"x": 1}

    def test_fingerprint_mismatch(self, tmp_path):
        p = tmp_path / "ck.json"
        checkpoint_save(p, "mbo", "fp-a", {})
        with pytest.raises(PipelineError, match=r"^\[checkpoint\] checkpoint from a different"):
            checkpoint_load(p, "fp-b")

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "ck.json"
        # 1: velocities as float lists; 2: traces as bare record lists; 3: step counts
        # and elapsed time kept beside the trace; 4: records inside a trace; 5: the
        # best kept as b_max/f_max (MBO) and gbest_mask/gbest_fitness (PSO)
        for version in (1, 2, 3, 4, 5, 99):
            p.write_text(json.dumps({"format_version": version, "fingerprint": "fp"}))
            with pytest.raises(PipelineError, match=r"^\[checkpoint\] checkpoint version"):
                checkpoint_load(p, "fp")

    def test_truncated(self, tmp_path):
        p = tmp_path / "ck.json"
        checkpoint_save(p, "mbo", "fp", {"x": 1})
        p.write_text(p.read_text()[:20])
        with pytest.raises(PipelineError, match=r"^\[checkpoint\] unreadable checkpoint"):
            checkpoint_load(p, "fp")

    def test_mbo_resume_matches_uninterrupted(self):
        matrix, _ = make_planted_matrix(n_docs=80, n_features=60, n_informative=10, seed=3)
        cfg = ExperimentConfig(seed=5, flock_size=5, budget_seconds=120)
        mask = FeatureMask.ones(60)

        full_best, full_trace = mbo_select(mask, cfg, fitness=FitnessFn(matrix, seed=5))

        snaps = []

        class Stop(Exception):
            pass

        def on_step(snap):
            snaps.append(mbo_snapshot_to_json(snap))  # serialize like the harness
            if len(snaps) == 2:
                raise Stop()

        with pytest.raises(Stop):
            mbo_select(mask, cfg, fitness=FitnessFn(matrix, seed=5), on_step=on_step)
        resumed = _decode(MboSnapshot, snaps[-1])
        res_best, res_trace = mbo_select(mask, cfg,
                                         fitness=FitnessFn(matrix, seed=5), resume=resumed)
        assert res_best == full_best
        kept = snaps[-1]["records"]  # the clock resumes from the last record's
        assert res_trace.records[len(kept)].elapsed_ms >= kept[-1]["elapsed_ms"]
        assert len(full_trace.records) > 2  # the resume flew tours of its own
        assert _steps(res_trace) == _steps(full_trace)

    def test_pso_resume_matches_uninterrupted(self):
        matrix, _ = make_planted_matrix(n_docs=80, n_features=60, n_informative=10, seed=3)
        cfg = ExperimentConfig(seed=5, swarm_size=8, pso_iterations=6, budget_seconds=120)
        mask = FeatureMask.ones(60)

        full_best, full_trace = pso_select(mask, cfg, fitness=FitnessFn(matrix, seed=5))

        snaps = []

        class Stop(Exception):
            pass

        def on_step(snap):
            snaps.append(pso_snapshot_to_json(snap))  # serialize like the harness
            if len(snaps) == 2:
                raise Stop()

        with pytest.raises(Stop):
            pso_select(mask, cfg, fitness=FitnessFn(matrix, seed=5), on_step=on_step)
        resumed = _decode(PsoSnapshot, json.loads(json.dumps(snaps[-1])))
        assert pso_snapshot_to_json(resumed) == snaps[-1]  # velocities round-trip exactly
        res_best, res_trace = pso_select(mask, cfg,
                                         fitness=FitnessFn(matrix, seed=5), resume=resumed)
        assert res_best == full_best
        kept = snaps[-1]["records"]  # the clock resumes from the last record's
        assert res_trace.records[len(kept)].elapsed_ms >= kept[-1]["elapsed_ms"]
        assert len(full_trace.records) > 2
        assert _steps(res_trace) == _steps(full_trace)


def _steps(trace):
    """A trace without its timings: the records, their rendered lines up to
    `elapsed_ms` (step numbers included) and the termination reason."""
    return ([dataclasses.replace(r, elapsed_ms=0.0) for r in trace.records],
            [r.trace_line(n).split(" elapsed_ms=")[0] for n, r in enumerate(trace.records, 1)],
            trace.termination)


def test_snapshot_codec_roundtrip_exact():
    """Both snapshot types survive JSON text unchanged, trace and velocities included."""
    matrix, _ = make_planted_matrix(n_docs=60, n_features=40, n_informative=8, seed=3)
    mask = FeatureMask.ones(40)
    docs = {}
    mbo_select(mask, ExperimentConfig(seed=1, flock_size=5, budget_seconds=60),
               fitness=FitnessFn(matrix, seed=1),
               on_step=lambda snap: docs.update(mbo=mbo_snapshot_to_json(snap)))
    pso_select(mask, ExperimentConfig(seed=1, swarm_size=4, pso_iterations=3),
               fitness=FitnessFn(matrix, seed=1),
               on_step=lambda snap: docs.update(pso=pso_snapshot_to_json(snap)))
    for name, to_json, cls in [("mbo", mbo_snapshot_to_json, MboSnapshot),
                               ("pso", pso_snapshot_to_json, PsoSnapshot)]:
        back = _decode(cls, json.loads(json.dumps(docs[name])))
        assert to_json(back) == docs[name], name
        assert back.records and back.records[-1].elapsed_ms > 0.0


def _report():
    return RunReport(
        corpus=CorpusStats(10, 4, 2, 3.0, 4.5),
        methods=[
            MethodResult("raw", 10, 0.75, "nb", 1.0, "ok"),
            MethodResult("mbo", 6, 0.875, "nb", 2.0, "stagnation", 120, 4),
            MethodResult("pso", 7, 0.8, "nb", 2.0, "budget"),
        ],
        seed=3,
        config={"seed": 3},
    )


class TestRenderReport:
    def test_json_roundtrip(self):
        r = _report()
        back = RunReport.from_dict(json.loads(render_report(r, "json")))
        assert back == r

    def test_table_budget_dash(self):
        text = render_report(_report(), "table")
        assert "-" in text
        assert "87.5" in text  # one decimal, percent

    def test_csv(self):
        rows = render_report(_report(), "csv").splitlines()
        assert rows[0].startswith("method,")
        assert rows[0].endswith(",evaluations,last_gain")
        assert rows[1].endswith(",0,0")  # raw: no search
        assert rows[2].endswith(",stagnation,120,4")
        assert len(rows) == 4

    def test_unknown_style(self):
        with pytest.raises(PipelineError):
            render_report(_report(), "xml")


def _demo_config(demo_tsv, tmp_path, **kw):
    base = dict(
        corpus_path=str(demo_tsv),
        corpus_format="tsv",
        ig_cap=30,
        method="all",
        folds=5,
        seed=0,
        budget_seconds=60.0,
        flock_size=5,
        swarm_size=8,
        pso_iterations=5,
        out_dir=str(tmp_path / "run"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunExperiment:

    def test_ig_only(self, demo_tsv, tmp_path):
        report = run_experiment(_demo_config(demo_tsv, tmp_path, method="ig"))
        names = [m.name for m in report.methods]
        assert names == ["raw", "ig"]
        ig = report.methods[1]
        assert ig.m_prime <= 30
        assert (tmp_path / "run" / "mask_ig.txt").exists()
        assert (tmp_path / "run" / "report.json").exists()

    def test_all_methods_and_guarantee(self, demo_tsv, tmp_path):
        report = run_experiment(_demo_config(demo_tsv, tmp_path))
        by_name = {m.name: m for m in report.methods}
        assert set(by_name) == {"raw", "ig", "mbo", "pso"}
        ig_mask = load_mask(tmp_path / "run" / "mask_ig.txt")
        for engine in ("mbo", "pso"):
            mask = load_mask(tmp_path / "run" / f"mask_{engine}.txt")
            assert by_name[engine].m_prime == mask.sum()
            assert mask.sum() <= ig_mask.sum()
            assert np.all(ig_mask[mask])  # engines stay inside the IG universe

    def test_deterministic_reports(self, demo_tsv, tmp_path):
        r1 = run_experiment(_demo_config(demo_tsv, tmp_path, out_dir=str(tmp_path / "a")))
        r2 = run_experiment(_demo_config(demo_tsv, tmp_path, out_dir=str(tmp_path / "b")))
        for m1, m2 in zip(r1.methods, r2.methods):
            assert (m1.name, m1.m_prime, m1.accuracy, m1.classifier) == (
                m2.name, m2.m_prime, m2.accuracy, m2.classifier)
        a = (tmp_path / "a" / "mask_mbo.txt").read_bytes()
        b = (tmp_path / "b" / "mask_mbo.txt").read_bytes()
        assert a == b

    def test_trace_files_match_readme_format(self, demo_tsv, tmp_path):
        # perfbench/checks.py parses f_max= and perfbench/run.py counts tours as lines
        run_experiment(_demo_config(demo_tsv, tmp_path))
        run = tmp_path / "run"
        mbo = json.loads((run / "checkpoint_mbo.json").read_text(encoding="utf-8"))
        pso = json.loads((run / "checkpoint_pso.json").read_text(encoding="utf-8"))
        for engine, pattern, steps in [
            ("mbo", r"tour=(\d+) change=[1-9]\d* f_max=(\S+) elapsed_ms=\d+\.\d",
             len(mbo["payload"]["records"])),
            ("pso", r"iteration=(\d+) gbest=(\S+) elapsed_ms=\d+\.\d",
             len(pso["payload"]["records"])),
        ]:
            lines = (run / f"trace_{engine}.txt").read_text(encoding="utf-8").splitlines()
            assert len(lines) == steps > 0, engine  # one line per tour or iteration
            for n, line in enumerate(lines, 1):
                match = re.fullmatch(pattern, line)
                assert match, line
                assert int(match[1]) == n
                assert match[2] == repr(float(match[2])), line  # repr, not rounded
        assert len(pso["payload"]["records"]) == 5  # pso_iterations

    @pytest.mark.parametrize("engine, key", [("mbo", "f_max"), ("pso", "gbest")])
    def test_checkpoint_keeps_best_as_the_trace_shows(self, demo_tsv, tmp_path, engine, key):
        # both snapshots keep their global best under one name, and each
        # record's best is the value its trace-file line prints
        run_experiment(_demo_config(demo_tsv, tmp_path, method=engine))
        run = tmp_path / "run"
        doc = json.loads((run / f"checkpoint_{engine}.json").read_text(encoding="utf-8"))
        payload = doc["payload"]
        assert {"best_mask", "best_fitness", "records"} <= payload.keys()
        lines = (run / f"trace_{engine}.txt").read_text(encoding="utf-8").splitlines()
        shown = [float(re.search(rf" {key}=(\S+) ", line)[1]) for line in lines]
        assert [record["best"] for record in payload["records"]] == shown
        assert payload["best_fitness"] == shown[-1]

    def test_rows_count_evaluations_and_last_gain(self, demo_tsv, tmp_path, monkeypatch):
        made = []

        class Recorded(FitnessFn):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(harness, "FitnessFn", Recorded)
        report = run_experiment(_demo_config(demo_tsv, tmp_path))
        rows = {m.name: m for m in report.methods}
        assert rows["raw"].evaluations == rows["ig"].evaluations == 0
        assert rows["raw"].last_gain == rows["ig"].last_gain == 0
        for engine, key in (("mbo", "f_max"), ("pso", "gbest")):
            # each search scores with a fitness function of its own, so its row
            # in an `all` run is the row of that engine run alone
            made.clear()
            out = tmp_path / f"alone_{engine}"
            alone = run_experiment(_demo_config(demo_tsv, tmp_path, method=engine,
                                                out_dir=str(out)))
            row = alone.methods[-1]
            (fitness,) = made
            assert row.name == engine
            assert row.evaluations == fitness.evaluations > 0, engine
            assert dataclasses.replace(rows[engine], elapsed_s=0.0) == dataclasses.replace(
                row, elapsed_s=0.0), engine
            assert (out / f"mask_{engine}.txt").read_bytes() == (
                tmp_path / "run" / f"mask_{engine}.txt").read_bytes(), engine
            start = fitness(FeatureMask.ones(rows["ig"].m_prime))  # the searches' input
            lines = (tmp_path / "run" / f"trace_{engine}.txt").read_text(encoding="utf-8")
            best = [start] + [float(v) for v in re.findall(key + r"=(\S+)", lines)]
            gain = rows[engine].last_gain
            # the best rose at step `gain` (unless 0) and never after it
            assert gain == 0 or best[gain] > best[gain - 1]
            assert best[gain:] == [best[gain]] * len(best[gain:]), engine

    def test_without_fork_both_searches_run_here_alike(self, demo_tsv, tmp_path, monkeypatch):
        forked = run_experiment(_demo_config(demo_tsv, tmp_path, out_dir=str(tmp_path / "f")))
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        ran = []
        for name in ("mbo_select", "pso_select"):
            def recording(*args, select=getattr(harness, name), **kwargs):
                ran.append(os.getpid())
                return select(*args, **kwargs)
            monkeypatch.setattr(harness, name, recording)
        serial = run_experiment(_demo_config(demo_tsv, tmp_path, out_dir=str(tmp_path / "s")))
        assert ran == [os.getpid()] * 2
        assert [dataclasses.replace(m, elapsed_s=0.0) for m in serial.methods] == [
            dataclasses.replace(m, elapsed_s=0.0) for m in forked.methods]
        for engine in ("mbo", "pso"):
            assert (tmp_path / "s" / f"mask_{engine}.txt").read_bytes() == (
                tmp_path / "f" / f"mask_{engine}.txt").read_bytes(), engine
            assert _untimed_lines(tmp_path / "s", engine) == _untimed_lines(
                tmp_path / "f", engine), engine

    def test_evaluation_starts_after_every_search_child_is_gone(self, tmp_path, monkeypatch):
        # PSO's child outlives MBO's search; every mask is scored in one
        # step, once the child is joined, so its fold trees fork beside no
        # search child
        select = harness.pso_select
        cross_val = classifiers.cross_val_accuracies
        alive = []

        def slow(*args, **kwargs):
            time.sleep(1.0)
            return select(*args, **kwargs)

        def probed(*args, **kwargs):
            alive.append(len(multiprocessing.active_children()))
            return cross_val(*args, **kwargs)

        monkeypatch.setattr(harness, "pso_select", slow)
        monkeypatch.setattr(classifiers, "cross_val_accuracies", probed)
        matrix, _ = make_planted_matrix(n_docs=80, n_features=60, n_informative=10, seed=3)
        report = run_experiment(ExperimentConfig(
            ig_cap=30, method="all", eval_classifier="best", flock_size=5, swarm_size=6,
            pso_iterations=3, out_dir=str(tmp_path / "run")), matrix=matrix)
        assert [m.name for m in report.methods] == ["raw", "ig", "mbo", "pso"]
        assert alive == [0]

    def test_missing_corpus_is_pipeline_error(self, tmp_path):
        cfg = ExperimentConfig(corpus_path=str(tmp_path / "nope.tsv"),
                               out_dir=str(tmp_path / "run"))
        with pytest.raises(PipelineError, match=r"\[load\]"):
            run_experiment(cfg)

    def test_signed_weights_stop_before_any_search_step(self, tmp_path, monkeypatch):
        # naive Bayes refuses a negative weight: the raw evaluation fails with
        # one line, before any engine runs or any mask is written
        matrix, _ = make_planted_matrix(n_docs=80, n_features=60, n_informative=10, seed=3)
        matrix.weights.data[7] = -0.5
        for engine in ("mbo_select", "pso_select"):
            monkeypatch.setattr(harness, engine, lambda *args, **kw: pytest.fail("search ran"))
        cfg = ExperimentConfig(ig_cap=30, eval_classifier="nb", out_dir=str(tmp_path / "run"))
        with pytest.raises(PipelineError) as err:
            run_experiment(cfg, matrix=matrix)
        assert str(err.value) == ("[evaluate] naive Bayes needs non-negative finite weights, "
                                  "and the matrix stores -0.5")
        assert not (tmp_path / "run").exists()

    @staticmethod
    def _signed_in_an_ig_column(cap):
        """A planted matrix with one weight of an IG column set to -0.5."""
        matrix, _ = make_planted_matrix(n_docs=80, n_features=60, n_informative=10, seed=3)
        ig = np.flatnonzero(cap_mask(ig_scores(matrix), cap))
        columns = matrix.weights.indices
        at = np.flatnonzero(np.isin(columns, ig))[0]
        matrix.weights.data[at] = -0.5
        assert cap_mask(ig_scores(matrix), cap)[columns[at]]
        return matrix

    @staticmethod
    def _no_search(monkeypatch):
        """Fails the test if a search starts, forked (side_by_side) or not."""
        for name in ("mbo_select", "pso_select", "side_by_side"):
            monkeypatch.setattr(harness, name, lambda *args, **kw: pytest.fail("search ran"))

    @pytest.mark.parametrize("method", ["mbo", "pso", "all"])
    def test_signed_weight_under_dt_evaluation_stops_before_any_output(self, tmp_path,
                                                                      monkeypatch, method):
        # every search's NB fitness reads the IG columns: the run stops before
        # it searches, forks, evaluates or writes anything
        matrix = self._signed_in_an_ig_column(30)
        self._no_search(monkeypatch)
        cfg = ExperimentConfig(ig_cap=30, method=method, eval_classifier="dt",
                               out_dir=str(tmp_path / "run"))
        with pytest.raises(PipelineError) as err:
            run_experiment(cfg, matrix=matrix)
        assert str(err.value) == ("[search] naive Bayes needs non-negative finite weights, "
                                  "and the matrix stores -0.5")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("method", ["mbo", "pso", "all"])
    def test_nb_overflow_in_the_search_stops_before_the_run_directory(self, tmp_path,
                                                                     monkeypatch, method):
        # every weight is finite and non-negative, and the tree evaluates, so
        # the evaluation's checks pass; NB's check of the IG columns refuses
        # the column whose class mass overflows, before the run directory is
        # made and before any search or fork
        self._no_search(monkeypatch)
        matrix, informative = make_planted_matrix(n_docs=40, n_features=30, n_informative=5,
                                                  seed=3)
        w = matrix.weights
        in_class_0 = np.repeat(matrix.labels == 0, np.diff(w.indptr))
        column = max(informative, key=lambda j: np.sum(in_class_0 & (w.indices == j)))
        w.data[in_class_0 & (w.indices == column)] = 1e308
        assert np.sum(in_class_0 & (w.indices == column)) >= 2
        cfg = ExperimentConfig(ig_cap=30, method=method, eval_classifier="dt",
                               out_dir=str(tmp_path / "run"))
        with pytest.raises(PipelineError, match=r"^\[search\] naive Bayes weights too large"):
            run_experiment(cfg, matrix=matrix)
        assert not (tmp_path / "run").exists()

    def test_signed_weight_under_dt_without_search_runs(self, tmp_path):
        matrix = self._signed_in_an_ig_column(30)
        cfg = ExperimentConfig(ig_cap=30, method="ig", eval_classifier="dt",
                               out_dir=str(tmp_path / "run"))
        report = run_experiment(cfg, matrix=matrix)
        assert [(m.name, m.classifier) for m in report.methods] == [("raw", "dt"), ("ig", "dt")]

    @pytest.mark.parametrize("method", ["ig", "mbo"])
    @pytest.mark.parametrize("eval_classifier", ["dt", "best"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_under_tree_evaluation_stops_before_any_output(
            self, tmp_path, monkeypatch, method, eval_classifier, bad):
        # the tree orders finite weights only: a NaN or infinite weight stops
        # the run with one line, before any search runs or any file is written
        matrix, _ = make_planted_matrix(n_docs=60, n_features=40, n_informative=8, seed=3)
        matrix.weights.data[5] = bad
        for engine in ("mbo_select", "pso_select"):
            monkeypatch.setattr(harness, engine, lambda *args, **kw: pytest.fail("search ran"))
        cfg = ExperimentConfig(ig_cap=20, method=method, eval_classifier=eval_classifier,
                               out_dir=str(tmp_path / "run"))
        with pytest.raises(PipelineError) as err:
            run_experiment(cfg, matrix=matrix)
        assert str(err.value) == ("[evaluate] the decision tree needs finite weights, "
                                  f"and the matrix stores {bad}")
        assert not (tmp_path / "run").exists()


def _trace_lines(run, engine):
    return len((run / f"trace_{engine}.txt").read_text(encoding="utf-8").splitlines())


def _untimed_lines(run, engine):
    """The lines of a run's trace file, each cut before its `elapsed_ms`."""
    text = (run / f"trace_{engine}.txt").read_text(encoding="utf-8")
    return [line.split(" elapsed_ms=")[0] for line in text.splitlines()]


class TestCheckpointCadence:
    """The harness writes a search's checkpoint on a clock, and its last step once."""

    @pytest.fixture
    def writes(self, monkeypatch, tmp_path):
        """Reads back the method of every checkpoint_save call, in the order
        written. Each call appends a line to a file, so the writes of a search
        run in a forked child count too."""
        log = tmp_path / "writes.log"
        log.touch()
        save = harness.checkpoint_save

        def counting(path, method, fingerprint, payload):
            with log.open("a", encoding="utf-8") as fh:
                fh.write(method + "\n")
            save(path, method, fingerprint, payload)

        monkeypatch.setattr(harness, "checkpoint_save", counting)
        return lambda: log.read_text(encoding="utf-8").split()

    def test_interval_zero_writes_every_step(self, demo_tsv, tmp_path, monkeypatch, writes):
        monkeypatch.setattr(harness, "CHECKPOINT_INTERVAL_S", 0.0)
        run_experiment(_demo_config(demo_tsv, tmp_path))
        for engine in ("mbo", "pso"):
            assert writes().count(engine) == _trace_lines(tmp_path / "run", engine) > 1, engine

    def test_default_interval_writes_last_step_once(self, demo_tsv, tmp_path, writes):
        run_experiment(_demo_config(demo_tsv, tmp_path))
        run = tmp_path / "run"
        assert sorted(writes()) == ["mbo", "pso"]  # the two searches end in either order
        mbo = json.loads((run / "checkpoint_mbo.json").read_text(encoding="utf-8"))
        pso = json.loads((run / "checkpoint_pso.json").read_text(encoding="utf-8"))
        assert len(mbo["payload"]["records"]) == _trace_lines(run, "mbo") > 1
        assert len(pso["payload"]["records"]) == _trace_lines(run, "pso") == 5
        assert not list(run.glob("*.tmp"))

    def test_budget_before_first_step_writes_nothing(self, demo_tsv, tmp_path, writes):
        run_experiment(_demo_config(demo_tsv, tmp_path, budget_seconds=1e-9))
        run = tmp_path / "run"
        assert writes() == []
        assert not list(run.glob("checkpoint_*"))
        assert (run / "mask_mbo.txt").exists() and (run / "mask_pso.txt").exists()

    def test_search_error_writes_nothing(self, demo_tsv, tmp_path, monkeypatch, writes):
        # a step that raises leaves the snapshot torn: the writer must not flush it
        def crashing(input_mask, config, fitness, resume=None, on_step=None):
            def step(snap):
                on_step(snap)
                raise RuntimeError("killed")
            return mbo_select(input_mask, config, fitness, resume=resume, on_step=step)

        monkeypatch.setattr(harness, "mbo_select", crashing)
        with pytest.raises(RuntimeError, match="killed"):
            run_experiment(_demo_config(demo_tsv, tmp_path, method="mbo"))
        assert writes() == []
        assert not (tmp_path / "run" / "checkpoint_mbo.json").exists()

    def test_resume_from_mid_run_checkpoint(self, demo_tsv, tmp_path, monkeypatch, writes):
        monkeypatch.setattr(harness, "CHECKPOINT_INTERVAL_S", 0.0)
        save = harness.checkpoint_save  # the fixture's, which records each write

        def keep_second(path, method, fingerprint, payload):
            save(path, method, fingerprint, payload)
            if writes().count(method) == 2:
                shutil.copy(path, tmp_path / f"early_{method}.json")

        monkeypatch.setattr(harness, "checkpoint_save", keep_second)
        run_experiment(_demo_config(demo_tsv, tmp_path, out_dir=str(tmp_path / "u")))
        for engine in ("mbo", "pso"):
            assert writes().count(engine) > 2, engine  # the kept step is not the last
            early = json.loads((tmp_path / f"early_{engine}.json").read_text(encoding="utf-8"))
            payload = early["payload"]
            assert payload["records"], engine
            # a search that has not ended claims no termination or total time
            assert not {"trace", "termination", "elapsed_seconds"} & payload.keys(), engine
            out = tmp_path / f"r_{engine}"
            run_experiment(_demo_config(demo_tsv, tmp_path, method=engine, out_dir=str(out)),
                           resume_path=str(tmp_path / f"early_{engine}.json"))
            assert (out / f"mask_{engine}.txt").read_bytes() == (
                tmp_path / "u" / f"mask_{engine}.txt").read_bytes(), engine
            assert _untimed_lines(out, engine) == _untimed_lines(tmp_path / "u", engine)


class TestCheckpointBinding:
    """--resume against another corpus or search config is refused."""

    def run(self, tmp_path, name, matrix, resume=None, **kw):
        cfg = ExperimentConfig(ig_cap=30, method="mbo", flock_size=5, budget_seconds=60.0,
                               out_dir=str(tmp_path / name), **kw)
        return run_experiment(cfg, matrix=matrix, resume_path=resume)

    def test_identical_config_resumes(self, tmp_path):
        matrix, _ = make_planted_matrix(n_docs=80, n_features=60, n_informative=10, seed=3)
        first = self.run(tmp_path, "a", matrix)
        again = self.run(tmp_path, "b", matrix, resume=tmp_path / "a" / "checkpoint_mbo.json")
        assert [(m.m_prime, m.accuracy) for m in again.methods] == [
            (m.m_prime, m.accuracy) for m in first.methods]
        assert (tmp_path / "a" / "mask_mbo.txt").read_bytes() == (
            tmp_path / "b" / "mask_mbo.txt").read_bytes()

    def test_same_shape_other_content_refused(self, tmp_path):
        a, _ = make_planted_matrix(n_docs=80, n_features=60, n_informative=10, seed=3)
        b, _ = make_planted_matrix(n_docs=80, n_features=60, n_informative=10, seed=4)
        # the same shape and class sizes: only the content tells them apart
        assert np.array_equal(np.bincount(a.labels), np.bincount(b.labels))
        self.run(tmp_path, "a", a)
        with pytest.raises(PipelineError, match=r"^\[checkpoint\] checkpoint from a different"):
            self.run(tmp_path, "b", b, resume=tmp_path / "a" / "checkpoint_mbo.json")

    def test_other_seed_refused(self, tmp_path):
        matrix, _ = make_planted_matrix(n_docs=80, n_features=60, n_informative=10, seed=3)
        self.run(tmp_path, "a", matrix)
        with pytest.raises(PipelineError, match=r"^\[checkpoint\] checkpoint from a different"):
            self.run(tmp_path, "b", matrix, resume=tmp_path / "a" / "checkpoint_mbo.json",
                     seed=1)

    def test_fingerprint_covers_search_fields(self):
        matrix, _ = make_planted_matrix(n_docs=40, n_features=20, n_informative=5, seed=3)
        base = run_fingerprint(matrix, ExperimentConfig())
        assert run_fingerprint(matrix, ExperimentConfig(budget_seconds=5.0)) == base
        for field, value in [("seed", 1), ("folds", 3), ("ig_cap", 10), ("flock_size", 9),
                             ("neighbors", 2), ("base_fraction", 0.05), ("swarm_size", 10),
                             ("pso_iterations", 7)]:
            assert run_fingerprint(matrix, ExperimentConfig(**{field: value})) != base, field


def test_benchmark_hooks_see_engines_and_checkpoints(monkeypatch, tmp_path):
    """perfbench/layers.py wraps these names at run time; each must still record a span."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    layers = importlib.import_module("layers")
    rec = importlib.import_module("tracer").Recorder()
    matrix, _ = make_planted_matrix(n_docs=60, n_features=40, n_informative=8, seed=3)
    layers.install(rec)
    try:
        # one engine per run, so both run in this process: a forked search's
        # spans stay in the child
        for method in ("mbo", "pso"):
            run_experiment(ExperimentConfig(
                ig_cap=20, method=method, eval_classifier="nb", flock_size=5, swarm_size=6,
                pso_iterations=3, out_dir=str(tmp_path / method)), matrix=matrix)
    finally:
        rec.uninstall()
    names = {span[0] for span in rec.spans}
    assert {"mbo.mbo_select", "pso.pso_select", "harness.mbo_snapshot_to_json",
            "harness.pso_snapshot_to_json", "harness.checkpoint_save"} <= names
    # the search's NB fitness time is read from these spans
    tree = importlib.import_module("tracer").SpanTree(rec.spans)
    fitness_calls = tree.named("heuristic.FitnessFn.__call__")
    for engine in ("mbo.mbo_select", "pso.pso_select"):
        assert any(tree.under(i, engine) for i in fitness_calls), engine


def test_planted_search_trajectory_is_pinned(tmp_path):
    """The benchmark's planted-search run: both searches on the planted
    500x2000 matrix must end on the masks whose digests perfbench/README.md
    records, so a faster path cannot move a draw, a score or a mask."""
    matrix, _ = make_planted_matrix(n_docs=500, n_classes=4, n_features=2000,
                                    n_informative=50, seed=0)
    report = run_experiment(ExperimentConfig(
        ig_cap=500, method="all", eval_classifier="nb", seed=0, budget_seconds=1e9,
        out_dir=str(tmp_path)), matrix=matrix)
    digests = {engine: hashlib.sha256((tmp_path / f"mask_{engine}.txt").read_bytes())
               .hexdigest()[:16] for engine in ("ig", "mbo", "pso")}
    assert digests == {"ig": "465549ab7a0372da", "mbo": "5e1a71cb200b6681",
                       "pso": "b5446cfe67dfb2f4"}
    by_name = {m.name: m for m in report.methods}
    assert (by_name["mbo"].evaluations, by_name["pso"].evaluations) == (3453, 3030)
    assert (by_name["mbo"].status, by_name["pso"].status) == (
        "stagnation", "max-iterations")
