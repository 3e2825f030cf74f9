import base64
import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from mbofs import classifiers, harness
from mbofs.cli import main
from mbofs.harness import PipelineError
from mbofs.heuristic import HeuristicError
from mbofs.synth import make_planted_matrix


@pytest.fixture
def config_file(demo_tsv, tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(
        f"corpus_path = {demo_tsv}\n"
        "corpus_format = tsv\n"
        "ig_cap = 30\n"
        "folds = 5\n"
        "seed = 0\n"
        "budget_seconds = 60\n"
        "flock_size = 5\n"
        "swarm_size = 8\n"
        "pso_iterations = 5\n"
        f"out_dir = {tmp_path / 'run'}\n"
    )
    return p


def test_ingest_stats(demo_tsv, capsys):
    assert main(["ingest", str(demo_tsv), "--format", "tsv"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["n_instances"] == 60
    assert stats["n_classes"] == 3


def test_ingest_missing_path(tmp_path, capsys):
    assert main(["ingest", str(tmp_path / "nope.tsv")]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["select"])  # --config is required
    assert exc.value.code == 1


def test_select_report_evaluate_flow(config_file, tmp_path, capsys):
    assert main(["select", "--method", "ig", "--config", str(config_file)]) == 0
    capsys.readouterr()

    assert main(["report", str(tmp_path / "run"), "--style", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [m["name"] for m in report["methods"]] == ["raw", "ig"]

    assert main(["report", str(tmp_path / "run"), "--style", "table"]) == 0
    assert "accuracy%" in capsys.readouterr().out

    mask_file = tmp_path / "run" / "mask_ig.txt"
    assert main(["evaluate", "--mask", str(mask_file), "--classifier", "nb",
                 "--config", str(config_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["accuracy"] <= 1.0
    assert out["classifier"] == "nb"


def test_select_budget_expiry_exit_code(config_file, tmp_path, capsys):
    code = main(["select", "--method", "pso", "--config", str(config_file),
                 "--budget-seconds", "0.000001", "--out", str(tmp_path / "b")])
    assert code == 3
    out = capsys.readouterr().out
    assert "-" in out  # budget row renders as a dash
    assert (tmp_path / "b" / "report.json").exists()  # partial results written
    assert (tmp_path / "b" / "trace_pso.txt").read_text(encoding="utf-8") == ""  # no iterations


def test_select_resume_roundtrip(config_file, tmp_path, capsys):
    # an uninterrupted run, then a resume from its last checkpoint: same mask
    assert main(["select", "--method", "mbo", "--config", str(config_file),
                 "--out", str(tmp_path / "u")]) == 0
    assert main(["select", "--method", "mbo", "--config", str(config_file),
                 "--out", str(tmp_path / "r"),
                 "--resume", str(tmp_path / "u" / "checkpoint_mbo.json")]) == 0
    a = (tmp_path / "u" / "mask_mbo.txt").read_bytes()
    b = (tmp_path / "r" / "mask_mbo.txt").read_bytes()
    assert a == b


def test_select_bad_config_value(config_file, capsys):
    config_file.write_text(config_file.read_text().replace("folds = 5", "folds = abc"))
    assert main(["select", "--method", "ig", "--config", str(config_file)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: [config] line 4: bad value for folds")


@pytest.mark.parametrize("line, message", [
    ("seed = -1", "seed must be >= 0"),
    ("swarm_size = 0", "swarm_size must be >= 1"),
    ("swarm_size = -3", "swarm_size must be >= 1"),
    ("base_fraction = nan", "base_fraction must be in [0, 1]"),
    ("eval_classifier = NB", "unknown eval_classifier 'NB'"),
    ("flock_size = 4", "flock_size must be odd and >= 3"),
    ("neighbors = 2", "neighbors must be >= 3"),
    ("pso_iterations = 0", "pso_iterations must be >= 1"),
    ("pso_iterations = -5", "pso_iterations must be >= 1"),
    ("folds = 1", "folds must be >= 2"),
])
def test_select_config_value_out_of_range(config_file, tmp_path, capsys, line, message):
    # evaluate checks its config as select does, so it gets a mask it would accept
    n = harness.load_input(harness.ExperimentConfig.from_file(config_file))[0].n_features
    mask = tmp_path / "mask.txt"
    mask.write_text(f"M={n}\n{'1' * n}\n")
    with config_file.open("a", encoding="utf-8") as fh:  # later keys win
        fh.write(line + "\n")
    for argv in (["select", "--method", "all", "--config", str(config_file)],
                 ["evaluate", "--mask", str(mask), "--config", str(config_file)]):
        assert main(argv) == 2, argv[0]
        _one_error_line(capsys, f"error: [config] {message}")
    assert not (tmp_path / "run" / "mask_ig.txt").exists()  # refused before any work


@pytest.mark.parametrize("command", ["select", "evaluate"])
def test_config_not_utf8(tmp_path, capsys, command):
    config = tmp_path / "latin1.cfg"
    config.write_bytes(b"# caf\xe9\n")
    argv = {"select": ["select", "--config", str(config)],
            "evaluate": ["evaluate", "--mask", str(tmp_path / "mask.txt"),
                         "--config", str(config)]}[command]
    assert main(argv) == 2
    _one_error_line(capsys, f"error: [config] cannot read {config}: not valid UTF-8")


@pytest.mark.parametrize("method", ["mbo", "pso"])
def test_select_base_fraction_one(config_file, capsys, method):
    # the first perturbation of the all-ones 30-bit IG mask flips 29 bits, not all 30
    with config_file.open("a", encoding="utf-8") as fh:
        fh.write("base_fraction = 1.0\n")
    assert main(["select", "--method", method, "--config", str(config_file)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("method", ["ig", "mbo", "pso"])
def test_select_search_field_checked_for_every_method(config_file, tmp_path, capsys, method):
    # an MBO-only field is checked even when MBO does not run
    with config_file.open("a", encoding="utf-8") as fh:
        fh.write("neighbors = 2\n")
    assert main(["select", "--method", method, "--config", str(config_file)]) == 2
    _one_error_line(capsys, "error: [config] neighbors must be >= 3")
    assert not (tmp_path / "run" / "mask_ig.txt").exists()


def test_select_missing_config(tmp_path, capsys):
    assert main(["select", "--config", str(tmp_path / "nope.cfg")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [config] cannot read")


@pytest.mark.parametrize("out", ["taken", "taken/run"])
def test_select_out_dir_blocked_by_a_file(config_file, tmp_path, capsys, out):
    (tmp_path / "taken").write_text("a file, not a directory\n")
    assert main(["select", "--method", "ig", "--config", str(config_file),
                 "--out", str(tmp_path / out)]) == 2
    _one_error_line(capsys, f"error: [output] cannot create {tmp_path / out}: ")


@pytest.mark.parametrize("case", ["one-class", "other-seed"])
def test_select_refused_run_makes_no_run_directory(config_file, tmp_path, capsys, case):
    if case == "one-class":  # no term tells one class from another
        corpus = tmp_path / "one-class.tsv"
        corpus.write_text("only\tmilk tea\nonly\tcoffee tea\nonly\tjuice\n",
                          encoding="utf-8")
        with config_file.open("a", encoding="utf-8") as fh:  # later keys win
            fh.write(f"corpus_path = {corpus}\nfolds = 2\n")
        argv, line = [], "error: [ig] no informative features"
    else:  # the checkpoint's search ran under another seed
        assert main(["select", "--method", "mbo", "--config", str(config_file),
                     "--out", str(tmp_path / "u")]) == 0
        capsys.readouterr()
        argv = ["--seed", "1", "--resume", str(tmp_path / "u" / "checkpoint_mbo.json")]
        line = "error: [checkpoint] checkpoint from a different corpus or search config"
    assert main(["select", "--method", "mbo", "--config", str(config_file),
                 "--out", str(tmp_path / "fresh"), *argv]) == 2
    _one_error_line(capsys, line)
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("method", ["ig", "mbo", "all"])
def test_select_class_smaller_than_folds(config_file, demo_tsv, tmp_path, capsys, method):
    with demo_tsv.open("a", encoding="utf-8") as fh:
        fh.write("rare\tmarker00 noise1\nrare\tmarker10 noise2\n")  # 2 docs < 5 folds
    assert main(["select", "--method", method, "--config", str(config_file)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: [evaluate] class") and "fewer than k=5" in err[0]
    assert not list((tmp_path / "run").glob("mask_*.txt"))


@pytest.mark.parametrize("blocked", ["mask_ig.txt", "mask_mbo_features.csv", "trace_mbo.txt",
                                     "report.json", "checkpoint_mbo.json",
                                     "checkpoint_pso.json"])
def test_select_output_blocked_by_a_directory(config_file, tmp_path, capsys, blocked):
    path = tmp_path / "run" / blocked
    path.mkdir(parents=True)
    assert main(["select", "--method", "all", "--config", str(config_file)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: [output] cannot write {path}: Is a directory"]
    assert multiprocessing.active_children() == []
    assert not list((tmp_path / "run").glob("*.tmp"))


def test_report_missing_dir(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 2


def _one_error_line(capsys, prefix):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err


def test_select_signed_weights_one_error_line(config_file, tmp_path, capsys, monkeypatch):
    # no loader makes a negative weight, so one is put into the loaded matrix
    load = harness.load_input

    def signed(config):
        matrix, terms, stats = load(config)
        matrix.weights.data[0] = -1.0
        return matrix, terms, stats

    monkeypatch.setattr(harness, "load_input", signed)
    for engine in ("mbo_select", "pso_select"):
        monkeypatch.setattr(harness, engine, lambda *args, **kw: pytest.fail("search ran"))
    with config_file.open("a", encoding="utf-8") as fh:
        fh.write("eval_classifier = nb\n")
    assert main(["select", "--method", "all", "--config", str(config_file)]) == 2
    _one_error_line(capsys, "error: [evaluate] naive Bayes needs non-negative finite "
                            "weights, and the matrix stores -1.0")
    assert not (tmp_path / "run" / "mask_ig.txt").exists()


@pytest.mark.parametrize("eval_classifier, stage",
                         [("nb", "evaluate"), ("best", "evaluate"), ("dt", "search")])
def test_select_nb_score_overflow_one_error_line(config_file, tmp_path, capsys, monkeypatch,
                                                 eval_classifier, stage):
    # no loader makes a weight of 1e308, so the loaded matrix is replaced by
    # one with a single class-0 weight of 1e308: no class mass overflows,
    # since that row's own fold leaves it out, but the row's NB score would
    matrix, _ = make_planted_matrix(n_docs=40, n_features=30, n_informative=5, seed=3)
    w = matrix.weights
    in_class_0 = np.repeat(matrix.labels == 0, np.diff(w.indptr))
    w.data[np.flatnonzero(in_class_0 & (w.indices == 2))[0]] = 1e308
    monkeypatch.setattr(harness, "load_input", lambda config: (matrix, None, None))
    with config_file.open("a", encoding="utf-8") as fh:
        fh.write(f"eval_classifier = {eval_classifier}\n")
    assert main(["select", "--method", "mbo", "--config", str(config_file)]) == 2
    _one_error_line(capsys, f"error: [{stage}] naive Bayes weights too large: a class's "
                            "summed weight or a row's score could overflow")
    assert not (tmp_path / "run").exists()


def test_evaluate_bad_mask_universe(config_file, tmp_path, capsys):
    mask = tmp_path / "mask.txt"
    mask.write_text("M=abc\n0101\n")
    assert main(["evaluate", "--mask", str(mask), "--config", str(config_file)]) == 2
    _one_error_line(capsys, "error: [mask] bad universe size 'M=abc'")


def test_evaluate_empty_mask(config_file, demo_tsv, tmp_path, capsys):
    assert main(["ingest", str(demo_tsv)]) == 0
    m = json.loads(capsys.readouterr().out)["n_features"]  # the corpus's width
    mask = tmp_path / "mask.txt"
    mask.write_text(f"M={m}\n{'0' * m}\n")
    assert main(["evaluate", "--mask", str(mask), "--config", str(config_file)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: [evaluate] empty feature mask"]


def test_evaluate_dt_empty_mask_forks_nothing(config_file, demo_tsv, tmp_path, capsys,
                                              monkeypatch):
    assert main(["ingest", str(demo_tsv)]) == 0
    m = json.loads(capsys.readouterr().out)["n_features"]
    mask = tmp_path / "mask.txt"
    mask.write_text(f"M={m}\n{'0' * m}\n")
    forks = []
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: forks.append("asked") or ["fork"])
    assert main(["evaluate", "--mask", str(mask), "--classifier", "dt",
                 "--config", str(config_file)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: [evaluate] empty feature mask"]
    assert forks == []


def test_evaluate_forked_fold_tree_dies_without_result(config_file, tmp_path, capsys,
                                                       monkeypatch):
    assert main(["select", "--method", "ig", "--config", str(config_file)]) == 0
    capsys.readouterr()
    parent, train = os.getpid(), classifiers.dt_train

    def dying(*args, **kwargs):
        if os.getpid() != parent:  # fold 1, the forked child's first tree
            os._exit(7)
        return train(*args, **kwargs)

    monkeypatch.setattr(classifiers, "dt_train", dying)
    assert main(["evaluate", "--mask", str(tmp_path / "run" / "mask_ig.txt"),
                 "--classifier", "dt", "--config", str(config_file)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: [evaluate] the mask 0 fold 1 tree process exited with code 7 and sent no result"]
    assert multiprocessing.active_children() == []


def test_evaluate_missing_mask(config_file, tmp_path, capsys):
    assert main(["evaluate", "--mask", str(tmp_path / "missing.txt"),
                 "--config", str(config_file)]) == 2
    _one_error_line(capsys, "error: [mask] cannot read")


def test_evaluate_reads_mask_before_corpus(config_file, tmp_path, capsys):
    with config_file.open("a", encoding="utf-8") as fh:  # later keys win
        fh.write(f"corpus_path = {tmp_path / 'missing.tsv'}\n")
    assert main(["evaluate", "--mask", str(tmp_path / "missing.txt"),
                 "--config", str(config_file)]) == 2
    _one_error_line(capsys, "error: [mask] cannot read")


def test_report_malformed_json(tmp_path, capsys):
    (tmp_path / "report.json").write_text('{"corpus": ')
    assert main(["report", str(tmp_path)]) == 2
    _one_error_line(capsys, "error: [report] malformed")


_CORPUS = {"n_features": 3, "n_instances": 4, "n_classes": 2,
           "avg_words_per_instance": 1.0, "avg_word_length": 2.0}
_ROW = {"name": "ig", "m_prime": 2, "accuracy": 0.5, "classifier": "nb",
        "elapsed_s": 0.1, "status": "ok"}
_REPORT = {"corpus": _CORPUS, "methods": [_ROW], "seed": 0, "config": {}}


def test_report_well_formed(tmp_path, capsys):
    (tmp_path / "report.json").write_text(json.dumps(_REPORT))
    assert main(["report", str(tmp_path)]) == 0
    assert "50.0" in capsys.readouterr().out


@pytest.mark.parametrize("doc", [
    {"methods": [], "seed": 0, "config": {}},  # no corpus
    {"corpus": {"n_features": 3}, "methods": [], "seed": 0, "config": {}},
    [],
    {**_REPORT, "methods": [{**_ROW, "accuracy": "high"}]},
    {**_REPORT, "methods": [{**_ROW, "m_prime": "12"}]},
    {**_REPORT, "corpus": {**_CORPUS, "n_classes": None}},
    {**_REPORT, "seed": "0"},
])
def test_report_incomplete(tmp_path, capsys, doc):
    (tmp_path / "report.json").write_text(json.dumps(doc))
    assert main(["report", str(tmp_path)]) == 2
    _one_error_line(capsys, "error: [report] malformed")


@pytest.mark.parametrize("command", ["ingest", "select", "evaluate"])
@pytest.mark.parametrize("case", ["missing-stopwords", "dirs-on-a-file", "not-utf8",
                                  "dirs-not-utf8"])
def test_unreadable_corpus_input(config_file, demo_tsv, tmp_path, capsys, command, case):
    corpus, fmt, stopwords = str(demo_tsv), "tsv", ""
    line = "error: [load] cannot read"
    if case == "missing-stopwords":
        stopwords = str(tmp_path / "missing-stopwords.txt")
    elif case == "dirs-on-a-file":
        fmt = "dirs"
    elif case == "dirs-not-utf8":
        corpus, fmt = str(tmp_path / "dirs"), "dirs"
        for label in ("class0", "class1"):
            (tmp_path / "dirs" / label).mkdir(parents=True)
            (tmp_path / "dirs" / label / "a.txt").write_text("milk tea\n", encoding="utf-8")
        (tmp_path / "dirs" / "class1" / "b.txt").write_bytes(b"caf\xe9 au lait\n")
        line += f" {tmp_path / 'dirs' / 'class1' / 'b.txt'}: not valid UTF-8"
    else:
        corpus = str(tmp_path / "latin1.tsv")
        (tmp_path / "latin1.tsv").write_bytes(b"class0\tcaf\xe9 au lait\n")
    (tmp_path / "mask.txt").write_text("M=1\n1\n")  # evaluate reads the mask first
    with config_file.open("a", encoding="utf-8") as fh:  # later keys win
        fh.write(f"corpus_path = {corpus}\ncorpus_format = {fmt}\n"
                 f"stopwords_path = {stopwords}\n")
    argv = {
        "ingest": ["ingest", corpus, "--format", fmt, "--stopwords", stopwords],
        "select": ["select", "--method", "ig", "--config", str(config_file)],
        "evaluate": ["evaluate", "--mask", str(tmp_path / "mask.txt"),
                     "--config", str(config_file)],
    }[command]
    assert main(argv) == 2
    _one_error_line(capsys, line)


def _edit_json(edit):
    def corrupt(path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
    return corrupt


def _leader_mask(edit):
    def corrupt(doc):
        leader = doc["payload"]["flock"]["leader"]
        leader["mask"] = edit(leader["mask"])
    return _edit_json(corrupt)


def _first_velocity(value):
    def corrupt(doc):
        particle = doc["payload"]["particles"][0]
        velocity = np.frombuffer(base64.b64decode(particle["velocity"]), dtype="<f8").copy()
        velocity[0] = value
        particle["velocity"] = base64.b64encode(velocity.tobytes()).decode("ascii")
    return _edit_json(corrupt)


@pytest.mark.parametrize("method, corrupt", [
    ("mbo", lambda p: p.write_bytes(b"\xff" + p.read_bytes())),  # not UTF-8
    ("mbo", lambda p: p.write_text(json.dumps([json.loads(p.read_text())]))),  # a JSON array
    ("mbo", _edit_json(lambda doc: doc["payload"].update(flock=5))),
    ("mbo", _edit_json(lambda doc: doc["payload"].pop("best_mask"))),
    ("mbo", _leader_mask(lambda bits: "x" + bits[1:])),
    ("mbo", _leader_mask(lambda bits: bits[1:])),
    ("pso", _edit_json(lambda doc: doc["payload"]["particles"][0].update(velocity="!!!!"))),
    ("pso", _edit_json(lambda doc: doc["payload"]["particles"][0].update(
        velocity="AAAAAAAAAAA="))),  # one float
    ("mbo", _edit_json(lambda doc: doc.pop("payload"))),
    # decodable, but no search under this config makes it
    ("pso", _edit_json(lambda doc: doc["payload"].update(particles=[]))),
    ("pso", _edit_json(lambda doc: doc["payload"].update(
        particles=doc["payload"]["particles"][:2]))),  # swarm_size = 8
    ("mbo", _edit_json(lambda doc: doc["payload"]["flock"].update(left=[], right=[]))),
    ("mbo", _edit_json(lambda doc: doc["payload"].update(best_fitness=float("nan")))),
    ("mbo", _edit_json(lambda doc: doc["payload"]["flock"]["leader"].update(fitness=-0.5))),
    ("pso", _edit_json(lambda doc: doc["payload"]["particles"][0].update(pbest_fitness=1.5))),
    ("pso", _edit_json(lambda doc: doc["payload"]["records"][0].update(best=float("inf")))),
    ("mbo", _edit_json(lambda doc: doc["payload"]["records"][-1].update(
        elapsed_ms=float("nan")))),
    ("pso", _edit_json(lambda doc: doc["payload"]["records"][-1].update(elapsed_ms=-1e12))),
    ("pso", _first_velocity(float("nan"))),
    ("pso", _first_velocity(6.5)),  # V_MAX = 6
    ("mbo", _edit_json(lambda doc: doc["payload"]["records"][0].update(change=-3))),
    # no search makes an empty best, bird or personal-best mask
    ("mbo", _edit_json(lambda doc: doc["payload"].update(
        best_mask="0" * len(doc["payload"]["best_mask"]), best_fitness=1.0))),
    ("mbo", _leader_mask(lambda bits: "0" * len(bits))),
    ("pso", _edit_json(lambda doc: doc["payload"]["particles"][0].update(
        pbest_mask="0" * len(doc["payload"]["best_mask"])))),
], ids=["not-utf8", "json-array", "flock-not-object", "no-state", "mask-not-bits",
        "mask-too-short", "velocity-not-base64", "velocity-too-short", "no-payload",
        "no-particles", "two-particles", "lone-leader", "best-fitness-nan",
        "bird-fitness-negative", "pbest-fitness-above-one", "record-best-inf", "elapsed-nan",
        "elapsed-negative", "velocity-nan", "velocity-above-vmax", "record-change-off-schedule",
        "best-mask-empty", "bird-mask-empty", "pbest-mask-empty"])
def test_select_resume_malformed_checkpoint(config_file, tmp_path, capsys, method, corrupt):
    assert main(["select", "--method", method, "--config", str(config_file),
                 "--out", str(tmp_path / "u")]) == 0
    checkpoint = tmp_path / "u" / f"checkpoint_{method}.json"
    corrupt(checkpoint)
    capsys.readouterr()
    assert main(["select", "--method", method, "--config", str(config_file),
                 "--out", str(tmp_path / "r"), "--resume", str(checkpoint)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [checkpoint] "), err
    assert not (tmp_path / "r").exists()


def test_select_resume_accepts_an_empty_position(config_file, tmp_path, capsys):
    # a particle may move to the empty mask, which scores 0.0: a resume takes it
    assert main(["select", "--method", "pso", "--config", str(config_file),
                 "--out", str(tmp_path / "u")]) == 0
    checkpoint = tmp_path / "u" / "checkpoint_pso.json"
    _edit_json(lambda doc: doc["payload"]["particles"][0].update(
        position="0" * len(doc["payload"]["best_mask"])))(checkpoint)
    assert main(["select", "--method", "pso", "--config", str(config_file),
                 "--out", str(tmp_path / "r"), "--resume", str(checkpoint)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("written_by, resumed_as", [("pso", "mbo"), ("mbo", "pso"),
                                                    ("mbo", "ig")])
def test_select_resume_other_engine_checkpoint(config_file, tmp_path, capsys,
                                               written_by, resumed_as):
    assert main(["select", "--method", written_by, "--config", str(config_file),
                 "--out", str(tmp_path / "u")]) == 0
    checkpoint = tmp_path / "u" / f"checkpoint_{written_by}.json"
    capsys.readouterr()
    assert main(["select", "--method", resumed_as, "--config", str(config_file),
                 "--out", str(tmp_path / "r"), "--resume", str(checkpoint)]) == 2
    _one_error_line(capsys, f"error: [checkpoint] '{written_by}' checkpoint cannot resume "
                            f"method '{resumed_as}'")
    assert not (tmp_path / "r" / "report.json").exists()


@pytest.mark.parametrize("error, line", [
    (HeuristicError("pso failed"), "error: [search] pso failed"),
    (classifiers.ClassifierError("pso failed"), "error: [search] pso failed"),
    (PipelineError("evaluate", "pso failed"), "error: [evaluate] pso failed"),
], ids=["heuristic", "classifier", "pipeline"])
def test_select_forked_search_error_as_in_process(config_file, tmp_path, capsys, monkeypatch,
                                                  error, line):
    pids = tmp_path / "pids"

    def failing(*args, **kwargs):
        with pids.open("a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        raise error

    monkeypatch.setattr(harness, "pso_select", failing)
    for method in ("pso", "all"):  # PSO in this process, then in a forked child
        assert main(["select", "--method", method, "--config", str(config_file),
                     "--out", str(tmp_path / method)]) == 2
        assert capsys.readouterr().err.splitlines() == [line], method
    alone, forked = pids.read_text(encoding="utf-8").split()
    assert int(alone) == os.getpid() != int(forked)


def test_select_forked_search_dies_without_result(config_file, tmp_path, capsys, monkeypatch):
    parent = os.getpid()

    def dying(*args, **kwargs):
        if os.getpid() == parent:  # never end the test process itself
            raise AssertionError("PSO was to run in a forked child")
        os._exit(7)

    monkeypatch.setattr(harness, "pso_select", dying)
    assert main(["select", "--method", "all", "--config", str(config_file)]) == 2
    _one_error_line(capsys, "error: [search] the pso search process exited with code 7 ")
    assert multiprocessing.active_children() == []


def test_select_parent_search_error_leaves_no_child(config_file, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise HeuristicError("mbo failed")

    monkeypatch.setattr(harness, "mbo_select", failing)
    monkeypatch.setattr(harness, "pso_select", lambda *args, **kwargs: time.sleep(60))
    started = time.monotonic()
    assert main(["select", "--method", "all", "--config", str(config_file)]) == 2
    _one_error_line(capsys, "error: [search] mbo failed")
    assert multiprocessing.active_children() == []
    assert time.monotonic() - started < 30  # the sleeping child was terminated


def test_select_resume_malformed_checkpoint_before_fork(config_file, tmp_path, capsys,
                                                        monkeypatch):
    assert main(["select", "--method", "pso", "--config", str(config_file),
                 "--out", str(tmp_path / "u")]) == 0
    checkpoint = tmp_path / "u" / "checkpoint_pso.json"
    _edit_json(lambda doc: doc["payload"]["particles"][0].update(velocity="!!!!"))(checkpoint)
    capsys.readouterr()
    forks = []
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: forks.append("asked") or [])
    errors = []
    for method in ("pso", "all"):
        assert main(["select", "--method", method, "--config", str(config_file),
                     "--out", str(tmp_path / method), "--resume", str(checkpoint)]) == 2
        errors.append(capsys.readouterr().err.splitlines())
    assert errors[0] == errors[1] and len(errors[0]) == 1, errors
    assert errors[0][0].startswith("error: [checkpoint] malformed pso checkpoint: ")
    assert forks == []  # refused before any search was started


@pytest.mark.parametrize("method", ["mbo", "pso", "all"])
def test_select_one_feature_ig_mask(config_file, tmp_path, capsys, method):
    out = tmp_path / method
    assert main(["select", "--method", method, "--config", str(config_file), "--ig-cap", "1",
                 "--out", str(out)]) == 0
    rows = json.loads((out / "report.json").read_text(encoding="utf-8"))["methods"]
    ig = (out / "mask_ig.txt").read_bytes()
    assert ig.split()[1].count(b"1") == 1
    for row in rows[2:]:
        # the input mask is the only non-empty mask: it is returned as is
        assert (row["status"], row["m_prime"], row["evaluations"], row["last_gain"]) == (
            "single-feature", 1, 0, 0), row
        assert row["accuracy"] == rows[1]["accuracy"]
        assert (out / f"mask_{row['name']}.txt").read_bytes() == ig
    assert [row["name"] for row in rows[2:]] == (["mbo", "pso"] if method == "all" else [method])
