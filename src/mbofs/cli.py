"""Command-line interface: ingest, select, evaluate, report.

Exit codes: 0 success, 1 usage error, 2 pipeline error, 3 budget expired with
partial results written.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .classifiers import ClassifierError
from .harness import (
    CheckpointError,
    ExperimentConfig,
    PipelineError,
    RunReport,
    evaluate_mask,
    load_input,
    load_mask,
    render_report,
    run_experiment,
)
from .heuristic import HeuristicError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mbofs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a corpus and print its statistics")
    p.add_argument("path")
    p.add_argument("--format", choices=["tsv", "dirs"], default="tsv")
    p.add_argument("--stopwords", default="")

    p = sub.add_parser("select", help="run feature selection")
    p.add_argument("--method", choices=["ig", "mbo", "pso", "all"], default=None)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--ig-cap", type=int, default=None)
    p.add_argument("--flock-size", type=int, default=None)
    p.add_argument("--neighbors", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--resume", default=None, help="checkpoint file to resume from")

    p = sub.add_parser("evaluate", help="cross-validate a stored mask")
    p.add_argument("--mask", required=True)
    p.add_argument("--classifier", choices=["nb", "dt", "best"], default="best")
    p.add_argument("--config", required=True, help="config naming the corpus")

    p = sub.add_parser("report", help="render a run report")
    p.add_argument("run_dir")
    p.add_argument("--style", choices=["table", "json", "csv"], default="table")
    return parser


def cmd_ingest(args) -> int:
    _, _, stats = load_input(ExperimentConfig(
        corpus_path=args.path, corpus_format=args.format, stopwords_path=args.stopwords))
    print(json.dumps(asdict(stats), indent=2))
    return 0


def cmd_select(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    overrides = {
        "method": args.method,
        "seed": args.seed,
        "budget_seconds": args.budget_seconds,
        "ig_cap": args.ig_cap,
        "flock_size": args.flock_size,
        "neighbors": args.neighbors,
        "out_dir": args.out,
    }
    for key, value in overrides.items():
        if value is not None:
            setattr(config, key, value)
    report = run_experiment(config, resume_path=args.resume)
    print(render_report(report, "table"), end="")
    if any(m.status == "budget" for m in report.methods):
        return 3
    return 0


def cmd_evaluate(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    config.validate()
    mask = load_mask(args.mask)  # a bad mask path fails before the corpus load
    matrix, _, _ = load_input(config)
    if len(mask) != matrix.n_features:
        raise PipelineError(
            "evaluate", f"mask universe {len(mask)} != corpus features {matrix.n_features}"
        )
    acc, clf = evaluate_mask(matrix, mask, args.classifier, config.folds, config.seed)
    print(json.dumps({"accuracy": acc, "classifier": clf, "m_prime": int(mask.sum())}))
    return 0


def cmd_report(args) -> int:
    report_path = Path(args.run_dir) / "report.json"
    if not report_path.exists():
        raise PipelineError("report", f"no report.json in {args.run_dir}")
    try:
        doc = json.loads(report_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise PipelineError("report", f"cannot read {report_path}: {exc.strerror}") from exc
    except ValueError as exc:  # bad JSON or UTF-8
        raise PipelineError("report", f"malformed {report_path}: {exc!r}") from exc
    report = RunReport.from_dict(doc)
    print(render_report(report, args.style), end="")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "ingest": cmd_ingest,
        "select": cmd_select,
        "evaluate": cmd_evaluate,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (PipelineError, CheckpointError, ClassifierError, HeuristicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
