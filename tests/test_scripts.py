import runpy
from pathlib import Path

import pytest

SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "run_synthetic_benchmark.py"


def test_synthetic_benchmark_sweep(capsys):
    """The sweep drives run_experiment, so a change to its API shows up here."""
    main = runpy.run_path(str(SWEEP))["main"]
    main(["--seeds", "1", "--n-docs", "80", "--n-features", "60", "--n-informative", "10",
          "--ig-cap", "30"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "corpus 80x60, ig_cap 30"
    seed, ig_acc, mbo_acc, pso_acc, gap, ig_m, mbo_m, removed, status = lines[2].split()
    assert seed == "0"
    assert float(gap) == pytest.approx(float(mbo_acc) - float(pso_acc), abs=2e-4)
    assert float(removed.rstrip("%")) == pytest.approx(100 * (1 - int(mbo_m) / int(ig_m)),
                                                       abs=0.06)
    assert status in ("stagnation", "max-tours")
    assert lines[-1].startswith("mean MBO - PSO accuracy gap: ")
