import numpy as np
import pytest

from mbofs.heuristic import FeatureMask, FitnessFn, HeuristicError
from mbofs.pso import PsoConfig, pso_select, sigmoid
from mbofs.synth import make_planted_matrix


@pytest.fixture(scope="module")
def small_matrix():
    m, _ = make_planted_matrix(n_docs=80, n_features=60, n_informative=10, seed=3)
    return m


class TestSigmoid:
    """pso.sigmoid is the transfer the iteration applies to each velocity vector."""

    def test_zero(self):
        assert sigmoid(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]

    def test_vmax(self):
        v_max = PsoConfig().v_max
        np.testing.assert_allclose(sigmoid(np.array([-v_max, v_max])),
                                   [0.002473, 0.997527], rtol=0, atol=1e-6)

    def test_symmetry(self):
        vs = np.array([-7.0, -1.3, 0.4, 2.0, 5.5])
        np.testing.assert_allclose(sigmoid(vs) + sigmoid(-vs), 1.0, rtol=0, atol=1e-12)

    def test_monotone(self):
        out = sigmoid(np.linspace(-10, 10, 50))
        assert np.all(np.diff(out) > 0)
        assert np.all((0.0 < out) & (out < 1.0))


class TestPsoSelect:
    def run(self, matrix, seed=0, iters=8, on_iteration=None, **kw):
        fit = FitnessFn(matrix, seed=seed)
        mask = FeatureMask.ones(matrix.n_features)
        cfg = PsoConfig(seed=seed, max_iterations=iters, swarm_size=10,
                        budget_seconds=120, **kw)
        best, trace = pso_select(mask, cfg, fitness=fit,
                                 on_iteration=on_iteration)
        return fit, mask, best, trace, cfg

    def test_gbest_floor_is_input(self, small_matrix):
        fit, mask, best, trace, _ = self.run(small_matrix)
        assert fit(best) >= fit(mask)

    def test_gbest_trace_non_decreasing(self, small_matrix):
        _, _, _, trace, _ = self.run(small_matrix, seed=1)
        g = [r.gbest_fitness for r in trace.records]
        assert all(a <= b for a, b in zip(g, g[1:]))

    # The callback gets the live snapshot, whose particles change in place, so
    # these tests record values at callback time rather than keep snapshots.

    def test_velocity_clamped(self, small_matrix):
        peaks = []
        record = lambda snap: peaks.append(max(np.abs(p.velocity).max() for p in snap.particles))
        _, _, _, _, cfg = self.run(small_matrix, seed=2, on_iteration=record)
        assert len(peaks) == 8
        assert max(peaks) <= cfg.v_max + 1e-12

    def test_pbest_non_decreasing(self, small_matrix):
        rows = []
        record = lambda snap: rows.append([p.pbest_fitness for p in snap.particles])
        self.run(small_matrix, seed=3, on_iteration=record)
        by_particle = list(zip(*rows))
        for series in by_particle:
            assert all(a <= b for a, b in zip(series, series[1:]))
        assert any(series[0] < series[-1] for series in by_particle)  # pbests moved

    def test_deterministic(self, small_matrix):
        _, _, b1, t1, _ = self.run(small_matrix, seed=4)
        _, _, b2, t2, _ = self.run(small_matrix, seed=4)
        assert b1 == b2
        assert [r.gbest_fitness for r in t1.records] == [
            r.gbest_fitness for r in t2.records
        ]

    def test_budget_termination(self, small_matrix):
        fit = FitnessFn(small_matrix, seed=0)
        cfg = PsoConfig(seed=0, max_iterations=100, swarm_size=10,
                        budget_seconds=1e-9)
        _, trace = pso_select(FeatureMask.ones(60), cfg, fitness=fit)
        assert trace.termination == "budget"
        assert trace.records == []

    def test_empty_input_rejected(self, small_matrix):
        with pytest.raises(HeuristicError):
            pso_select(FeatureMask.zeros(60), PsoConfig(seed=0),
                       fitness=FitnessFn(small_matrix, seed=0))
