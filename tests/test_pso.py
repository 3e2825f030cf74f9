import numpy as np
import pytest

from mbofs.harness import ExperimentConfig, _decode, pso_snapshot_to_json
from mbofs.heuristic import (
    FeatureMask,
    FitnessFn,
    HeuristicError,
    RngStream,
    change_count,
    generate_neighbor,
)
from mbofs.pso import (
    C1,
    C2,
    V_MAX,
    W_END,
    W_START,
    IterationRecord,
    Particle,
    PsoSnapshot,
    pso_select,
    sigmoid,
)
from mbofs.synth import make_planted_matrix
from tests.conftest import SlowFirstBatch


@pytest.fixture(scope="module")
def small_matrix():
    m, _ = make_planted_matrix(n_docs=80, n_features=60, n_informative=10, seed=3)
    return m


class TestSigmoid:
    """pso.sigmoid is the transfer the iteration applies to each velocity vector."""

    def test_zero(self):
        assert sigmoid(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]

    def test_vmax(self):
        np.testing.assert_allclose(sigmoid(np.array([-V_MAX, V_MAX])),
                                   [0.002473, 0.997527], rtol=0, atol=1e-6)

    def test_symmetry(self):
        vs = np.array([-7.0, -1.3, 0.4, 2.0, 5.5])
        np.testing.assert_allclose(sigmoid(vs) + sigmoid(-vs), 1.0, rtol=0, atol=1e-12)

    def test_monotone(self):
        out = sigmoid(np.linspace(-10, 10, 50))
        assert np.all(np.diff(out) > 0)
        assert np.all((0.0 < out) & (out < 1.0))


class TestPsoSelect:
    def run(self, matrix, seed=0, iters=8, on_step=None, **kw):
        fit = FitnessFn(matrix, seed=seed)
        mask = FeatureMask.ones(matrix.n_features)
        cfg = ExperimentConfig(seed=seed, pso_iterations=iters, swarm_size=10,
                        budget_seconds=120, **kw)
        best, trace = pso_select(mask, cfg, fitness=fit, on_step=on_step)
        return fit, mask, best, trace, cfg

    def test_gbest_floor_is_input(self, small_matrix):
        fit, mask, best, trace, _ = self.run(small_matrix)
        assert fit(best) >= fit(mask)

    def test_gbest_trace_non_decreasing(self, small_matrix):
        _, _, _, trace, _ = self.run(small_matrix, seed=1)
        g = [r.best for r in trace.records]
        assert all(a <= b for a, b in zip(g, g[1:]))

    # The callback gets the live snapshot, whose particles change in place, so
    # these tests record values at callback time rather than keep snapshots.

    def test_velocity_clamped(self, small_matrix):
        peaks = []
        record = lambda snap: peaks.append(max(np.abs(p.velocity).max() for p in snap.particles))
        self.run(small_matrix, seed=2, on_step=record)
        assert len(peaks) == 8
        assert max(peaks) <= V_MAX + 1e-12

    def test_pbest_non_decreasing(self, small_matrix):
        rows = []
        record = lambda snap: rows.append([p.pbest_fitness for p in snap.particles])
        self.run(small_matrix, seed=3, on_step=record)
        by_particle = list(zip(*rows))
        for series in by_particle:
            assert all(a <= b for a, b in zip(series, series[1:]))
        assert any(series[0] < series[-1] for series in by_particle)  # pbests moved

    def test_deterministic(self, small_matrix):
        _, _, b1, t1, _ = self.run(small_matrix, seed=4)
        _, _, b2, t2, _ = self.run(small_matrix, seed=4)
        assert b1 == b2
        assert [r.best for r in t1.records] == [
            r.best for r in t2.records
        ]

    def test_budget_termination(self, small_matrix):
        fit = FitnessFn(small_matrix, seed=0)
        cfg = ExperimentConfig(seed=0, pso_iterations=100, swarm_size=10,
                        budget_seconds=1e-9)
        _, trace = pso_select(FeatureMask.ones(60), cfg, fitness=fit)
        assert trace.termination == "budget"
        assert trace.records == []

    def test_elapsed_time_covers_initialization(self, small_matrix):
        # the first batch (initialization's) outlasts the whole budget
        fit = SlowFirstBatch(small_matrix, seed=0)
        _, trace = pso_select(FeatureMask.ones(60), ExperimentConfig(seed=0, budget_seconds=0.1),
                                  fitness=fit)
        assert trace.elapsed_seconds >= 0.2
        assert (trace.termination, trace.records) == ("budget", [])

    def test_empty_input_rejected(self, small_matrix):
        with pytest.raises(HeuristicError):
            pso_select(FeatureMask.zeros(60), ExperimentConfig(seed=0),
                       fitness=FitnessFn(small_matrix, seed=0))

    def test_single_feature_input_returned_as_is(self, small_matrix):
        # a one-feature universe has no other non-empty mask to move to
        fitness = FitnessFn(small_matrix.restrict_columns(np.array([0])), seed=0)
        best, trace = pso_select(FeatureMask.ones(1), ExperimentConfig(seed=0), fitness=fitness)
        assert best == FeatureMask.ones(1)
        assert (trace.termination, trace.records, fitness.evaluations) == (
            "single-feature", [], 0)


def _reference_swarm(input_mask, config, fitness) -> PsoSnapshot:
    """The initial swarm and global best, each particle scored by its own call."""
    rng = RngStream(config.seed).child("swarm")
    change = change_count(0, input_mask.popcount, config.base_fraction)
    particles = []
    for i in range(config.swarm_size):
        mask = input_mask if i == 0 else generate_neighbor(input_mask, change,
                                                           rng.child("init", i))
        velocity = rng.child("vel", i).generator().uniform(-1.0, 1.0, size=input_mask.universe)
        particles.append(Particle(mask, velocity, mask, fitness(mask)))
    best = max(range(len(particles)), key=lambda i: (particles[i].pbest_fitness, -i))
    return PsoSnapshot(particles, particles[best].pbest_mask, particles[best].pbest_fitness, [])


def _reference_iteration(snap: PsoSnapshot, config: ExperimentConfig, fitness) -> None:
    """One PSO iteration a particle at a time: its three draws, its update and
    its fitness call, then the next particle; the oracle for pso_select's
    batched iteration."""
    rng = RngStream(config.seed)
    it = len(snap.records)
    frac = it / max(config.pso_iterations - 1, 1)
    w = W_START + (W_END - W_START) * frac
    gbest_bits = snap.best_mask.to_array().astype(float)
    for i, p in enumerate(snap.particles):
        gen = rng.child("iter", it).child("particle", i).generator()
        x = p.position.to_array().astype(float)
        pb = p.pbest_mask.to_array().astype(float)
        r1 = gen.random(len(x))
        r2 = gen.random(len(x))
        v = w * p.velocity + C1 * r1 * (pb - x) + C2 * r2 * (gbest_bits - x)
        np.clip(v, -V_MAX, V_MAX, out=v)
        new_bits = gen.random(len(x)) < sigmoid(v)
        p.velocity = v
        p.position = FeatureMask.from_array(new_bits)
        f = fitness(p.position)
        if f > p.pbest_fitness:
            p.pbest_mask = p.position
            p.pbest_fitness = f
    for p in snap.particles:
        if p.pbest_fitness > snap.best_fitness:
            snap.best_fitness = p.pbest_fitness
            snap.best_mask = p.pbest_mask
    snap.records.append(IterationRecord(snap.best_fitness, 0.0))


def _swarm_state(snap: PsoSnapshot):
    """Positions, velocity bytes, pbests, the gbest and the gbest records."""
    return ([(p.position.bits, p.velocity.tobytes(), p.pbest_mask.bits, p.pbest_fitness)
             for p in snap.particles],
            snap.best_mask.bits, snap.best_fitness,
            [r.best for r in snap.records])


class TestPsoOracle:
    def test_matches_per_particle_reference(self, small_matrix):
        config = ExperimentConfig(seed=6, pso_iterations=8, swarm_size=10, budget_seconds=120)
        input_mask = FeatureMask.from_array(np.random.default_rng(1).random(60) < 0.7)
        reference_fitness = FitnessFn(small_matrix, seed=6)
        reference = _reference_swarm(input_mask, config, reference_fitness)
        first_pbests = [p.pbest_fitness for p in reference.particles]
        want = []
        for _ in range(config.pso_iterations):
            _reference_iteration(reference, config, reference_fitness)
            want.append(_swarm_state(reference))
        assert [p.pbest_fitness for p in reference.particles] != first_pbests  # pbests moved

        fitness = FitnessFn(small_matrix, seed=6)
        got, checkpoints = [], []

        def on_step(snap):
            got.append(_swarm_state(snap))
            checkpoints.append(pso_snapshot_to_json(snap))

        pso_select(input_mask, config, fitness, on_step=on_step)
        assert got == want
        assert fitness.evaluations == reference_fitness.evaluations
        assert fitness._memo == reference_fitness._memo

        resumed = []
        pso_select(input_mask, config, FitnessFn(small_matrix, seed=6),
                   resume=_decode(PsoSnapshot, checkpoints[2]),
                   on_step=lambda snap: resumed.append(_swarm_state(snap)))
        assert resumed == want[3:]
