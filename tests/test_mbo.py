import numpy as np
import pytest

from mbofs.harness import ExperimentConfig, PipelineError
from mbofs.heuristic import FeatureMask, FitnessFn, HeuristicError, RngStream, change_count
from mbofs.mbo import (
    MAX_TOURS,
    STEPS_PER_TOUR,
    Bird,
    Flock,
    find_best_bird,
    fly,
    initialize_flock,
    mbo_select,
    reorder,
)
from mbofs.pso import pso_select
from mbofs.synth import make_planted_matrix
from tests.conftest import SlowFirstBatch


class DensityFitness:
    """Cheap stand-in for FitnessFn: fraction of selected bits."""

    def __call__(self, mask: FeatureMask) -> float:
        return mask.popcount / mask.universe

    def batch(self, masks) -> list[float]:
        return [self(mask) for mask in masks]


density_fitness = DensityFitness()


@pytest.fixture
def small_matrix():
    m, _ = make_planted_matrix(n_docs=80, n_features=60, n_informative=10, seed=3)
    return m


class TestInitializeFlock:
    def test_structure(self):
        mask = FeatureMask.ones(40)
        flock = initialize_flock(mask, ExperimentConfig(flock_size=7), RngStream(0),
                                 density_fitness)
        assert flock.size == 7
        assert len(flock.left) == len(flock.right) == 3
        assert flock.leader.mask == mask

    def test_followers_are_perturbations(self):
        mask = FeatureMask.ones(50)
        cfg = ExperimentConfig(flock_size=5)
        flock = initialize_flock(mask, cfg, RngStream(1), density_fitness)
        change = change_count(0, mask.popcount, cfg.base_fraction)
        for bird in (*flock.left, *flock.right):
            hamming = int((bird.mask.to_array() != mask.to_array()).sum())
            assert hamming == change


class TestFly:
    def test_per_bird_fitness_non_decreasing(self, small_matrix):
        fit = FitnessFn(small_matrix, seed=0)
        flock = initialize_flock(
            FeatureMask.ones(60), ExperimentConfig(flock_size=5), RngStream(2), fit
        )
        for step in range(3):
            before = [b.fitness for b in flock.birds()]
            flock = fly(flock, 2, RngStream(2).child("step", step), fit, 3)
            after = [b.fitness for b in flock.birds()]
            assert flock.size == 5
            assert len(flock.left) == len(flock.right)
            assert all(a >= b for a, b in zip(after, before))

    def test_cached_fitness_consistent(self, small_matrix):
        fit = FitnessFn(small_matrix, seed=0)
        flock = initialize_flock(
            FeatureMask.ones(60), ExperimentConfig(flock_size=5), RngStream(4), fit
        )
        flock = fly(flock, 3, RngStream(4).child("s", 0), fit, 3)
        for bird in flock.birds():
            assert bird.fitness == fit(bird.mask)

    def test_share_cascade_uses_leader_candidates(self):
        # Leader candidates strictly dominate every wing candidate, so the
        # leader's 2nd/3rd best must surface in the wings after one step.
        leader = Bird(mask=FeatureMask.ones(30), fitness=density_fitness(FeatureMask.ones(30)))
        low = FeatureMask.from_array(np.arange(30) < 3)
        wings = tuple(Bird(mask=low, fitness=density_fitness(low)) for _ in range(2))
        flock = Flock(leader=leader, left=(wings[0],), right=(wings[1],))
        out = fly(flock, 1, RngStream(5), density_fitness, 3)
        # a 1-bit change off all-ones scores 29/30; wing birds own candidates
        # score at most 4/30, so inherited shares must win
        assert out.left[0].fitness > 10 / 30
        assert out.right[0].fitness > 10 / 30


class TestBestAndReorder:
    def build(self, fits):
        birds = [Bird(mask=FeatureMask.ones(4), fitness=f) for f in fits]
        return Flock(leader=birds[0], left=tuple(birds[1:3]), right=tuple(birds[3:5]))

    def test_tie_goes_to_leader(self):
        flock = self.build([0.5, 0.5, 0.5, 0.5, 0.5])
        assert find_best_bird(flock) is flock.leader

    def test_max_on_right_wing(self):
        flock = self.build([0.1, 0.2, 0.3, 0.4, 0.9])
        assert find_best_bird(flock) is flock.right[1]

    def test_reorder_noop_when_leader_best(self):
        flock = self.build([0.9, 0.2, 0.3, 0.4, 0.5])
        assert reorder(flock) is flock

    def test_reorder_swaps(self):
        flock = self.build([0.1, 0.2, 0.9, 0.4, 0.5])
        out = reorder(flock)
        assert out.leader.fitness == 0.9
        assert out.left[1].fitness == 0.1  # old leader took the slot
        assert out.left[0].fitness == 0.2
        assert [b.fitness for b in out.right] == [0.4, 0.5]
        assert out.leader.fitness == max(b.fitness for b in out.birds())


class TestMboSelect:
    def test_output_never_below_input(self, small_matrix):
        fit = FitnessFn(small_matrix, seed=0)
        mask = FeatureMask.ones(60)
        best, trace = mbo_select(
            mask, ExperimentConfig(seed=1, budget_seconds=60), fitness=fit
        )
        assert trace.records[-1].best >= fit(mask)
        assert fit(best) == trace.records[-1].best

    def test_trace_non_decreasing(self, small_matrix):
        cfg = ExperimentConfig(seed=2, budget_seconds=60)
        _, trace = mbo_select(
            FeatureMask.ones(60), cfg, fitness=FitnessFn(small_matrix, seed=cfg.seed)
        )
        fs = [r.best for r in trace.records]
        assert all(a <= b for a, b in zip(fs, fs[1:]))
        assert len(trace.records) <= MAX_TOURS

    def test_stagnation_on_perfect_input(self):
        import scipy.sparse as sp
        from mbofs.corpus import DocTermMatrix
        n = 20
        x = np.zeros((n, 5))
        y = np.arange(n) % 2
        x[y == 0, 0] = 1.0
        x[y == 1, 1] = 1.0
        m = DocTermMatrix(weights=sp.csr_matrix(x), labels=y)
        mask = FeatureMask.from_bitstring("11000")
        fit = FitnessFn(m, seed=0)
        best, trace = mbo_select(mask, ExperimentConfig(seed=0), fitness=fit)
        assert trace.termination == "stagnation"
        assert len(trace.records) == 3
        assert fit(best) == 1.0

    def test_deterministic(self, small_matrix):
        cfg = ExperimentConfig(seed=9, budget_seconds=60)
        mask = FeatureMask.ones(60)
        b1, t1 = mbo_select(mask, cfg, fitness=FitnessFn(small_matrix, seed=cfg.seed))
        b2, t2 = mbo_select(mask, cfg, fitness=FitnessFn(small_matrix, seed=cfg.seed))
        assert b1 == b2
        assert t1.records[-1].best == t2.records[-1].best
        assert [(r.change, r.best) for r in t1.records] == [
            (r.change, r.best) for r in t2.records
        ]

    def test_elapsed_time_covers_initialization(self, small_matrix):
        # the first batch (initialization's) outlasts the whole budget
        fit = SlowFirstBatch(small_matrix, seed=0)
        _, trace = mbo_select(FeatureMask.ones(60), ExperimentConfig(seed=0, budget_seconds=0.1),
                                  fitness=fit)
        assert trace.elapsed_seconds >= 0.2
        assert (trace.termination, trace.records) == ("budget", [])

    @pytest.mark.parametrize("select, field, value", [
        (mbo_select, "flock_size", 4), (mbo_select, "neighbors", 2),
        (mbo_select, "base_fraction", 1.5),
        (pso_select, "swarm_size", 0), (pso_select, "pso_iterations", 0)])
    def test_bad_config_refused_before_any_fitness_call(self, select, field, value):
        # a direct library call is checked as the pipeline's config is
        calls = []

        class Recording(DensityFitness):
            def batch(self, masks):
                calls.append(len(masks))
                return super().batch(masks)

            def __call__(self, mask):
                calls.append(1)
                return super().__call__(mask)

        config = ExperimentConfig(**{field: value})
        with pytest.raises(PipelineError, match=rf"^\[config\] {field}"):
            select(FeatureMask.ones(40), config, Recording())
        assert calls == []

    def test_empty_input_rejected(self, small_matrix):
        with pytest.raises(HeuristicError):
            mbo_select(FeatureMask.zeros(60), ExperimentConfig(seed=0),
                       fitness=FitnessFn(small_matrix, seed=0))

    def test_single_feature_input_returned_as_is(self, small_matrix):
        # a one-feature universe has no other non-empty mask to move to
        fitness = FitnessFn(small_matrix.restrict_columns(np.array([0])), seed=0)
        best, trace = mbo_select(FeatureMask.ones(1), ExperimentConfig(seed=0), fitness=fitness)
        assert best == FeatureMask.ones(1)
        assert (trace.termination, trace.records, fitness.evaluations) == (
            "single-feature", [], 0)

    def test_steps_per_tour_is_ten(self):
        assert STEPS_PER_TOUR == 10
        assert MAX_TOURS == 100
