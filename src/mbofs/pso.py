"""Binary PSO baseline with sigmoid transfer, sharing the search fitness.

Particles start as perturbations of the input mask (one exact copy included,
so the global best can never fall below the input). Velocities follow the
standard inertia + cognitive + social update with linear inertia decay; each
bit is resampled to 1 with probability sigmoid(velocity). The search ends
after `max_iterations` iterations (the config's `pso_iterations`) or on the
budget.

An iteration draws every particle's move from its own stream first: one
random(out=...) fills the particle's (3, M) slice of a (P, 3, M) buffer, the
same values as three random(M) calls. It then updates the swarm as (P, M)
arrays and scores all new positions in one fitness batch. The per-particle
loop this replaced is kept in tests/test_pso.py as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .heuristic import (
    ChangeSchedule,
    FeatureMask,
    FitnessFn,
    HeuristicError,
    RngStream,
    SearchTrace,
    change_count,
    generate_neighbor,
    run_search,
)


W_START = 0.9  # inertia at the first iteration, decaying linearly to W_END
W_END = 0.4
C1 = 2.0  # cognitive (pbest) weight
C2 = 2.0  # social (gbest) weight
V_MAX = 6.0  # velocities are clamped to [-V_MAX, V_MAX]


@dataclass(frozen=True)
class PsoConfig:
    swarm_size: int = 30
    max_iterations: int = 100
    schedule: ChangeSchedule = field(default_factory=ChangeSchedule)
    budget_seconds: float = 600.0
    seed: int = 0

    def __post_init__(self):
        if self.swarm_size < 1:
            raise HeuristicError("swarm_size must be >= 1")
        if self.max_iterations < 1:
            raise HeuristicError("pso_iterations must be >= 1")


@dataclass
class Particle:
    position: FeatureMask
    velocity: np.ndarray
    pbest_mask: FeatureMask
    pbest_fitness: float


@dataclass(frozen=True)
class IterationRecord:
    best: float  # the global best fitness after the iteration
    elapsed_ms: float

    def trace_line(self, iteration: int) -> str:
        """This record's line in trace_pso.txt; `iteration` is its 1-based position."""
        return (f"iteration={iteration} gbest={self.best!r} "
                f"elapsed_ms={self.elapsed_ms:.1f}")


@dataclass
class PsoSnapshot:
    """The search's live state; everything needed to resume at an iteration boundary.
    `records` lists the iterations run so far."""

    particles: list[Particle]
    best_mask: FeatureMask
    best_fitness: float
    records: list[IterationRecord]


def sigmoid(v: np.ndarray) -> np.ndarray:
    """The transfer function: the probability that a bit is resampled to 1."""
    return 1.0 / (1.0 + np.exp(-v))


def _bit_rows(masks: list[FeatureMask]) -> np.ndarray:
    """The masks' bits as the rows of one float array."""
    joined = np.frombuffer(b"".join(mask.bits for mask in masks), dtype=np.uint8)
    return joined.reshape(len(masks), -1).astype(float)


def _init_swarm(
    input_mask: FeatureMask, config: PsoConfig, rng: RngStream, fitness: FitnessFn
) -> list[Particle]:
    """The input mask and swarm_size - 1 perturbations of it, scored in one batch."""
    m = input_mask.universe
    change = change_count(0, input_mask.popcount, config.schedule)
    masks = [input_mask] + [generate_neighbor(input_mask, change, rng.child("init", i))
                            for i in range(1, config.swarm_size)]
    return [Particle(position=mask,
                     velocity=rng.child("vel", i).generator().uniform(-1.0, 1.0, size=m),
                     pbest_mask=mask, pbest_fitness=f)
            for i, (mask, f) in enumerate(zip(masks, fitness.batch(masks)))]


def pso_select(
    input_mask: FeatureMask,
    config: PsoConfig,
    fitness: FitnessFn,
    resume: PsoSnapshot | None = None,
    on_step=None,
) -> tuple[FeatureMask, SearchTrace]:
    """Run the swarm from (or resuming toward) the input mask; return the global
    best mask and the trace. `on_step` gets the live snapshot after each iteration."""
    rng = RngStream(config.seed)

    def init() -> PsoSnapshot:
        particles = _init_swarm(input_mask, config, rng.child("swarm"), fitness)
        best = max(range(len(particles)), key=lambda i: (particles[i].pbest_fitness, -i))
        return PsoSnapshot(particles, particles[best].pbest_mask,
                           particles[best].pbest_fitness, records=[])

    def iteration(snap: PsoSnapshot, clock):
        it = len(snap.records)  # iterations already run
        frac = it / max(config.max_iterations - 1, 1)
        w = W_START + (W_END - W_START) * frac
        particles = snap.particles
        n, m = len(particles), input_mask.universe
        # each particle's stream gives its r1, r2 and resampling draws, in that order
        draws = np.empty((n, 3, m))
        iter_rng = rng.child("iter", it)
        for i in range(n):
            iter_rng.child("particle", i).generator().random(out=draws[i])
        r1, r2, r3 = draws.swapaxes(0, 1)
        x = _bit_rows([p.position for p in particles])
        pb = _bit_rows([p.pbest_mask for p in particles])
        gbest_bits = snap.best_mask.to_array().astype(float)
        v = (w * np.array([p.velocity for p in particles]) + C1 * r1 * (pb - x)
             + C2 * r2 * (gbest_bits - x))
        np.clip(v, -V_MAX, V_MAX, out=v)
        resampled = (r3 < sigmoid(v)).view(np.uint8).tobytes()
        positions = [FeatureMask(resampled[i * m:(i + 1) * m]) for i in range(n)]
        # empty positions score 0.0 by convention
        for p, velocity, position, f in zip(particles, v, positions, fitness.batch(positions)):
            p.velocity = velocity
            p.position = position
            if f > p.pbest_fitness:
                p.pbest_mask = position
                p.pbest_fitness = f
        # gbest reduction at the iteration barrier, in particle-index order
        for p in particles:
            if p.pbest_fitness > snap.best_fitness:
                snap.best_fitness = p.pbest_fitness
                snap.best_mask = p.pbest_mask
        snap.records.append(IterationRecord(snap.best_fitness, clock() * 1000.0))

    stop = lambda s: "max-iterations" if len(s.records) >= config.max_iterations else None
    return run_search(input_mask, resume, init, iteration, stop, config.budget_seconds,
                      on_step)
