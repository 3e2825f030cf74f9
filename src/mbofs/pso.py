"""Binary PSO baseline with sigmoid transfer, sharing the search fitness.

Particles start as perturbations of the input mask (one exact copy included,
so the global best can never fall below the input). Velocities follow the
standard inertia + cognitive + social update with linear inertia decay; each
bit is resampled to 1 with probability sigmoid(velocity).
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
    gbest_fitness: float
    elapsed_ms: float

    @property
    def best(self) -> float:
        return self.gbest_fitness

    def trace_line(self, iteration: int) -> str:
        """This record's line in trace_pso.txt; `iteration` is its 1-based position."""
        return (f"iteration={iteration} gbest={self.gbest_fitness!r} "
                f"elapsed_ms={self.elapsed_ms:.1f}")


@dataclass
class PsoSnapshot:
    """The search's live state; everything needed to resume at an iteration boundary.
    `records` lists the iterations run so far."""

    particles: list[Particle]
    gbest_mask: FeatureMask
    gbest_fitness: float
    records: list[IterationRecord]


def sigmoid(v: np.ndarray) -> np.ndarray:
    """The transfer function: the probability that a bit is resampled to 1."""
    return 1.0 / (1.0 + np.exp(-v))


def _init_swarm(
    input_mask: FeatureMask, config: PsoConfig, rng: RngStream, fitness: FitnessFn
) -> list[Particle]:
    m = input_mask.universe
    change = change_count(0, input_mask.popcount, config.schedule)
    particles = []
    for i in range(config.swarm_size):
        if i == 0:
            mask = input_mask
        else:
            mask = generate_neighbor(input_mask, change, rng.child("init", i))
        velocity = rng.child("vel", i).generator().uniform(-1.0, 1.0, size=m)
        f = fitness(mask)
        particles.append(
            Particle(position=mask, velocity=velocity, pbest_mask=mask, pbest_fitness=f)
        )
    return particles


def pso_select(
    input_mask: FeatureMask,
    config: PsoConfig,
    fitness: FitnessFn,
    resume: PsoSnapshot | None = None,
    on_step=None,
) -> tuple[FeatureMask, SearchTrace]:
    """Run the swarm from (or resuming toward) the input mask; return the global
    best mask and the trace. `on_step` gets the live snapshot after each iteration."""
    if input_mask.popcount < 1:
        raise HeuristicError("input mask must select at least one feature")
    if input_mask.universe == 1:  # the input is the only non-empty mask: no neighbours
        return input_mask, SearchTrace([], "single-feature", 0.0)
    rng = RngStream(config.seed)

    snap = resume
    if snap is None:
        particles = _init_swarm(input_mask, config, rng.child("swarm"), fitness)
        best = max(range(len(particles)), key=lambda i: (particles[i].pbest_fitness, -i))
        snap = PsoSnapshot(
            particles=particles,
            gbest_mask=particles[best].pbest_mask,
            gbest_fitness=particles[best].pbest_fitness,
            records=[],
        )

    def iteration(snap: PsoSnapshot, clock):
        it = len(snap.records)  # iterations already run
        frac = it / max(config.max_iterations - 1, 1)
        w = W_START + (W_END - W_START) * frac
        gbest_bits = snap.gbest_mask.to_array().astype(float)
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
            f = fitness(p.position)  # empty positions score 0.0 by convention
            if f > p.pbest_fitness:
                p.pbest_mask = p.position
                p.pbest_fitness = f
        # gbest reduction at the iteration barrier, in particle-index order
        for p in snap.particles:
            if p.pbest_fitness > snap.gbest_fitness:
                snap.gbest_fitness = p.pbest_fitness
                snap.gbest_mask = p.pbest_mask
        snap.records.append(IterationRecord(snap.gbest_fitness, clock() * 1000.0))

    stop = lambda s: "max-iterations" if len(s.records) >= config.max_iterations else None
    trace = run_search(snap, iteration, stop, config.budget_seconds, on_step)
    return snap.gbest_mask, trace
