"""Migrating Birds Optimization over feature masks.

The flock flies in a V: a leader plus two equal ordered wings. Each fly step
every bird generates its own neighbors; the leader keeps its best candidate and
donates its 2nd and 3rd best down the left and right wings, and each wing bird
donates the 2nd best of its pooled candidates to the bird behind it. After 10
steps the best bird swaps places with the leader. The run stops on stagnation
(three equal consecutive tour bests), a 100-tour cap, or a wall-clock budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .heuristic import (
    ChangeSchedule,
    FeatureMask,
    FitnessFn,
    HeuristicError,
    RngStream,
    change_count,
    generate_neighbor,
    run_search,
)

STEPS_PER_TOUR = 10
MAX_TOURS = 100


@dataclass(frozen=True)
class Bird:
    mask: FeatureMask
    fitness: float


@dataclass(frozen=True)
class Flock:
    leader: Bird
    left: tuple[Bird, ...]
    right: tuple[Bird, ...]

    def __post_init__(self):
        if len(self.left) != len(self.right):
            raise HeuristicError("wings must be equal length")

    @property
    def size(self) -> int:
        return 1 + len(self.left) + len(self.right)

    def birds(self) -> list[Bird]:
        """Leader, then left wing front-to-back, then right wing."""
        return [self.leader, *self.left, *self.right]


@dataclass
class MboState:
    f_max: float
    b_max: FeatureMask
    f1: float
    f2: float
    f3: float
    counter: int = 0


@dataclass(frozen=True)
class MboConfig:
    flock_size: int = 7
    neighbors: int = 3  # per bird; leader needs a best plus two shares
    schedule: ChangeSchedule = field(default_factory=ChangeSchedule)
    budget_seconds: float = 600.0
    seed: int = 0

    def __post_init__(self):
        if self.flock_size < 3 or self.flock_size % 2 == 0:
            raise HeuristicError("flock_size must be odd and >= 3")
        if self.neighbors < 3:
            raise HeuristicError("need at least 3 neighbors per bird")


@dataclass(frozen=True)
class TourRecord:
    counter: int
    change: int
    f_max: float
    elapsed_ms: float


@dataclass
class RunTrace:
    records: list[TourRecord] = field(default_factory=list)
    termination: str = "max-tours"  # stagnation | max-tours | budget
    elapsed_seconds: float = 0.0


def initialize_flock(
    input_mask: FeatureMask, config: MboConfig, rng: RngStream, fitness: FitnessFn
) -> Flock:
    """Leader = the input mask; followers are schedule-sized perturbations of it,
    dealt alternately left/right so the input is always in the flock."""
    change = change_count(0, input_mask.popcount, config.schedule)
    leader = Bird(mask=input_mask, fitness=fitness(input_mask))
    left: list[Bird] = []
    right: list[Bird] = []
    for i in range(config.flock_size - 1):
        mask = generate_neighbor(input_mask, change, rng.child("init", i))
        bird = Bird(mask=mask, fitness=fitness(mask))
        (left if i % 2 == 0 else right).append(bird)
    return Flock(leader=leader, left=tuple(left), right=tuple(right))


def _best_two(pool: list[Bird]) -> tuple[Bird, Bird | None]:
    """Highest-fitness bird and runner-up; ties go to the earliest candidate."""
    order = sorted(range(len(pool)), key=lambda i: (-pool[i].fitness, i))
    best = pool[order[0]]
    second = pool[order[1]] if len(pool) > 1 else None
    return best, second


def fly(
    flock: Flock, change: int, rng: RngStream, fitness: FitnessFn, k: int
) -> Flock:
    """One fly step: per-bird neighbor pools with shares cascading down wings."""
    birds = flock.birds()
    neighbor_sets: list[list[Bird]] = []
    for i, bird in enumerate(birds):
        ns = []
        for j in range(k):
            mask = generate_neighbor(bird.mask, change, rng.child("bird", i).child("neighbor", j))
            ns.append(Bird(mask=mask, fitness=fitness(mask)))
        neighbor_sets.append(ns)

    leader_pool = [birds[0], *neighbor_sets[0]]
    order = sorted(range(len(leader_pool)), key=lambda i: (-leader_pool[i].fitness, i))
    new_leader = leader_pool[order[0]]
    shares = {  # (wing, depth) -> inherited candidate
        ("left", 0): leader_pool[order[1]],
        ("right", 0): leader_pool[order[2]],
    }

    wings = {"left": flock.left, "right": flock.right}
    new_wings: dict[str, tuple[Bird, ...]] = {}
    for wing, members in wings.items():
        offset = 1 if wing == "left" else 1 + len(flock.left)
        out = []
        for depth, bird in enumerate(members):
            pool = [bird, *neighbor_sets[offset + depth], shares[(wing, depth)]]
            best, second = _best_two(pool)
            out.append(best)
            if depth + 1 < len(members):
                shares[(wing, depth + 1)] = second
        new_wings[wing] = tuple(out)

    return Flock(leader=new_leader, left=new_wings["left"], right=new_wings["right"])


def find_best_bird(flock: Flock) -> Bird:
    """Max fitness; ties to the leader, then front-to-back left, then right."""
    return max(flock.birds(), key=lambda b: b.fitness)  # max keeps the first tie


def reorder(flock: Flock) -> Flock:
    """Swap the best bird with the leader; everything else stays in place."""
    best = find_best_bird(flock)
    if best is flock.leader:
        return flock
    swap = lambda wing: tuple(flock.leader if b is best else b for b in wing)
    return Flock(leader=best, left=swap(flock.left), right=swap(flock.right))


@dataclass
class MboSnapshot:
    """The search's live state; everything needed to resume at a tour boundary."""

    state: MboState
    flock: Flock
    elapsed_seconds: float
    trace: RunTrace


def _stop_rule(snap: MboSnapshot) -> str | None:
    s = snap.state
    if s.counter >= 3 and s.f1 == s.f3:
        return "stagnation"
    return "max-tours" if s.counter >= MAX_TOURS else None


def mbo_select(
    input_mask: FeatureMask,
    config: MboConfig,
    fitness: FitnessFn,
    resume: MboSnapshot | None = None,
    on_tour=None,
) -> tuple[FeatureMask, MboState, RunTrace]:
    """Run the full search from (or resuming toward) the input mask.

    The returned mask never scores below the input: the global best is
    initialized to the input itself, so a failed search falls back to the
    prefilter selection.
    """
    if input_mask.popcount < 1:
        raise HeuristicError("input mask must select at least one feature")
    rng = RngStream(config.seed)
    m_prime = input_mask.popcount

    snap = resume
    if snap is None:
        f0 = fitness(input_mask)
        snap = MboSnapshot(
            state=MboState(f_max=f0, b_max=input_mask, f1=f0, f2=f0, f3=f0),
            flock=initialize_flock(input_mask, config, rng.child("flock"), fitness),
            elapsed_seconds=0.0,
            trace=RunTrace(),
        )

    def tour(snap: MboSnapshot, clock):
        state, flock = snap.state, snap.flock
        change = change_count(state.counter, m_prime, config.schedule)
        tour_rng = rng.child("tour", state.counter)
        for step in range(STEPS_PER_TOUR):
            flock = fly(flock, change, tour_rng.child("step", step), fitness, config.neighbors)
            best = find_best_bird(flock)
            if best.fitness > state.f_max:
                state.f_max = best.fitness
                state.b_max = best.mask
        snap.flock = reorder(flock)
        state.f1, state.f2, state.f3 = state.f_max, state.f1, state.f2
        state.counter += 1
        snap.trace.records.append(TourRecord(state.counter, change, state.f_max, clock() * 1000.0))

    run_search(snap, tour, _stop_rule, config.budget_seconds, on_tour)
    return snap.state.b_max, snap.state, snap.trace
