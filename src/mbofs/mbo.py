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
    SearchTrace,
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
            raise HeuristicError("neighbors must be >= 3")


@dataclass(frozen=True)
class TourRecord:
    change: int
    f_max: float
    elapsed_ms: float

    @property
    def best(self) -> float:
        return self.f_max

    def trace_line(self, tour: int) -> str:
        """This record's line in trace_mbo.txt; `tour` is its 1-based position."""
        return (f"tour={tour} change={self.change} f_max={self.f_max!r} "
                f"elapsed_ms={self.elapsed_ms:.1f}")


def initialize_flock(
    input_mask: FeatureMask, config: MboConfig, rng: RngStream, fitness: FitnessFn
) -> Flock:
    """Leader = the input mask; followers are schedule-sized perturbations of it,
    scored in one batch with it as their parent and dealt alternately
    left/right, so the input is always in the flock."""
    change = change_count(0, input_mask.popcount, config.schedule)
    leader = Bird(mask=input_mask, fitness=fitness(input_mask))
    masks = [generate_neighbor(input_mask, change, rng.child("init", i))
             for i in range(config.flock_size - 1)]
    values = fitness.batch([(input_mask, mask) for mask in masks])
    followers = [Bird(mask=m, fitness=f) for m, f in zip(masks, values)]
    return Flock(leader=leader, left=tuple(followers[0::2]), right=tuple(followers[1::2]))


def _ranked(pool: list[Bird]) -> list[Bird]:
    """The pool, best fitness first; the sort is stable, so ties go to the earliest."""
    return sorted(pool, key=lambda b: -b.fitness)


def fly(
    flock: Flock, change: int, rng: RngStream, fitness: FitnessFn, k: int
) -> Flock:
    """One fly step: per-bird neighbor pools with shares cascading down wings.
    Every neighbor is drawn first, then all are scored in one fitness batch."""
    birds = flock.birds()
    pairs = [(bird.mask, generate_neighbor(bird.mask, change,
                                           rng.child("bird", i).child("neighbor", j)))
             for i, bird in enumerate(birds) for j in range(k)]
    pool = [Bird(mask=child, fitness=f) for (_, child), f in zip(pairs, fitness.batch(pairs))]
    neighbor_sets = [pool[i * k:(i + 1) * k] for i in range(len(birds))]

    new_leader, *shares = _ranked([birds[0], *neighbor_sets[0]])[:3]
    wings = []
    offset = 1  # index of the wing's first bird in birds
    for members, share in zip((flock.left, flock.right), shares):
        out = []
        for depth, bird in enumerate(members):
            best, share = _ranked([bird, *neighbor_sets[offset + depth], share])[:2]
            out.append(best)
        wings.append(tuple(out))
        offset += len(members)
    return Flock(leader=new_leader, left=wings[0], right=wings[1])


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
    """The search's live state; everything needed to resume at a tour boundary.
    `records` lists the tours flown so far."""

    flock: Flock
    b_max: FeatureMask
    f_max: float
    records: list[TourRecord]


def _stop_rule(snap: MboSnapshot) -> str | None:
    r = snap.records
    if len(r) >= 3 and r[-1].f_max == r[-3].f_max:
        return "stagnation"
    return "max-tours" if len(r) >= MAX_TOURS else None


def mbo_select(
    input_mask: FeatureMask,
    config: MboConfig,
    fitness: FitnessFn,
    resume: MboSnapshot | None = None,
    on_step=None,
) -> tuple[FeatureMask, SearchTrace]:
    """Run the full search from (or resuming toward) the input mask; return the
    best mask and the trace. `on_step` gets the live snapshot after each tour.

    The returned mask never scores below the input: the global best is
    initialized to the input itself, so a failed search falls back to the
    prefilter selection.
    """
    if input_mask.popcount < 1:
        raise HeuristicError("input mask must select at least one feature")
    if input_mask.universe == 1:  # the input is the only non-empty mask: no neighbours
        return input_mask, SearchTrace([], "single-feature", 0.0)
    rng = RngStream(config.seed)
    m_prime = input_mask.popcount

    snap = resume
    if snap is None:
        f0 = fitness(input_mask)
        flock = initialize_flock(input_mask, config, rng.child("flock"), fitness)
        snap = MboSnapshot(flock=flock, b_max=input_mask, f_max=f0, records=[])

    def tour(snap: MboSnapshot, clock):
        done = len(snap.records)  # tours already flown
        change = change_count(done, m_prime, config.schedule)
        tour_rng = rng.child("tour", done)
        flock = snap.flock
        for step in range(STEPS_PER_TOUR):
            flock = fly(flock, change, tour_rng.child("step", step), fitness, config.neighbors)
            best = find_best_bird(flock)
            if best.fitness > snap.f_max:
                snap.f_max = best.fitness
                snap.b_max = best.mask
        snap.flock = reorder(flock)
        snap.records.append(TourRecord(change, snap.f_max, clock() * 1000.0))

    trace = run_search(snap, tour, _stop_rule, config.budget_seconds, on_step)
    return snap.b_max, trace
