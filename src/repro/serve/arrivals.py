"""Open-loop arrival processes for the fleet serving simulation.

Every closed-loop experiment in the repository drives the platform as fast
as it will go; a *serving* fleet instead faces an open-loop stream whose
arrival pattern it does not control.  Two canonical processes cover the
regimes the queueing literature (and every serving benchmark since
YCSB/TailBench) cares about:

* :class:`PoissonArrivals` -- memoryless arrivals at a constant rate, the
  baseline assumption of M/G/k analysis;
* :class:`MMPPArrivals` -- a two-state Markov-modulated Poisson process
  alternating between a calm and a burst state, the standard minimal model
  of bursty production traffic (diurnal spikes, batch-job frontiers).
  The calm-state rate is chosen so the *long-run average* equals the
  requested rate, which keeps Poisson and MMPP runs comparable at the same
  offered load: the burst process is a redistribution of the same demand,
  not extra demand.

Determinism is the contract of the whole serve layer: a process draws
exclusively from the :class:`random.Random` instance handed to
``generate``, so one seed fixes the entire request stream bit-exactly
(the serve experiment's tables must be reproducible and cache-safe like
every other experiment's).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import List

from repro.common import SimulationError


class ArrivalProcess:
    """Base class: generate arrival times (seconds) on ``[0, horizon_s)``.

    Subclasses implement :meth:`generate`; they must draw randomness only
    from the supplied ``rng`` and return a sorted list.
    """

    #: Registry name (``TenantSpec.arrival`` refers to processes by it).
    name = "base"

    def generate(self, rng: random.Random, rate_rps: float,
                 horizon_s: float) -> List[float]:
        raise NotImplementedError

    @staticmethod
    def _check(rate_rps: float, horizon_s: float) -> None:
        if rate_rps <= 0.0:
            raise SimulationError(
                f"arrival rate must be positive, got {rate_rps}")
        if horizon_s <= 0.0:
            raise SimulationError(
                f"arrival horizon must be positive, got {horizon_s}")


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential inter-arrival times."""

    name = "poisson"

    def generate(self, rng: random.Random, rate_rps: float,
                 horizon_s: float) -> List[float]:
        self._check(rate_rps, horizon_s)
        times: List[float] = []
        t = rng.expovariate(rate_rps)
        while t < horizon_s:
            times.append(t)
            t += rng.expovariate(rate_rps)
        return times


@dataclass(frozen=True)
class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (calm / burst).

    The process alternates exponential-length sojourns in a calm state and
    a burst state; within a sojourn, arrivals are Poisson at that state's
    rate.  ``burst_fraction`` is the long-run fraction of time spent
    bursting and ``burst_multiplier`` the burst-to-calm rate ratio; the
    calm rate is solved so the long-run average rate equals ``rate_rps``.
    ``mean_cycles`` sets how many calm+burst cycles fit the horizon in
    expectation, tying burst durations to the horizon rather than to an
    absolute wall-clock that would lose meaning across load levels.
    """

    name = "mmpp"

    burst_fraction: float = 0.2
    burst_multiplier: float = 4.0
    mean_cycles: float = 8.0

    def __post_init__(self) -> None:
        if not 0.0 < self.burst_fraction < 1.0:
            raise SimulationError(
                f"burst_fraction must be in (0, 1), got "
                f"{self.burst_fraction}")
        if self.burst_multiplier < 1.0:
            raise SimulationError(
                f"burst_multiplier must be >= 1, got "
                f"{self.burst_multiplier}")
        if self.mean_cycles <= 0.0:
            raise SimulationError(
                f"mean_cycles must be positive, got {self.mean_cycles}")

    def generate(self, rng: random.Random, rate_rps: float,
                 horizon_s: float) -> List[float]:
        self._check(rate_rps, horizon_s)
        # Long-run average: calm*(1-f) + calm*m*f == rate.
        calm_rate = rate_rps / (
            1.0 - self.burst_fraction
            + self.burst_multiplier * self.burst_fraction)
        burst_rate = calm_rate * self.burst_multiplier
        cycle_s = horizon_s / self.mean_cycles
        mean_burst_s = cycle_s * self.burst_fraction
        mean_calm_s = cycle_s - mean_burst_s
        times: List[float] = []
        t, bursting = 0.0, False
        while t < horizon_s:
            sojourn = rng.expovariate(
                1.0 / (mean_burst_s if bursting else mean_calm_s))
            end = min(t + sojourn, horizon_s)
            rate = burst_rate if bursting else calm_rate
            arrival = t + rng.expovariate(rate)
            while arrival < end:
                times.append(arrival)
                arrival += rng.expovariate(rate)
            t, bursting = end, not bursting
        return times


#: Registered arrival processes, keyed by ``name`` (registration order is
#: preserved for stable listings).
ARRIVAL_REGISTRY: "OrderedDict[str, ArrivalProcess]" = OrderedDict(
    (process.name, process)
    for process in (PoissonArrivals(), MMPPArrivals()))


def arrival_process(name: str) -> ArrivalProcess:
    """Look up a registered arrival process by name."""
    try:
        return ARRIVAL_REGISTRY[name]
    except KeyError:
        known = ", ".join(ARRIVAL_REGISTRY)
        raise ValueError(
            f"unknown arrival process {name!r}; known: {known}") from None


def register_arrival_process(process: ArrivalProcess, *,
                             overwrite: bool = False) -> ArrivalProcess:
    """Register an arrival process instance under its ``name``."""
    if not overwrite and process.name in ARRIVAL_REGISTRY:
        raise ValueError(
            f"arrival process {process.name!r} is already registered; "
            "pass overwrite=True to replace it")
    ARRIVAL_REGISTRY[process.name] = process
    return process
