"""Deterministic fault injection for the supervised worker pool.

Chaos testing a supervisor is only useful when the chaos replays: a CI
failure must reproduce locally from the same seed.  A :class:`FaultPlan`
is therefore a pure function of ``(seed, job, attempt)`` — no global
RNG, no wall clock — that tells a pool worker to **crash** (hard
``os._exit``, simulating an OOM kill or segfault), **hang** (block until
the supervisor kills it, simulating a livelock), or **corrupt** its
result (return a payload that fails the parent's validation, simulating
memory corruption or a serialization bug).

``max_faults_per_chunk`` bounds how many *attempts* of one job can
fault, so a faulted run always converges: once a job has burned its
fault allowance, the next retry runs clean and produces exactly the
result a fault-free run would — which is what lets the chaos suites
assert byte-identical output.  (Set it above the supervisor's retry cap
to exercise the degradation path instead.)

The plan is handed to every worker of a
:class:`repro.resilience.pool.WorkerPool`, which decides each job
attempt's fault from the job's sequence number; the task decides where
it fires (:meth:`repro.resilience.pool.JobContext.inject`).  A
population chunk (``repro experiments --chaos``) faults at its
midpoint, after some records are already built — so recovery must
*discard* partial work, not just restart idle workers.  A daemon job
(``repro serve --chaos`` / ``repro bench --service --chaos``) faults
after parsing its block.  Job sequence numbers count submissions, so a
given chunk or request hits the same faults on every replay.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Optional

#: Fault kinds a plan can schedule.
FAULT_KINDS = ("crash", "hang", "corrupt")

#: Exit status of an injected worker crash (distinctive in process tables).
CRASH_EXIT_CODE = 70


@dataclass(frozen=True)
class FaultPlan:
    """Seeded schedule of worker faults (rates are per job *attempt*)."""

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    corrupt_rate: float = 0.0
    max_faults_per_chunk: int = 2

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1] (got {rate})")
        if self.crash_rate + self.hang_rate + self.corrupt_rate > 1.0:
            raise ValueError("fault rates must sum to at most 1")
        if self.max_faults_per_chunk < 0:
            raise ValueError("max_faults_per_chunk must be non-negative")

    def decide(self, job: int, attempt: int) -> Optional[str]:
        """The fault (if any) attempt ``attempt`` of job ``job`` takes.

        Deterministic: integer-mixed seeding, no dependence on process
        state, so the parent can predict exactly what its workers will do.
        """
        if attempt >= self.max_faults_per_chunk:
            return None
        rng = random.Random(
            self.seed * 2_654_435_761 + job * 40_503 + attempt
        )
        draw = rng.random()
        if draw < self.crash_rate:
            return "crash"
        if draw < self.crash_rate + self.hang_rate:
            return "hang"
        if draw < self.crash_rate + self.hang_rate + self.corrupt_rate:
            return "corrupt"
        return None

    def inject(self, fault: Optional[str]) -> None:
        """Execute a crash or hang fault in the calling worker process.

        A hang never returns: the worker blocks until the supervisor's
        no-progress deadline kills it.  (``corrupt`` is applied to the
        result by the task, not here — it must survive until the result
        is returned.)
        """
        if fault == "crash":
            os._exit(CRASH_EXIT_CODE)
        elif fault == "hang":
            while True:
                time.sleep(3600)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from CLI syntax: ``"crash=0.1,hang=0.05,seed=7"``.

        Keys: ``crash``, ``hang``, ``corrupt`` (rates), ``seed``,
        ``max-faults``.
        """
        kwargs: dict = {}
        mapping = {
            "crash": ("crash_rate", float),
            "hang": ("hang_rate", float),
            "corrupt": ("corrupt_rate", float),
            "seed": ("seed", int),
            "max-faults": ("max_faults_per_chunk", int),
        }
        for piece in spec.split(","):
            piece = piece.strip()
            if not piece:
                continue
            key, sep, value = piece.partition("=")
            key = key.strip()
            if not sep or key not in mapping:
                raise ValueError(
                    f"bad --chaos entry {piece!r} "
                    f"(keys: {', '.join(sorted(mapping))})"
                )
            name, cast = mapping[key]
            try:
                kwargs[name] = cast(value.strip())
            except ValueError:
                raise ValueError(
                    f"bad --chaos value for {key!r}: {value.strip()!r}"
                ) from None
        return cls(**kwargs)
