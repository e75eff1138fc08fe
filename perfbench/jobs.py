"""Pool jobs and output taps (module level, so worker processes can unpickle them).

The output oracle needs two values the program computes but does not
return: the frame results a trial scores, and the bytes a transfer
session hands back.  :func:`install_taps` records both, at the sites
the program looks them up, without changing either; the taps only keep
references, so timed runs pay nothing measurable for them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from repro.bench import faults_campaign, runner

from .hostspeed import time_kernel

#: Frame-result lists scored by ``run_rainbar_trial``, oldest first.
FRAME_RESULTS: list[list[Any]] = []
#: ``(payload sent, payload recovered)`` of the latest transfer session.
LAST_TRANSFER: list[tuple[bytes, bytes | None]] = []


def _score_tap(trial: Any, results: list[Any], payloads: dict[int, bytes]) -> None:
    FRAME_RESULTS.append(list(results))
    _score_results(trial, results, payloads)


_score_results = runner._score_results


class _TappedSession(faults_campaign.TransferSession):
    def transmit(self, payload: bytes, max_rounds: int = 5) -> Any:
        recovered, stats = super().transmit(payload, max_rounds=max_rounds)
        LAST_TRANSFER[:] = [(payload, recovered)]
        return recovered, stats


def install_taps() -> None:
    """Install the result taps in this process (idempotent)."""
    runner._score_results = _score_tap
    faults_campaign.TransferSession = _TappedSession


@dataclass(frozen=True)
class SessionOutcome:
    """What one fault-campaign session job returns to the benchmark."""

    result: Any  # FaultTrialResult
    elapsed_s: float
    pid: int
    sent: bytes
    recovered: bytes | None


def session_job(scenario: str, seed: int) -> SessionOutcome:
    """One transfer session of the fault campaign, timed where it runs."""
    install_taps()
    start = perf_counter()
    result = faults_campaign.run_fault_trial(scenario=scenario, seed=seed)
    elapsed = perf_counter() - start
    sent, recovered = LAST_TRANSFER.pop()
    return SessionOutcome(result, elapsed, os.getpid(), sent, recovered)


def kernel_job(height: int, width: int) -> float:
    """One calibration-kernel pass, timed in the worker that ran it."""
    return time_kernel(height, width)
