"""Pluggable execution backends for replicated runs and sweeps.

Every paper artifact is a batch of *independent* simulation runs; this
module is the single place that executes such batches.  A :class:`Job`
names what to run (a packet-level or contact-level config), a
:class:`Runner` decides how:

* :class:`SerialRunner` — in-process, one run at a time (the default;
  identical to the historical behavior).
* :class:`ProcessPoolRunner` — ``concurrent.futures`` worker processes,
  one job per worker at a time.  Configs cross the process boundary as
  plain dicts (:mod:`repro.codec`; the agent class is re-resolved from
  the protocol registry by name, never pickled) and results come back
  the same way, so both runners produce *identical* result objects for
  identical seeds.

Guarantees shared by all runners:

* **Deterministic ordering** — results come back in job-submission
  order, regardless of completion order.
* **Crash isolation** — an exception inside one run becomes a
  structured :class:`RunFailure` in that job's slot; the other jobs are
  unaffected.
* **Checkpointing** — given a :class:`~repro.harness.serialize.Checkpoint`,
  completed runs are persisted as they finish and served from disk on a
  re-run, so an interrupted sweep resumes where it stopped.
* **Process-safe progress** — the optional callback receives
  ``completed/total`` counts from the coordinating process only; it
  never assumes in-order execution.
"""

from __future__ import annotations

import traceback as _traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Union

from repro.codec import from_plain, to_plain
from repro.contact.simulator import (
    ContactSimConfig,
    ContactSimResult,
    run_contact_simulation,
)
from repro.harness.serialize import Checkpoint, run_key
from repro.network.config import SimulationConfig
from repro.network.simulation import SimulationResult, run_simulation

Progress = Optional[Callable[[str], None]]


@dataclass(frozen=True)
class Job:
    """One unit of work: run ``config`` with the ``kind`` simulator."""

    kind: str  # "packet" | "contact"
    config: object

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; "
                             f"choose from {sorted(JOB_KINDS)}")


@dataclass
class RunFailure:
    """A run that raised instead of producing a result."""

    job: Job
    error_type: str
    error: str
    traceback: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"RunFailure({self.error_type}: {self.error})"


RunOutcome = Union[object, RunFailure]


class JobKind(NamedTuple):
    """The config type, simulator and result type of one kind of job.

    Both types cross process and disk boundaries through
    :mod:`repro.codec`.
    """

    config_cls: type
    run: Callable[[object], object]
    result_cls: type


#: Job kind name -> types + execution function.  Module-level so worker
#: processes resolve kinds by name after import, exactly like protocols.
JOB_KINDS: Dict[str, JobKind] = {
    "packet": JobKind(SimulationConfig, run_simulation, SimulationResult),
    "contact": JobKind(ContactSimConfig, run_contact_simulation,
                       ContactSimResult),
}


def job_key(job: Job) -> str:
    """Stable checkpoint key of one job (kind + full config hash)."""
    return run_key(job.kind, to_plain(job.config))


def _describe(job: Job) -> str:
    cfg = job.config
    protocol = getattr(cfg, "protocol", None) or getattr(cfg, "policy", "?")
    return f"{job.kind}:{protocol} seed={getattr(cfg, 'seed', '?')}"


def _failure(job: Job, exc: BaseException, tb: str) -> RunFailure:
    return RunFailure(job=job, error_type=type(exc).__name__,
                      error=str(exc), traceback=tb)


def _pool_worker(kind_name: str, payload: Dict[str, object]) -> Dict[str, object]:
    """Executed in a worker process: decode, run, encode.

    Always returns a plain dict (never raises), so a crashing run is
    reported back as data instead of poisoning the pool.
    """
    kind = JOB_KINDS[kind_name]
    try:
        result = kind.run(from_plain(kind.config_cls, payload))
        return {"ok": True, "result": to_plain(result)}
    except BaseException as exc:  # noqa: BLE001 - isolation boundary
        return {"ok": False, "error_type": type(exc).__name__,
                "error": str(exc), "traceback": _traceback.format_exc()}


class Runner:
    """Execution backend protocol (also usable as a base class).

    Subclasses implement :meth:`run_jobs`; everything above this layer
    (``run_replicated``, ``sweep``, the CLI) only talks to this method.
    """

    def run_jobs(
        self,
        jobs: Sequence[Job],
        progress: Progress = None,
        checkpoint: Optional[Checkpoint] = None,
    ) -> List[RunOutcome]:
        """Run all jobs; results in submission order, failures in-slot."""
        raise NotImplementedError


class SerialRunner(Runner):
    """Run jobs one at a time in the current process (default backend)."""

    def run_jobs(
        self,
        jobs: Sequence[Job],
        progress: Progress = None,
        checkpoint: Optional[Checkpoint] = None,
    ) -> List[RunOutcome]:
        outcomes: List[RunOutcome] = []
        total = len(jobs)
        for done, job in enumerate(jobs, start=1):
            kind = JOB_KINDS[job.kind]
            key = job_key(job)
            cached = checkpoint.get(key) if checkpoint is not None else None
            if cached is not None:
                outcome: RunOutcome = from_plain(kind.result_cls, cached)
                note = "cached"
            else:
                try:
                    result = kind.run(job.config)
                except Exception as exc:  # noqa: BLE001 - isolation boundary
                    outcome = _failure(job, exc, _traceback.format_exc())
                    note = "FAILED"
                else:
                    if checkpoint is not None:
                        checkpoint.put(key, job.kind, to_plain(result))
                    outcome = result
                    note = "ok"
            if progress is not None:
                progress(f"  completed {done}/{total} "
                         f"({_describe(job)}, {note})")
            outcomes.append(outcome)
        return outcomes


class ProcessPoolRunner(Runner):
    """Run jobs in parallel worker processes.

    ``max_workers`` bounds concurrency (``None`` = one per CPU).  Jobs
    are dispatched as config dicts and come back as result dicts, so
    worker processes never pickle live simulation objects.  Completion
    order is arbitrary; the returned list is in submission order.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers

    def run_jobs(
        self,
        jobs: Sequence[Job],
        progress: Progress = None,
        checkpoint: Optional[Checkpoint] = None,
    ) -> List[RunOutcome]:
        outcomes: List[RunOutcome] = [None] * len(jobs)
        total = len(jobs)
        done = 0

        pending: List[int] = []  # indices that actually need a worker
        for i, job in enumerate(jobs):
            cached = (checkpoint.get(job_key(job))
                      if checkpoint is not None else None)
            if cached is not None:
                outcomes[i] = from_plain(JOB_KINDS[job.kind].result_cls,
                                         cached)
                done += 1
                if progress is not None:
                    progress(f"  completed {done}/{total} "
                             f"({_describe(job)}, cached)")
            else:
                pending.append(i)

        if not pending:
            return outcomes

        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            future_index = {}
            for i in pending:
                job = jobs[i]
                fut = pool.submit(_pool_worker, job.kind,
                                  to_plain(job.config))
                future_index[fut] = i
            not_done = set(future_index)
            while not_done:
                finished, not_done = wait(not_done,
                                          return_when=FIRST_COMPLETED)
                for fut in finished:
                    i = future_index[fut]
                    job = jobs[i]
                    kind = JOB_KINDS[job.kind]
                    payload = fut.result()
                    if payload["ok"]:
                        result_dict = payload["result"]
                        if checkpoint is not None:
                            checkpoint.put(job_key(job), job.kind,
                                           result_dict)
                        outcomes[i] = from_plain(kind.result_cls,
                                                 result_dict)
                        note = "ok"
                    else:
                        outcomes[i] = RunFailure(
                            job=job,
                            error_type=payload["error_type"],
                            error=payload["error"],
                            traceback=payload["traceback"],
                        )
                        note = "FAILED"
                    done += 1
                    if progress is not None:
                        progress(f"  completed {done}/{total} "
                                 f"({_describe(job)}, {note})")
        return outcomes


class TracingRunner(Runner):
    """Wrap another runner, tracing every job to disk.

    Each job's config is rewritten with a ``trace_path`` under
    ``trace_dir`` (packet jobs also get ``telemetry`` on), named by the
    first 16 hex chars of the job's (pre-trace) run key, so re-runs of
    the same config overwrite their own trace.  Packet- and
    contact-level jobs emit the same JSONL format (``dftmsn report``
    consumes both).  Works with any inner backend: the trace path
    travels inside the config dict, so pool workers write traces too.
    """

    def __init__(self, inner: Runner, trace_dir: Union[str, Path]) -> None:
        self.inner = inner
        self.trace_dir = Path(trace_dir)

    def run_jobs(
        self,
        jobs: Sequence[Job],
        progress: Progress = None,
        checkpoint: Optional[Checkpoint] = None,
    ) -> List[RunOutcome]:
        """Rewrite packet jobs with trace paths, then delegate."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        traced = [self._with_trace(job) for job in jobs]
        return self.inner.run_jobs(traced, progress=progress,
                                   checkpoint=checkpoint)

    def _with_trace(self, job: Job) -> Job:
        config = job.config
        # Key on the config *before* the trace path is added, so the
        # file name does not depend on where the traces land.
        key = run_key(job.kind, to_plain(config))[:16]
        path = str(self.trace_dir / f"{key}.jsonl")
        if job.kind == "packet":
            assert isinstance(config, SimulationConfig)
            config = replace(config, telemetry=True, trace_path=path)
        else:
            assert isinstance(config, ContactSimConfig)
            config = replace(config, trace_path=path)
        return Job(job.kind, config)


def runner_for_workers(workers: int = 0) -> Runner:
    """CLI-facing factory: 0 workers = serial, N >= 1 = process pool."""
    if workers < 0:
        raise ValueError("workers cannot be negative")
    if workers == 0:
        return SerialRunner()
    return ProcessPoolRunner(max_workers=workers)
