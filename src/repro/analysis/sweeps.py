"""Parameter-sweep experiment runner.

The benchmark harness repeats one pattern everywhere: build instances
along a parameter axis, run algorithms, collect round counts, fit the
exponent, render a table.  :func:`run_sweep` packages that pattern as a
library feature so downstream users can reproduce the methodology on
their own instance families in a few lines::

    sweep = run_sweep(
        axis=("d", [8, 27, 64]),
        instance_factory=lambda d: make_hard_instance(16 * d, d, rng),
        algorithms={"two_phase": multiply_two_phase, "naive": naive_triangles},
    )
    print(sweep.render())
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.analysis.executor import build_cells, execute_cells
from repro.analysis.fitting import ExponentFit, fit_exponent
from repro.envconfig import env_checkpoint_dir

__all__ = ["SweepResult", "run_sweep"]


@dataclass
class SweepResult:
    """Measured rounds per algorithm along one parameter axis."""

    axis_name: str
    axis_values: list
    rounds: dict[str, list[int]]
    messages: dict[str, list[int]]
    verified: bool
    #: per-cell verification status (``cell_verified[algo][i]`` for axis
    #: value ``i``): True/False per cell, or None where verification was
    #: skipped.  Populated by ``run_sweep(strict=False)``.
    cell_verified: dict[str, list[bool | None]] = field(default_factory=dict)
    #: per-cell payloads of the sweep's ``detail`` hook
    #: (``details[algo][i]``); empty when no hook was passed.
    details: dict[str, list] = field(default_factory=dict)
    #: per-cell engine status (``cell_status[algo][i]``): ``"ok"``,
    #: ``"failed"``, or ``"quarantined"`` (self-healing engine gave up on
    #: the cell after ``max_attempts``).
    cell_status: dict[str, list[str]] = field(default_factory=dict)
    #: engine instrumentation from :func:`repro.analysis.executor.execute_cells`
    #: (worker counts, per-cell wall clock, utilization, cache counters).
    stats: dict[str, Any] = field(default_factory=dict)

    def fit(self, algorithm: str) -> ExponentFit:
        """Power-law fit of one algorithm's rounds against the axis."""
        return fit_exponent(self.axis_values, self.rounds[algorithm])

    def fits(self) -> dict[str, ExponentFit]:
        """Fits for every algorithm in the sweep."""
        return {name: self.fit(name) for name in self.rounds}

    def render(self) -> str:
        """A printable table: one row per axis value, one column per
        algorithm, with fitted exponents in the footer."""
        names = sorted(self.rounds)
        width = max(10, max(len(n) for n in names) + 2)
        lines = [
            f"{self.axis_name:>8} " + "".join(f"{n:>{width}}" for n in names)
        ]
        for idx, v in enumerate(self.axis_values):
            lines.append(
                f"{v:>8} "
                + "".join(f"{self.rounds[n][idx]:>{width}}" for n in names)
            )
        fits = self.fits()
        lines.append(
            f"{'fit':>8} "
            + "".join(
                f"{self.axis_name}^{fits[n].exponent:.2f}".rjust(width) for n in names
            )
        )
        return "\n".join(lines)


def run_sweep(
    *,
    axis: tuple[str, Sequence],
    instance_factory: Callable,
    algorithms: Mapping[str, Callable],
    verify: bool = True,
    strict: bool = True,
    workers: int | None = 1,
    seed: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    detail: Callable | None = None,
    cell_timeout_s: float | None = None,
    max_attempts: int = 1,
    retry_backoff_s: float = 0.05,
    checkpoint_dir: str | os.PathLike | None = None,
    checkpoint_every: int = 1,
    resume: bool = True,
    engine: str = "auto",
) -> SweepResult:
    """Run every algorithm on a fresh instance per axis value.

    ``instance_factory(value)`` must build an independent instance each
    call (algorithms mutate network state, never the instance, but each
    algorithm gets its own instance to keep ownership caches clean).
    ``algorithms`` maps display names to callables with the standard
    ``(instance, **kwargs) -> MultiplyResult`` signature.

    The ``(axis value, algorithm)`` grid cells are independent, so they
    are dispatched through :func:`repro.analysis.executor.execute_cells`:

    * ``workers`` — process count for the fan-out (``1``: in-process
      serial; ``0``/``None``: auto).  Results are reassembled in grid
      order and are bit-identical for every worker count.
    * ``seed`` — when set, the factory is called as
      ``instance_factory(value, rng)`` with the deterministic per-cell
      generator ``cell_rng(seed, axis_index, algo_index)``; when ``None``
      (legacy), as ``instance_factory(value)``.
    * ``cache_dir`` — warm-load/merge-back directory for the persistent
      schedule store (see :mod:`repro.model.schedule_cache`).
    * ``detail`` — optional ``detail(instance, result)`` hook executed in
      the worker; its (picklable) return values land in
      ``SweepResult.details[algo]``, aligned with the axis.
    * ``strict`` — with the default ``True``, a failed verification
      raises ``AssertionError`` and any cell exception is re-raised as
      ``RuntimeError``.  With ``strict=False`` the sweep always completes:
      per-cell verification status lands in ``SweepResult.cell_verified``,
      failed cells report rounds/messages of ``-1``, and ``verified`` is
      the conjunction over all cells.
    * ``cell_timeout_s`` / ``max_attempts`` / ``retry_backoff_s`` — the
      self-healing engine knobs (see
      :func:`repro.analysis.executor.execute_cells`): hung, crashed, or
      raising cells are retried with backoff on a fresh worker and
      quarantined after ``max_attempts``; per-cell outcomes land in
      ``SweepResult.cell_status``.  With ``strict=True`` a quarantined
      cell still raises ``RuntimeError``.
    * ``checkpoint_dir`` / ``checkpoint_every`` / ``resume`` — crash-safe
      checkpointing (see :mod:`repro.analysis.checkpoint`): completed
      cells are written to an atomic manifest every ``checkpoint_every``
      completions, and a re-run with the same sweep specification
      restores them instead of re-executing — a killed sweep resumes
      bit-identically from its last checkpoint.  ``stats["checkpoint"]``
      reports restored/executed counts.  When ``checkpoint_dir`` is
      ``None``, the ``REPRO_SWEEP_CHECKPOINT_DIR`` environment variable
      (:func:`repro.envconfig.env_checkpoint_dir`) supplies the default.
    * ``engine`` — ``"auto"`` or ``"shm"``: every multi-process sweep runs
      on the zero-copy shared-memory work-stealing engine; on a host that
      cannot create segments, ``"auto"`` runs the sweep in-process (the
      reason lands in ``stats["fallback"]``) and ``"shm"`` raises (see
      :func:`repro.analysis.executor.execute_cells`).
    """
    if checkpoint_dir is None:
        checkpoint_dir = env_checkpoint_dir()
    name, values = axis
    cells = build_cells(values, algorithms)
    results, stats = execute_cells(
        cells,
        instance_factory=instance_factory,
        algorithms=algorithms,
        verify=verify,
        workers=workers,
        seed=seed,
        cache_dir=cache_dir,
        detail=detail,
        cell_timeout_s=cell_timeout_s,
        max_attempts=max_attempts,
        retry_backoff_s=retry_backoff_s,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        resume=resume,
        engine=engine,
    )
    if strict:
        for res in results:
            if res.error is not None:
                raise RuntimeError(
                    f"{res.algo_name} failed at {name}={res.axis_value}: {res.error}"
                )
            if verify and res.verified is False:
                raise AssertionError(
                    f"{res.algo_name} produced a wrong product at {name}={res.axis_value}"
                )
    rounds: dict[str, list[int]] = {a: [] for a in algorithms}
    messages: dict[str, list[int]] = {a: [] for a in algorithms}
    cell_verified: dict[str, list[bool | None]] = {a: [] for a in algorithms}
    cell_status: dict[str, list[str]] = {a: [] for a in algorithms}
    details: dict[str, list] = {a: [] for a in algorithms} if detail else {}
    for res in results:  # already in axis-major, algorithm-minor order
        rounds[res.algo_name].append(res.rounds)
        messages[res.algo_name].append(res.messages)
        ok = res.verified if res.error is None else False
        cell_verified[res.algo_name].append(ok)
        cell_status[res.algo_name].append(res.status)
        if detail:
            details[res.algo_name].append(res.details)
    all_ok = all(ok is not False for col in cell_verified.values() for ok in col)
    return SweepResult(
        axis_name=name,
        axis_values=list(values),
        rounds=rounds,
        messages=messages,
        verified=all_ok,
        cell_verified=cell_verified,
        cell_status=cell_status,
        details=details,
        stats=stats,
    )
