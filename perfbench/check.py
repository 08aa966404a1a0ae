"""Correctness gate behind ``ok_frac``; runs after the timed phase.

Every job's values are checked against the instance's ground truth
(:meth:`SupportedInstance.verify`), and its rounds and messages against a
reference bill from the strict per-message path: a fresh network with
``columnar=False`` and no schedule cache, so nothing the timed run
produced can leak into the reference.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.sparse as sp

import repro.algorithms.api as api
from repro.model.certify import certify_product
from repro.model.network import LowBandwidthNetwork
from repro.serve.jobs import Job, structure_digest


@dataclass
class Bill:
    rounds: int
    messages: int
    x: sp.csr_matrix


@dataclass(slots=True)
class Answer:
    """What a served job's result has to show the gate.  ``x`` is the
    product the first time its instance returns it, and ``None`` for a
    repeat with the same ``digest``; the gate verifies each distinct
    answer once."""

    ok: bool
    rounds: int
    messages: int
    digest: str | None
    x: sp.csr_matrix | None
    value: Any
    certified: bool | None
    wall_s: float
    cache_hits: int
    cache_misses: int
    plan_replayed: bool
    plan_fallback: str | None


def product_digest(x) -> str | None:
    """BLAKE2b of a product's CSR arrays as they stand.  Two equal
    products stored differently get different digests, so each is
    verified; no answer goes unverified."""
    if x is None:
        return None
    h = hashlib.blake2b(digest_size=16)
    for arr in (x.indptr, x.indices, x.data):
        h.update(arr.tobytes())
    return h.hexdigest()


def reference_bill(inst, *, algorithm: str = "auto", kind: str = "multiply", certify_checks: int = 0) -> Bill:
    """Rounds, messages and product of ``inst`` on the per-message path.

    Serve jobs bill more than the product: a triangle job adds the
    convergecast that folds per-computer counts into computer 0, and a
    certified job adds the certifier's rounds.  Both run here on the
    reference network, in the order the serving layer runs them.
    """
    net = LowBandwidthNetwork(inst.n, columnar=False, schedule_cache=None)
    res = api.multiply(inst, algorithm=algorithm, network=net)
    bill = Bill(int(res.rounds), int(res.messages), res.x)
    if kind == "triangles":
        for comp in range(inst.n):
            net.write(comp, "tri_local", 0, provenance=())
        before = net.rounds
        net.segmented_convergecast(
            [list(range(inst.n))], ["tri_local"], combine=operator.add,
            label="serve/triangle-aggregate",
        )
        bill.rounds += net.rounds - before
    if certify_checks:
        bill.rounds += int(certify_product(inst, net, checks=certify_checks).rounds)
    return bill


def triangle_count(adjacency) -> int:
    a = sp.csr_matrix(adjacency, dtype=np.int64)
    return int((a @ a).multiply(a).sum()) // 6


def _bill_key(job) -> tuple:
    inst = job.instance
    return (structure_digest(inst), inst.semiring.name, job.kind, job.certify_checks)


def _serve_bill(job) -> tuple[int, int]:
    bill = reference_bill(
        job.instance, algorithm=job.algorithm, kind=job.kind, certify_checks=job.certify_checks
    )
    return bill.rounds, bill.messages


#: reference bills beyond this many are computed on two processes
PARALLEL_BILLS = 64


def serve_jobs_ok(records) -> list[bool]:
    """Check every ``(job, result)`` of a serve run.

    Reference bills are computed once per structure, semiring, kind and
    certification.  Products are verified once per instance object and
    distinct answer (keyed by its digest), so a resubmitted instance is
    verified once.
    """
    first: dict = {}
    for job, res in records:
        if res is not None and res.ok:
            first.setdefault(_bill_key(job), job)
    jobs = [Job(job.tenant, job.instance, job.kind, job.algorithm, job.certify_checks) for job in first.values()]
    if len(jobs) > PARALLEL_BILLS:
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            bills = dict(zip(first, pool.map(_serve_bill, jobs, chunksize=16)))
    else:
        bills = dict(zip(first, map(_serve_bill, jobs)))
    verified: dict = {}
    return [serve_job_ok(job, res, bills, verified) for job, res in records]


def serve_job_ok(job, res, bills: dict, verified: dict) -> bool:
    """One served job: values, kind-specific answer, certificate, and
    rounds and messages against ``bills``."""
    if res is None or not res.ok:
        return False
    inst = job.instance
    if (res.rounds, res.messages) != bills[_bill_key(job)]:
        return False
    key = (id(inst), res.digest)
    if key not in verified:
        verified[key] = res.x is not None and bool(inst.verify(res.x))
    if not verified[key]:
        return False
    if job.kind == "triangles" and res.value != triangle_count(inst.a_hat):
        return False
    if job.certify_checks and res.certified is not True:
        return False
    return True

