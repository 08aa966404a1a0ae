"""Tests for the deterministic fault-injection subsystem (`repro.model.faults`).

Covers the satellite property test (a zero-probability `FaultPlan` is
bit-identical to running with no plan at all, across strict and fast
modes, for the two-phase and Strassen algorithms), injector determinism,
outcome classification, and the ack/resend recovery protocol with honest
round accounting.
"""

import numpy as np
import pytest

from repro.algorithms.dense import dense_strassen
from repro.algorithms.trivial import naive_triangles
from repro.algorithms.twophase import multiply_two_phase
from repro.model import (
    FaultPlan,
    LowBandwidthNetwork,
    NetworkError,
    ResilienceConfig,
    classify_outcome,
    run_with_faults,
)
from repro.model.faults import (
    OUTCOME_CERT_FAILURE,
    OUTCOME_CERTIFIED,
    OUTCOME_CORRECT,
    OUTCOME_DETECTED,
    OUTCOME_REPAIRED,
    OUTCOME_SILENT,
    OUTCOME_UNVERIFIED,
    FaultInjector,
    corrupt_word,
)
from repro.sparsity.families import US
from repro.supported.instance import make_hard_instance, make_instance


def hard_inst(seed=0, n=48, d=3):
    return make_hard_instance(n, d, np.random.default_rng(seed))


def us_inst(seed=0, n=16, d=2):
    return make_instance((US, US, US), n, d, np.random.default_rng(seed))


def dense_x(x):
    """Results may be scipy-sparse; compare in dense form."""
    return np.asarray(x.todense()) if hasattr(x, "todense") else np.asarray(x)


# ---------------------------------------------------------------------- #
# Satellite: zero-fault plan == no plan, bit for bit
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("strict", [False, True], ids=["fast", "strict"])
@pytest.mark.parametrize(
    "algo", [multiply_two_phase, dense_strassen], ids=["two_phase", "strassen"]
)
def test_zero_fault_plan_bit_identical_to_no_plan(algo, strict):
    """A null plan must leave the network on the untouched fast path:
    identical rounds, messages, outputs, and phase summaries."""
    inst_a = us_inst(seed=3)
    net_a = LowBandwidthNetwork(inst_a.n, strict=strict)
    res_a = algo(inst_a, net=net_a)

    inst_b = us_inst(seed=3)
    null_plan = FaultPlan()  # every rate zero, no crashes/delays/ordinals
    assert not null_plan.active
    net_b = LowBandwidthNetwork(inst_b.n, strict=strict, fault_plan=null_plan)
    res_b = algo(inst_b, net=net_b)

    assert res_a.rounds == res_b.rounds
    assert net_a.messages_sent == net_b.messages_sent
    assert np.array_equal(dense_x(res_a.x), dense_x(res_b.x))
    assert net_a.phase_summary() == net_b.phase_summary()
    assert net_a.columnar == net_b.columnar


def test_active_plan_disables_columnar_fast_path():
    plan = FaultPlan(drop_rate=0.1)
    assert plan.active
    net = LowBandwidthNetwork(8, fault_plan=plan)
    assert not net.columnar
    # the null plan does not
    assert LowBandwidthNetwork(8, fault_plan=FaultPlan()).columnar


# ---------------------------------------------------------------------- #
# Injector determinism
# ---------------------------------------------------------------------- #
def test_fault_decisions_deterministic_across_runs():
    plan = FaultPlan(seed=11, drop_rate=0.05, corrupt_rate=0.02)
    runs = [
        run_with_faults(hard_inst(seed=1), naive_triangles, plan) for _ in range(2)
    ]
    assert runs[0].outcome == runs[1].outcome
    assert runs[0].rounds == runs[1].rounds
    assert runs[0].fault_counts == runs[1].fault_counts


def test_different_seeds_differ():
    """Distinct fault seeds must not replay the same drop pattern."""
    counts = [
        run_with_faults(
            hard_inst(seed=1), naive_triangles, FaultPlan(seed=s, drop_rate=0.05)
        ).fault_counts["dropped"]
        for s in range(6)
    ]
    assert len(set(counts)) > 1


# ---------------------------------------------------------------------- #
# Classification
# ---------------------------------------------------------------------- #
def test_classify_outcome_triples():
    assert classify_outcome(True, None) == OUTCOME_CORRECT
    assert classify_outcome(None, "NetworkError: boom") == OUTCOME_DETECTED
    assert classify_outcome(False, "boom") == OUTCOME_DETECTED
    assert classify_outcome(False, None) == OUTCOME_SILENT


def test_classify_outcome_unverified_and_certified():
    """The extended taxonomy: no verification signal at all is its own
    outcome, and a certificate refines correct into certified/repaired."""
    assert classify_outcome(None, None) == OUTCOME_UNVERIFIED
    assert classify_outcome(True, None, certified=True) == OUTCOME_CERTIFIED
    assert classify_outcome(None, None, certified=True) == OUTCOME_CERTIFIED
    assert (
        classify_outcome(True, None, certified=True, repair_attempts=1)
        == OUTCOME_REPAIRED
    )
    assert classify_outcome(True, None, certified=False) == OUTCOME_CERT_FAILURE
    assert classify_outcome(None, "boom", certified=False) == OUTCOME_DETECTED
    # a certificate never hides a reference-verification failure signal
    assert classify_outcome(False, None, certified=None) == OUTCOME_SILENT


def test_unverified_outcome_surfaced_by_run_with_faults():
    out = run_with_faults(hard_inst(seed=1), naive_triangles, verify=False)
    assert out.outcome == OUTCOME_UNVERIFIED
    assert out.verified is None and out.certified is None and out.error is None


@pytest.mark.parametrize("strict", [False, True], ids=["fast", "strict"])
def test_unprotected_drops_are_detected_not_silent(strict):
    """Lost words leave holes the collection phase trips over — in both
    modes the failure must surface as an error, never a wrong product."""
    plan = FaultPlan(seed=5, drop_rate=0.05)
    out = run_with_faults(hard_inst(seed=2), naive_triangles, plan, strict=strict)
    assert out.fault_counts["dropped"] > 0
    assert out.outcome == OUTCOME_DETECTED
    assert out.error is not None


def test_strict_faulty_runs_never_silent_across_seeds():
    """The acceptance claim: under strict mode with corruption detection
    on, every faulty run classifies as correct or detected — silent
    corruption cannot happen."""
    for s in range(8):
        plan = FaultPlan(seed=s, drop_rate=0.03, corrupt_rate=0.03)
        out = run_with_faults(hard_inst(seed=2), naive_triangles, plan, strict=True)
        assert out.outcome in (OUTCOME_CORRECT, OUTCOME_DETECTED), (s, out.outcome)


def test_undetected_corruption_is_silent_in_fast_mode():
    """With the detection checksum disabled, corrupted words land as
    plausible values and only verification can expose them."""
    plan = FaultPlan(seed=1, corrupt_rate=0.3, detect_corruption=False)
    out = run_with_faults(hard_inst(seed=2), naive_triangles, plan, strict=False)
    assert out.fault_counts["corrupt_silent"] > 0
    assert out.outcome == OUTCOME_SILENT
    assert out.verified is False and out.error is None


def test_detected_corruption_is_an_erasure():
    """With detection on, a corrupted word is discarded on receipt — it
    becomes a (detectable) drop, never a wrong value."""
    plan = FaultPlan(seed=1, corrupt_rate=0.3, detect_corruption=True)
    out = run_with_faults(hard_inst(seed=2), naive_triangles, plan, strict=False)
    assert out.fault_counts["corrupt_detected"] > 0
    assert out.fault_counts["corrupt_silent"] == 0
    assert out.outcome != OUTCOME_SILENT


def test_duplication_is_idempotent_and_charged():
    baseline = run_with_faults(hard_inst(seed=2), naive_triangles)
    plan = FaultPlan(seed=3, dup_rate=0.2)
    out = run_with_faults(hard_inst(seed=2), naive_triangles, plan)
    assert out.fault_counts["duplicated"] > 0
    assert out.outcome == OUTCOME_CORRECT
    assert out.rounds >= baseline.rounds


def test_link_delay_extends_rounds():
    """Delaying *every* link stretches each phase past its makespan (a
    delay that lands inside the phase window costs nothing extra)."""
    inst = hard_inst(seed=2)
    baseline = run_with_faults(hard_inst(seed=2), naive_triangles)
    delays = {(i, j): 3 for i in range(inst.n) for j in range(inst.n) if i != j}
    out = run_with_faults(
        hard_inst(seed=2), naive_triangles, FaultPlan(link_delays=delays)
    )
    assert out.fault_counts["delayed"] > 0
    assert out.outcome == OUTCOME_CORRECT
    assert out.rounds > baseline.rounds


# ---------------------------------------------------------------------- #
# resilience=: ack/resend recovery with honest accounting
# ---------------------------------------------------------------------- #
def test_resilient_exchange_recovers_random_drops():
    plan = FaultPlan(seed=5, drop_rate=0.05)
    out = run_with_faults(
        hard_inst(seed=2), naive_triangles, plan, resilience=True
    )
    assert out.fault_counts["dropped"] > 0
    assert out.fault_counts["resent_messages"] > 0
    assert out.outcome == OUTCOME_CORRECT, out.error


def test_single_targeted_drop_fully_recovered_with_extra_rounds():
    baseline = run_with_faults(hard_inst(seed=2), naive_triangles, resilience=True)
    assert baseline.outcome == OUTCOME_CORRECT
    plan = FaultPlan(drop_message_ordinals=(7,))
    out = run_with_faults(
        hard_inst(seed=2), naive_triangles, plan, resilience=True
    )
    assert out.outcome == OUTCOME_CORRECT
    assert out.fault_counts["dropped"] == 1
    assert out.fault_counts["resent_messages"] >= 1
    assert out.rounds > baseline.rounds  # the retry consumed real rounds


def test_resilient_rounds_accounted_in_phase_summary():
    """Every round the protocol consumes (delivery, acks, retries,
    backoff) must be visible in the phase summary — no free recovery."""
    plan = FaultPlan(seed=5, drop_rate=0.05)
    inst = hard_inst(seed=2)
    net = LowBandwidthNetwork(inst.n, fault_plan=plan, resilience=True)
    naive_triangles(inst, net=net)
    summary = net.phase_summary()
    assert sum(rounds for rounds, _msgs in summary.values()) == net.rounds
    assert net.rounds > 0


def test_crash_stop_exhausts_retries_and_is_detected():
    """No oracle: the protocol cannot know computer 1 is dead, so it
    retries its budget and reports the messages unrecoverable."""
    plan = FaultPlan(crashes={1: 0})
    out = run_with_faults(
        hard_inst(seed=2), naive_triangles, plan, resilience=True
    )
    assert out.outcome == OUTCOME_DETECTED
    assert out.fault_counts["unrecoverable"] > 0
    assert "unrecoverable" in out.error


def test_crash_stop_without_resilience_detected():
    plan = FaultPlan(crashes={0: 4})
    out = run_with_faults(hard_inst(seed=2), naive_triangles, plan, strict=False)
    assert out.fault_counts["crash_lost"] > 0
    assert out.outcome == OUTCOME_DETECTED


def test_resilient_exchange_requires_per_message_keys():
    net = LowBandwidthNetwork(4, resilience=True)
    net.deal(0, "k", 1.0)
    with pytest.raises(NetworkError, match=r"\[p @ round \d+\].*keys"):
        net.exchange_arrays(np.array([0]), np.array([1]), None, label="p")


def test_unrecoverable_record_policy_completes():
    cfg = ResilienceConfig(max_retries=1, on_unrecoverable="record")
    plan = FaultPlan(crashes={1: 0})
    out = run_with_faults(
        hard_inst(seed=2), naive_triangles, plan, resilience=cfg
    )
    # delivery "succeeded" with holes; collection then fails loudly or the
    # product is wrong — either way the run is classified, never lost
    assert out.outcome in (OUTCOME_DETECTED, OUTCOME_SILENT)
    assert out.fault_counts["unrecoverable"] > 0


# ---------------------------------------------------------------------- #
# Validation
# ---------------------------------------------------------------------- #
def test_fault_plan_validation():
    with pytest.raises(ValueError, match="drop_rate"):
        FaultPlan(drop_rate=1.5).validate()
    with pytest.raises(ValueError, match="crashes"):
        FaultPlan(crashes={-1: 3}).validate()
    with pytest.raises(ValueError, match="link_delays"):
        FaultPlan(link_delays={(0, 1): -2}).validate()
    FaultPlan(drop_rate=0.5, crashes={0: 0}).validate()


def test_resilience_config_validation():
    with pytest.raises(ValueError, match="max_retries"):
        ResilienceConfig(max_retries=-1).validate()
    with pytest.raises(ValueError, match="backoff"):
        ResilienceConfig(backoff_base=4, backoff_cap=2).validate()
    with pytest.raises(ValueError, match="on_unrecoverable"):
        ResilienceConfig(on_unrecoverable="explode").validate()


def test_network_rejects_bad_plan_types():
    with pytest.raises(ValueError):
        LowBandwidthNetwork(4, fault_plan="drop everything")
    with pytest.raises(ValueError):
        LowBandwidthNetwork(4, resilience="yes please")


# ---------------------------------------------------------------------- #
# corrupt_word totality: corruption is never the identity
# ---------------------------------------------------------------------- #
def test_corrupt_word_never_maps_a_value_to_itself():
    """Satellite property: for every representable word class and every
    hash, the corrupted word differs from the original — otherwise a
    "corruption" event would silently be a no-op and the injector's
    counters would lie."""
    values = [
        0, 1, -17, 2**40,
        0.0, 1.5, -3.25, 1e300,
        float("inf"), float("-inf"), float("nan"),
        True, False,
        np.float64(2.5), np.int64(9), np.bool_(True),
        np.array(3.0), np.array(np.inf), np.array(True),
        "header", ("tuple", 1), None,
    ]
    for value in values:
        for h in range(16):
            corrupted = corrupt_word(value, h)
            if isinstance(value, float) and value != value:  # NaN
                assert corrupted == corrupted, "NaN must corrupt to a real value"
            elif isinstance(value, np.ndarray):
                assert not np.array_equal(
                    corrupted, value, equal_nan=False
                ) or np.isnan(value).any(), (value, h, corrupted)
            else:
                assert corrupted != value or corrupted is not value and not (
                    corrupted == value
                ), (value, h, corrupted)
                assert not (corrupted == value), (value, h, corrupted)


# ---------------------------------------------------------------------- #
# Self-messages never cross the wire
# ---------------------------------------------------------------------- #
def test_self_messages_exempt_from_wire_faults():
    """A computer "sending" to itself is a local copy: drop, corruption,
    duplication, and link delay must never touch it (crash-stop still
    does — a dead computer loses everything)."""
    plan = FaultPlan(
        seed=0, drop_rate=1.0, corrupt_rate=1.0, dup_rate=1.0,
        link_delays={(2, 2): 5},
    )
    inj = FaultInjector(plan, n=4)
    src = np.array([0, 1, 2, 3], dtype=np.int64)
    dst = np.array([0, 2, 2, 0], dtype=np.int64)  # 0->0 and 2->2 are local
    rounds_arr = np.zeros(4, dtype=np.int64)
    pf = inj.decide_phase(src, dst, rounds_arr, base_round=0, label="t")
    local = src == dst
    assert pf.deliver[local].all(), "self-messages must always arrive"
    assert not pf.corrupt[local].any(), "self-messages must arrive intact"
    # the wired messages, by contrast, are all dropped at rate 1.0
    assert not pf.deliver[~local].any()


def test_targeted_drop_ordinals_count_only_wired_messages():
    """`drop_message_ordinals` indexes deliveries that can actually fail;
    self-messages do not consume ordinals."""
    plan = FaultPlan(seed=0, drop_message_ordinals=(0, 2))
    inj = FaultInjector(plan, n=4)
    src = np.array([0, 1, 2, 3], dtype=np.int64)
    dst = np.array([0, 2, 2, 0], dtype=np.int64)  # wired: 1->2, 3->0
    rounds_arr = np.zeros(4, dtype=np.int64)
    pf = inj.decide_phase(src, dst, rounds_arr, base_round=0, label="t")
    # ordinal 0 is the first *wired* message (index 1); ordinal 2 is in a
    # later phase
    assert not pf.deliver[1]
    assert pf.deliver[0] and pf.deliver[2] and pf.deliver[3]
    pf2 = inj.decide_phase(src, dst, rounds_arr, base_round=1, label="t")
    # the next phase's wired messages hold ordinals 2 and 3: index 1 drops
    assert not pf2.deliver[1]
    assert pf2.deliver[3]


# ---------------------------------------------------------------------- #
# backoff_schedule: the closed form shared by the model and the wire
# ---------------------------------------------------------------------- #
def test_backoff_schedule_closed_form():
    from repro.model.faults import backoff_schedule

    assert backoff_schedule(base=1, cap=8, retries=0) == []
    assert backoff_schedule(base=1, cap=8, retries=5) == [1, 2, 4, 8, 8]
    assert backoff_schedule(base=3, cap=7, retries=4) == [3, 6, 7, 7]
    # cap == base: every wait sits on the cap edge
    assert backoff_schedule(base=2, cap=2, retries=4) == [2, 2, 2, 2]
    # float inputs (the wire's milliseconds) stay floats
    assert backoff_schedule(base=50.0, cap=400.0, retries=4) == [
        50.0, 100.0, 200.0, 400.0,
    ]
    with pytest.raises(ValueError, match="retries"):
        backoff_schedule(base=1, cap=8, retries=-1)
    with pytest.raises(ValueError, match="base"):
        backoff_schedule(base=4, cap=2, retries=1)


def _crashed_receiver_net(cfg):
    """A 4-computer network where computer 1 is dead from round 0."""
    net = LowBandwidthNetwork(
        4, fault_plan=FaultPlan(crashes={1: 0}), resilience=cfg
    )
    net.deal(0, "k", 1.0)
    return net


def test_retry_exhaustion_max_retries_zero_terminates_immediately():
    """`max_retries=0` must fail after exactly one delivery attempt —
    no retries, no backoff, no spin."""
    cfg = ResilienceConfig(max_retries=0)
    net = _crashed_receiver_net(cfg)
    with pytest.raises(NetworkError, match="unrecoverable"):
        net.exchange_arrays(
            np.array([0]), np.array([1]), ["k"], ["k"], label="p"
        )
    counts = net._injector.counts
    assert counts["unrecoverable"] == 1
    assert counts["backoff_rounds"] == 0
    assert counts["retry_phases"] == 0


def test_retry_exhaustion_billed_backoff_matches_closed_form_sum():
    """Every idle round the protocol burns must equal the closed-form
    schedule sum(min(base * 2**(t-1), cap) for t in 1..retries)."""
    from repro.model.faults import backoff_schedule

    for base, cap, retries in [(1, 4, 3), (1, 8, 5), (2, 2, 4), (3, 7, 6)]:
        cfg = ResilienceConfig(
            max_retries=retries,
            backoff_base=base,
            backoff_cap=cap,
            on_unrecoverable="record",
        )
        net = _crashed_receiver_net(cfg)
        net.exchange_arrays(
            np.array([0]), np.array([1]), ["k"], ["k"], label="p"
        )
        counts = net._injector.counts
        expected = sum(backoff_schedule(base=base, cap=cap, retries=retries))
        assert counts["backoff_rounds"] == expected, (base, cap, retries)
        assert counts["retry_phases"] == retries
        assert counts["unrecoverable"] == 1
        # the backoff rounds are billed in the phase summary, not free
        summary = net.phase_summary()
        assert sum(r for r, _m in summary.values()) == net.rounds


def test_retry_exhaustion_on_cap_edge_terminates_with_unrecoverable():
    """A capped schedule (every wait == cap) must still terminate: the
    budget is counted in retries, never in elapsed backoff."""
    cfg = ResilienceConfig(
        max_retries=7, backoff_base=8, backoff_cap=8, on_unrecoverable="raise"
    )
    net = _crashed_receiver_net(cfg)
    with pytest.raises(NetworkError, match="unrecoverable"):
        net.exchange_arrays(
            np.array([0]), np.array([1]), ["k"], ["k"], label="p"
        )
    assert net._injector.counts["unrecoverable"] == 1
    assert net._injector.counts["backoff_rounds"] == 7 * 8
