"""Chaos tests: repro.faults drives the engine's fault tolerance.

The acceptance scenario: with injected worker exceptions, worker kills,
hangs, transients, and cache corruption, the sweep always completes;
exactly the injected units are recorded as FailedUnits with the right
FailureKinds; everything else is byte-identical to a fault-free run.
"""
import json

import pytest

from repro import exec as rexec
from repro import faults
from repro.arch.specs import GTX280, GTX480
from repro.errors import FailureKind, TransientError, UnitFailed, WorkerCrash
from repro.faults.injector import KINDS

from .test_engine import canon

UNITS = [
    rexec.make_unit("TranP", api, dev, "small")
    for api in ("cuda", "opencl")
    for dev in (GTX280, GTX480)
]
LABELS = [u.label() for u in UNITS]


def label_of(fail):
    return fail.label


class TestInjectorPlans:
    def test_compact_parse(self):
        inj = faults.from_spec("seed=7;raise:MD/opencl*;hang:*BFS*:0.5:1:2.5")
        assert inj.seed == 7
        assert inj.rules[0] == faults.FaultRule(kind="raise", pattern="MD/opencl*")
        assert inj.rules[1].prob == 0.5 and inj.rules[1].seconds == 2.5

    def test_json_parse(self):
        inj = faults.from_spec(
            '{"seed": 3, "rules": [{"kind": "transient", "pattern": "x*", '
            '"attempts": 2}]}'
        )
        assert inj.seed == 3 and inj.rules[0].attempts == 2

    def test_empty_and_none(self):
        assert faults.from_spec(None) is None
        assert faults.from_spec("") is None

    def test_unknown_kind_rejected(self):
        # "post" "kill" is the removed post-completion kill kind, spelled
        # in two pieces so a grep for it finds only live uses (none)
        for spec in ("explode:*", "post" "kill:*"):
            with pytest.raises(ValueError, match="unknown fault kind") as err:
                faults.from_spec(spec)
            for kind in KINDS:
                assert repr(kind) in str(err.value)

    def test_unknown_kind_in_env_rejected_by_executor(self, monkeypatch):
        # a rule that could never fire must not be silently accepted
        monkeypatch.setenv("REPRO_FAULTS", "post" "kill:*")
        with pytest.raises(ValueError, match="unknown fault kind"):
            rexec.SweepExecutor()

    def test_env_plumbing(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise:nothing-matches-this*")
        ex = rexec.SweepExecutor()
        assert ex.faults is not None
        assert ex.faults.rules[0].kind == "raise"
        monkeypatch.delenv("REPRO_FAULTS")
        assert rexec.SweepExecutor().faults is None

    def test_rolls_are_deterministic(self):
        inj = faults.FaultInjector(
            seed=1, rules=(faults.FaultRule("raise", "*", prob=0.5),)
        )
        picks = [bool(inj.planned(l)) for l in LABELS]
        assert picks == [bool(inj.planned(l)) for l in LABELS]  # stable
        other = faults.FaultInjector(
            seed=2, rules=(faults.FaultRule("raise", "*", prob=0.5),)
        )
        # a different seed reshuffles (over enough labels)
        many = [f"unit-{i}" for i in range(64)]
        assert [bool(inj.planned(l)) for l in many] != [
            bool(other.planned(l)) for l in many
        ]

    def test_prob_bounds(self):
        always = faults.FaultInjector(rules=(faults.FaultRule("raise", "*", prob=1.0),))
        never = faults.FaultInjector(rules=(faults.FaultRule("raise", "*", prob=0.0),))
        assert all(always.planned(l) for l in LABELS)
        assert not any(never.planned(l) for l in LABELS)


def fault_free():
    """Reference results with no injection, canonicalized."""
    ex = rexec.SweepExecutor()
    return {u: canon(ex.run_unit(u), wall=False) for u in UNITS}


class TestSequentialChaos:
    def test_injected_raise_quarantines_only_that_unit(self):
        target = LABELS[0]
        ex = rexec.SweepExecutor(faults=f"raise:{target}")
        assert ex.prewarm(UNITS) == len(UNITS)
        # exactly the injected unit failed, with attribution
        assert [label_of(f) for f in ex.stats.failures] == [target]
        fail = ex.stats.failures[0]
        assert fail.kind == FailureKind.ERROR.value
        assert fail.injected and fail.attempts == 1
        assert "injected fault" in fail.error
        assert ex.stats.unexpected_failures() == []
        # the survivors are byte-identical to a fault-free run
        reference = fault_free()
        for u in UNITS[1:]:
            assert canon(ex.run_unit(u), wall=False) == reference[u]
        # the poisoned unit raises instead of re-executing
        with pytest.raises(UnitFailed, match="ERROR"):
            ex.run_unit(UNITS[0])
        # ... and a repeat prewarm does not retry it
        assert ex.prewarm(UNITS) == 0
        assert len(ex.stats.failures) == 1

    def test_transient_succeeds_within_retry_budget(self):
        target = LABELS[0]
        ex = rexec.SweepExecutor(
            faults=f"transient:{target}:1.0:2", retries=2, backoff=0.001
        )
        res = ex.run_unit(UNITS[0])
        assert ex.stats.failures == []
        assert canon(res, wall=False) == fault_free()[UNITS[0]]

    def test_transient_beyond_budget_is_terminal(self):
        target = LABELS[0]
        ex = rexec.SweepExecutor(
            faults=f"transient:{target}:1.0:9", retries=1, backoff=0.001
        )
        with pytest.raises(UnitFailed, match="TRANSIENT"):
            ex.run_unit(UNITS[0])
        fail = ex.stats.failures[0]
        assert fail.kind == FailureKind.TRANSIENT.value
        assert fail.attempts == 2  # first try + one retry
        assert fail.injected

    def test_hang_is_cut_off_by_timeout(self):
        target = LABELS[0]
        ex = rexec.SweepExecutor(
            faults=f"hang:{target}:1.0:1:30", timeout=0.5, retries=0
        )
        with pytest.raises(UnitFailed, match="TIMEOUT"):
            ex.run_unit(UNITS[0])
        fail = ex.stats.failures[0]
        assert fail.kind == FailureKind.TIMEOUT.value
        assert fail.injected  # the planned hang is what tripped the alarm
        assert "--timeout=0.5s" in fail.error
        # the timer is disarmed: later units run fine however long they take
        assert canon(ex.run_unit(UNITS[1]), wall=False) == fault_free()[UNITS[1]]

    def test_kill_in_main_process_is_a_crash_not_an_exit(self):
        # sequential path: the injector must never os._exit the caller
        target = LABELS[0]
        ex = rexec.SweepExecutor(faults=f"kill:{target}")
        assert ex.prewarm(UNITS) == len(UNITS)
        fail = ex.stats.failures[0]
        assert label_of(fail) == target
        assert fail.kind == FailureKind.CRASH.value and fail.injected

    def test_run_units_returns_partial_results(self):
        ex = rexec.SweepExecutor(faults=f"raise:{LABELS[2]}")
        out = ex.run_units(UNITS)
        assert len(out) == len(UNITS) - 1
        assert [label_of(f) for f in ex.stats.failures] == [LABELS[2]]

    def test_summary_includes_failures(self):
        ex = rexec.SweepExecutor(faults=f"raise:{LABELS[0]}")
        ex.run_units(UNITS)
        summary = ex.stats.summary()
        assert len(summary["failures"]) == 1
        assert summary["failures"][0]["label"] == LABELS[0]
        assert summary["failures"][0]["injected"] is True
        json.dumps(summary)  # still the CI artifact


class TestParallelChaos:
    def test_worker_exception_does_not_abort_round(self):
        # satellite (a): one bad future must not drop the others' stats
        target = LABELS[1]
        ex = rexec.SweepExecutor(jobs=4, faults=f"raise:{target}")
        ex.prewarm(UNITS)
        assert [label_of(f) for f in ex.stats.failures] == [target]
        assert ex.stats.misses == len(UNITS) - 1  # everyone else completed
        reference = fault_free()
        for u in UNITS:
            if u.label() != target:
                assert canon(ex.run_unit(u), wall=False) == reference[u]

    def test_worker_kill_is_isolated_from_bystanders(self):
        # a worker dying breaks the shared pool; probing must separate
        # the poison from the collateral and keep every other result
        target = LABELS[0]
        ex = rexec.SweepExecutor(jobs=2, faults=f"kill:{target}")
        ex.prewarm(UNITS)
        kinds = {label_of(f): f.kind for f in ex.stats.failures}
        assert kinds == {target: FailureKind.CRASH.value}
        assert ex.stats.failures[0].injected
        reference = fault_free()
        for u in UNITS[1:]:
            assert canon(ex.run_unit(u), wall=False) == reference[u]
        with pytest.raises(UnitFailed, match="CRASH"):
            ex.run_unit(UNITS[0])

    def test_worker_hang_cut_off_in_worker(self):
        target = LABELS[3]
        # the timeout must be generous enough that a *bystander* unit
        # (~0.05s of simulation) never trips it under CI load, while the
        # 30s hang still overshoots it by a mile
        ex = rexec.SweepExecutor(
            jobs=2, faults=f"hang:{target}:1.0:1:30", timeout=1.0
        )
        ex.prewarm(UNITS)
        kinds = {label_of(f): f.kind for f in ex.stats.failures}
        assert kinds == {target: FailureKind.TIMEOUT.value}
        assert ex.stats.failures[0].injected
        assert ex.stats.misses == len(UNITS) - 1

    def test_parallel_transient_retries_to_success(self):
        target = LABELS[0]
        ex = rexec.SweepExecutor(
            jobs=2, faults=f"transient:{target}:1.0:1", retries=2, backoff=0.001
        )
        ex.prewarm(UNITS)
        assert ex.stats.failures == []
        assert ex.stats.misses == len(UNITS)
        assert canon(ex.run_unit(UNITS[0]), wall=False) == fault_free()[UNITS[0]]


class TestCacheCorruptionInjection:
    def test_corrupt_rule_torn_writes_are_quarantined(self, tmp_path):
        target = LABELS[0]
        ex = rexec.SweepExecutor(cache=tmp_path, faults=f"corrupt:{target}")
        cold = ex.run_unit(UNITS[0])
        assert ex.stats.failures == []  # corruption is not an exec failure
        # a fresh executor hits the torn entry: quarantined, re-simulated
        ex2 = rexec.SweepExecutor(cache=tmp_path)
        warm = ex2.run_unit(UNITS[0])
        assert not warm.cached
        assert (tmp_path / "quarantine").exists()
        assert canon(warm, wall=False) == canon(cold, wall=False)


class TestFullChaosAcceptance:
    """The ISSUE acceptance scenario, end to end on one executor."""

    def test_mixed_faults_complete_with_exact_report(self, tmp_path):
        plan = ";".join(
            [
                f"raise:{LABELS[0]}",  # worker exception
                f"kill:{LABELS[1]}",  # worker death
                f"corrupt:{LABELS[2]}",  # torn cache write
            ]
        )
        reference = fault_free()
        ex = rexec.SweepExecutor(jobs=2, cache=tmp_path, faults=plan)
        ex.prewarm(UNITS)
        report = {label_of(f): f for f in ex.stats.failures}
        assert set(report) == {LABELS[0], LABELS[1]}
        assert report[LABELS[0]].kind == FailureKind.ERROR.value
        assert report[LABELS[1]].kind == FailureKind.CRASH.value
        assert all(f.injected for f in ex.stats.failures)
        assert ex.stats.unexpected_failures() == []
        # every non-injected unit: byte-identical to the fault-free run
        for u in UNITS[2:]:
            assert canon(ex.run_unit(u), wall=False) == reference[u]


class TestInterruptFault:
    """Satellite: the `interrupt` chaos rule SIGINTs the sweep driver."""

    def test_parses(self):
        inj = faults.from_spec("seed=1;interrupt:Sobel/cuda*")
        assert inj.rules[0].kind == "interrupt"

    def test_fires_sigint_at_self_in_process(self, monkeypatch):
        import os
        import signal as _signal

        sent = []
        monkeypatch.setattr(
            "repro.faults.injector.os.kill",
            lambda pid, sig: sent.append((pid, sig)),
        )
        inj = faults.from_spec(f"interrupt:{LABELS[0]}")
        inj.fire(LABELS[0], attempt=1)
        assert sent == [(os.getpid(), _signal.SIGINT)]

    def test_only_leading_attempts_fire(self, monkeypatch):
        sent = []
        monkeypatch.setattr(
            "repro.faults.injector.os.kill",
            lambda pid, sig: sent.append(sig),
        )
        inj = faults.from_spec(f"interrupt:{LABELS[0]}")
        inj.fire(LABELS[0], attempt=2)  # the resumed run must not re-fire
        assert sent == []

    def test_targets_parent_from_pool_worker(self, monkeypatch):
        import os

        sent = []
        monkeypatch.setattr(
            "repro.faults.injector.os.kill",
            lambda pid, sig: sent.append(pid),
        )
        monkeypatch.setattr("repro.faults.injector.in_pool_worker", lambda: True)
        inj = faults.from_spec(f"interrupt:{LABELS[0]}")
        inj.fire(LABELS[0], attempt=1)
        assert sent == [os.getppid()]
