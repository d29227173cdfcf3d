"""Crash/resume integration: the PR's acceptance scenario, end to end.

Three real CLI processes:

1. a cold reference sweep at ``--jobs 4`` writing the canonical results
   JSON;
2. the same sweep in a fresh cache with an injected ``interrupt`` fault
   (the chaos harness SIGINTs the parent mid-sweep) — it must drain,
   exit 75, journal ``interrupted``, and write **no** results document.
   The plan's last unit is pinned with a ``hang`` fault far longer than
   the drain's grace period, so that run leaves work behind by
   construction, whatever the scheduling;
3. a ``--resume`` rerun with the fault cleared — it must exit 0,
   re-simulate only what the interrupted run did not finish, and write
   results JSON **byte-identical** to the uninterrupted reference.
"""
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.exec import journal as jmod

SRC = Path(__file__).resolve().parents[2] / "src"

BENCHES = ["BFS", "Sobel", "TranP", "Reduce", "MD", "SPMV"]
ARGS = [
    *BENCHES,
    "--device", "GTX480", "--api", "both", "--size", "small",
    "--jobs", "4", "--quiet",
]


def run_cli(args, cache, faults=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_CACHE_DIR", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    return subprocess.run(
        [sys.executable, "-m", "repro.benchsuite", *args,
         "--cache-dir", str(cache)],
        capture_output=True, text=True, env=env, timeout=540,
    )


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """Run the reference / interrupted / resumed trio once for the module."""
    ref_cache = tmp_path_factory.mktemp("cache-ref")
    cache = tmp_path_factory.mktemp("cache-resume")
    ref_json = ref_cache / "results.json"
    out_json = cache / "results.json"

    reference = run_cli(ARGS + ["--results-json", str(ref_json)], ref_cache)
    # SPMV/opencl is the plan's last unit: it starts after the SIGINT
    # (or never), and hangs past the grace period
    interrupted = run_cli(
        ARGS + ["--results-json", str(out_json), "--grace", "10"], cache,
        faults="interrupt:Sobel/cuda*;hang:SPMV/opencl*:1:1:120",
    )
    # checked here because the resumed run (rightly) writes this file
    partial_results_written = out_json.exists()
    resumed = run_cli(
        ARGS + ["--results-json", str(out_json), "--resume"], cache
    )
    journals = {}
    for p in jmod.journal_dir(cache).glob("*.jsonl"):
        journals[p.stem] = jmod.load(p)
    return SimpleNamespace(
        reference=reference, interrupted=interrupted, resumed=resumed,
        ref_json=ref_json, out_json=out_json, cache=cache,
        journals=journals, partial_results_written=partial_results_written,
    )


def _interrupted_replay(s):
    """The interrupted run's journal, identified by its resume hint."""
    # stderr carries "resume with: --resume <run-id>"
    run_id = s.interrupted.stderr.split("--resume")[-1].split()[0]
    return s.journals[run_id]


def _resumed_replay(s):
    first = _interrupted_replay(s)
    (rep,) = [
        r for r in s.journals.values() if r.resumed_from == first.run_id
    ]
    return rep


def test_reference_run_clean(scenario):
    s = scenario
    assert s.reference.returncode == 0, s.reference.stderr
    assert s.ref_json.exists()


def test_interrupted_run_exits_75_and_writes_no_results(scenario):
    s = scenario
    assert s.interrupted.returncode == 75, s.interrupted.stderr
    assert "resume with: --resume" in s.interrupted.stderr
    # a partial document must never masquerade as the sweep's results
    assert not s.partial_results_written


def test_interrupted_journal_state(scenario):
    rep = _interrupted_replay(scenario)
    assert rep.state == "interrupted" and rep.resumable
    assert rep.torn_lines == 0
    assert rep.completed, "the grace period should finish in-flight units"
    # the drain left real work behind for --resume: at least the hung
    # unit; others are journaled in-flight (submitted, then cancelled)
    # or never admitted at all, depending on where the SIGINT lands —
    # all show up as completed < total
    assert len(rep.completed) < 2 * len(BENCHES), (
        "the interrupted run finished everything; nothing to resume"
    )


def test_resumed_run_exits_clean(scenario):
    s = scenario
    assert s.resumed.returncode == 0, s.resumed.stderr
    rep = _resumed_replay(s)
    assert rep.state == "complete" and not rep.resumable


def test_resumed_results_byte_identical_to_cold_run(scenario):
    s = scenario
    assert s.out_json.read_bytes() == s.ref_json.read_bytes()


def test_completed_units_not_resimulated(scenario):
    s = scenario
    first = _interrupted_replay(s)
    second = _resumed_replay(s)
    # every digest the resumed run started had NOT completed before
    started_again = (
        second.completed | second.in_flight | set(second.failed)
    )
    assert not (started_again & first.completed), (
        "resume re-simulated units the interrupted run already finished"
    )
    # and the rerun picked up everything that was left hanging
    assert first.in_flight <= started_again


def test_grace_expiry_reaps_a_hung_worker(tmp_path):
    # the unit that sends the SIGINT then hangs, so a worker is stuck in
    # flight when the drain starts; the grace period must bound the run
    t0 = time.monotonic()
    r = run_cli(
        ["TranP", "--device", "GTX480", "--api", "both", "--size", "small",
         "--jobs", "2", "--quiet", "--grace", "1"],
        tmp_path, faults="interrupt:TranP/cuda*;hang:TranP/cuda*:1:1:300",
    )
    assert r.returncode == 75, r.stderr
    assert time.monotonic() - t0 < 120


def test_results_json_is_valid_canonical_doc(scenario):
    s = scenario
    doc = json.loads(s.ref_json.read_text())
    assert doc["results"], "reference run produced no rows"
    for row in doc["results"]:
        assert row["seconds"] == 0.0  # wall clocks are canonicalized away
