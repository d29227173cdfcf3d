"""Every whole-file writer installs its file durably and cleans up.

Five writers replace a file as a unit: the result cache, journal
compaction, the metrics snapshot, the run manifest and the bench point.
For each, the tmp file must be fsynced before it is renamed over the
target (or a power loss can leave an empty or partial file in its
place), and a failed rename must leave the target's old bytes and no
``*.tmp.*`` file behind.
"""
import os

import pytest

from repro.bench import write_bench
from repro.exec.__main__ import _compact_journal
from repro.exec.cache import ResultCache
from repro.exec.journal import RunJournal
from repro.telemetry.manifest import RunManifest
from repro.telemetry.metrics import snapshot_path, write_snapshot_file

OLD = "old bytes\n"


def _cache(tmp_path):
    cache = ResultCache(tmp_path)
    digest = "ab" * 32
    return cache.path_for(digest), lambda: cache.put(digest, {"x": 1})


def _compaction(tmp_path):
    j = RunJournal.create(tmp_path, "fin", command="repro.test")
    j.record_start("aaa", "MD/cuda")
    j.record_done("aaa")
    j.close("complete")
    return j.path, lambda: _compact_journal(j.path, dry_run=False)


def _snapshot(tmp_path):
    path = snapshot_path(tmp_path, "run")
    return path, lambda: write_snapshot_file(tmp_path, "run", {"c": 1})


def _manifest(tmp_path):
    m = RunManifest(
        run_id="run", command="repro.test", argv=[], created_unix=0.0,
        git_sha="unknown", version="0", python="3", platform="test",
        fault_seed=None, fault_spec=None, devices={}, metrics={}, sweep={},
    )
    path = tmp_path / "manifest.json"
    return path, lambda: m.write(path)


def _bench(tmp_path):
    path = tmp_path / "BENCH_test.json"
    return path, lambda: write_bench({"schema": 1, "metrics": {}}, path)


WRITERS = {
    "ResultCache.put": _cache,
    "_compact_journal": _compaction,
    "write_snapshot_file": _snapshot,
    "RunManifest.write": _manifest,
    "write_bench": _bench,
}


@pytest.fixture(params=sorted(WRITERS))
def writer(request, tmp_path):
    path, write = WRITERS[request.param](tmp_path)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(OLD)
    return path, write


def test_tmp_file_is_fsynced_before_the_replace(writer, monkeypatch):
    path, write = writer
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        return real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write()
    replaces = [i for i, (kind, _) in enumerate(events) if kind == "replace"]
    assert len(replaces) == 1, events
    tmp_ino = events[replaces[0]][1]
    assert ("fsync", tmp_ino) in events[: replaces[0]], events
    assert path.read_text() != OLD


def test_failed_replace_keeps_old_bytes_and_no_tmp(writer, monkeypatch):
    path, write = writer
    old = path.read_bytes()

    def replace(src, dst):
        raise OSError("injected rename failure")

    monkeypatch.setattr(os, "replace", replace)
    try:
        write()
    except OSError:
        pass  # re-raising is each caller's own policy
    assert path.read_bytes() == old
    assert list(path.parent.glob("*.tmp.*")) == []
