"""Run manifests: enough provenance to diff any two runs.

A :class:`RunManifest` is written at the end of every runner /
benchsuite / bench invocation.  It pins *what ran* (command, args,
package version, git SHA, python/platform), *on what* (every
DeviceSpec, calibration constants included), *under what plan* (fault
seed/spec), and *what happened* (metrics snapshot, sweep summary,
failure report) — the same discipline the paper needs for its own
cross-device claims: a measurement you cannot reproduce is a rumor.

``RunManifest.diff`` answers "why do these two runs disagree?" by
naming exactly the keys that changed.
"""
from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from .._version import __version__
from ..durable import atomic_write

__all__ = ["RunManifest", "git_sha", "default_manifest_path"]

SCHEMA_VERSION = 1


def git_sha(cwd: Optional[str] = None) -> str:
    """Current commit hash, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _device_specs() -> dict:
    from ..arch.specs import ALL_DEVICES

    return {
        name: dataclasses.asdict(spec) for name, spec in sorted(ALL_DEVICES.items())
    }


@dataclasses.dataclass
class RunManifest:
    """Everything needed to attribute a difference between two runs."""

    run_id: str
    command: str  # e.g. "repro.experiments"
    argv: list
    created_unix: float
    git_sha: str
    version: str
    python: str
    platform: str
    #: fault-injection provenance: seed + the raw plan spec (or None)
    fault_seed: Optional[int]
    fault_spec: Optional[str]
    #: every DeviceSpec, calibration constants included
    devices: dict
    #: MetricsRegistry.snapshot() at the end of the run
    metrics: dict
    #: SweepStats.summary() — per-unit serve records + failure report
    sweep: dict
    #: crash-safety record: {"state", "exit_code", "journal", "resumed",
    #: "interrupted", ...} from the lifecycle layer (None on old runs)
    lifecycle: Optional[dict] = None
    schema: int = SCHEMA_VERSION

    # -- construction -----------------------------------------------------
    @classmethod
    def collect(
        cls,
        command: str,
        argv=None,
        run_id: Optional[str] = None,
        faults=None,
        metrics: Optional[dict] = None,
        sweep: Optional[dict] = None,
        lifecycle: Optional[dict] = None,
    ) -> "RunManifest":
        """Snapshot the current process into a manifest."""
        from . import metrics as metrics_mod

        if faults is None:
            fault_seed, fault_spec = None, os.environ.get("REPRO_FAULTS") or None
        else:
            fault_seed = faults.seed
            fault_spec = json.dumps(
                {
                    "seed": faults.seed,
                    "rules": [dataclasses.asdict(r) for r in faults.rules],
                },
                sort_keys=True,
            )
        if fault_spec is not None and fault_seed is None:
            try:
                from ..faults import from_spec

                plan = from_spec(fault_spec)
                fault_seed = plan.seed if plan is not None else None
            except Exception:
                fault_seed = None
        return cls(
            run_id=run_id or f"{command}-{os.getpid()}-{int(time.time())}",
            command=command,
            argv=[str(a) for a in (argv if argv is not None else sys.argv[1:])],
            created_unix=time.time(),
            git_sha=git_sha(),
            version=__version__,
            python=sys.version.split()[0],
            platform=platform.platform(),
            fault_seed=fault_seed,
            fault_spec=fault_spec,
            devices=_device_specs(),
            metrics=metrics if metrics is not None else metrics_mod.registry().snapshot(),
            sweep=sweep or {},
            lifecycle=lifecycle,
        )

    # -- (de)serialization -------------------------------------------------
    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "RunManifest":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})

    def write(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        return atomic_write(
            path, json.dumps(self.to_json(), indent=1, sort_keys=True)
        )

    @classmethod
    def load(cls, path) -> "RunManifest":
        with open(path) as f:
            return cls.from_json(json.load(f))

    # -- comparison --------------------------------------------------------
    def diff(self, other: "RunManifest") -> dict:
        """Top-level keys on which two manifests disagree.

        Returns ``{key: (self_value, other_value)}``; volatile identity
        fields (run id, timestamps, argv) are excluded so an empty diff
        means "same code, same devices, same plan, same outcome".
        """
        volatile = {
            "run_id", "created_unix", "argv", "metrics", "sweep", "lifecycle",
        }
        out = {}
        a, b = self.to_json(), other.to_json()
        for k in sorted(set(a) | set(b)):
            if k in volatile:
                continue
            if a.get(k) != b.get(k):
                out[k] = (a.get(k), b.get(k))
        return out


def default_manifest_path(cache_dir, run_id: str) -> Path:
    """Where a CLI run's manifest lands by default: ``<cache>/manifests/``."""
    return Path(cache_dir) / "manifests" / f"{run_id}.json"
