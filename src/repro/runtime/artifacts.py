"""Run artifacts: one manifest per campaign execution.

A campaign run writes a directory ``<root>/<name>-<stamp>/`` holding

``manifest.json``
    The full provenance record: the campaign spec, the code version
    (``git describe`` when available), backend/worker configuration,
    per-task timings and cache provenance, and cache statistics.
``results.json``
    The curve data (``phi`` grids, ``Y`` values, optima) in plain JSON
    for downstream tooling.

Two runs of the same spec are diffable file-to-file; a manifest plus the
repo at the recorded code version is enough to reproduce every number.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import repro
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.executor import TaskOutcome
from repro.runtime.spec import CampaignSpec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.analysis.sweep import SweepResult
    from repro.gsu.templates import TemplateCacheStats

#: Manifest format version (independent of the cache-key schema).
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class RunArtifacts:
    """Locations of one campaign run's artifacts."""

    run_dir: Path
    manifest_path: Path
    results_path: Path


def code_version() -> str:
    """A git-describable code version, or the package version.

    Uses ``git describe --always --dirty --tags`` from the source tree;
    installed (non-git) deployments fall back to
    ``repro-<package version>``.
    """
    source_dir = Path(__file__).resolve().parent
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=source_dir,
            capture_output=True,
            text=True,
            timeout=10.0,
            check=True,
        ).stdout.strip()
        if described:
            return described
    except (OSError, subprocess.SubprocessError):
        pass
    return f"repro-{repro.__version__}"


def _unique_run_dir(root: Path, name: str) -> Path:
    """``<root>/<name>-<UTC stamp>[-n]`` — never reuses a directory."""
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    candidate = root / f"{name}-{stamp}"
    suffix = 1
    while candidate.exists():
        candidate = root / f"{name}-{stamp}-{suffix}"
        suffix += 1
    return candidate


def write_run_artifacts(
    root: Path | str,
    spec: CampaignSpec,
    outcomes: Sequence[TaskOutcome],
    sweeps: Sequence["SweepResult"],
    backend: str,
    jobs: int,
    wall_seconds: float,
    cache: ResultCache | None = None,
    run_stats: "CacheStats | None" = None,
    template_stats: "TemplateCacheStats | None" = None,
) -> RunArtifacts:
    """Write the manifest and results files for one campaign run.

    ``run_stats`` holds this run's cache counters; when omitted, the
    cache instance's lifetime counters are recorded instead.
    ``template_stats`` records this run's SAN template-cache traffic
    (compiles / restamps / fallbacks) under ``templates`` so
    template-vs-exact solver routing is observable per run, mirroring
    the serve layer's ``/metrics``.
    """
    run_dir = _unique_run_dir(Path(root), spec.name)
    run_dir.mkdir(parents=True, exist_ok=False)

    solver_seconds = sum(outcome.seconds for outcome in outcomes)
    cache_entry = {
        "enabled": cache is not None,
        "dir": (
            str(cache.root)
            if cache is not None and cache.root is not None
            else None
        ),
        "schema_version": cache.schema_version if cache is not None else None,
        **((run_stats or cache.stats).to_dict() if cache is not None else {}),
    }
    templates_entry = (
        template_stats.to_dict() if template_stats is not None else None
    )
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "campaign": spec.to_dict(),
        "code_version": code_version(),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "backend": backend,
        "jobs": jobs,
        "wall_seconds": wall_seconds,
        "solver_seconds": solver_seconds,
        "cache": cache_entry,
        "templates": templates_entry,
        "tasks": [
            {
                "index": outcome.task.index,
                "curve": outcome.task.curve_index,
                "label": outcome.task.label,
                "phi": outcome.task.phi,
                "key": outcome.task.cache_key(cache.schema_version)
                if cache is not None
                else outcome.task.cache_key(),
                "y": outcome.record["value"],
                "seconds": outcome.seconds,
                "cached": outcome.cached,
            }
            for outcome in outcomes
        ],
    }
    results = {
        "campaign": spec.name,
        "curves": [
            {
                "label": sweep.label,
                "phis": sweep.phis,
                "values": sweep.values,
                "optimum": {
                    "phi": sweep.optimum().phi,
                    "y": sweep.optimum().y,
                },
            }
            for sweep in sweeps
        ],
    }

    manifest_path = run_dir / "manifest.json"
    results_path = run_dir / "results.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    results_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return RunArtifacts(
        run_dir=run_dir, manifest_path=manifest_path, results_path=results_path
    )
