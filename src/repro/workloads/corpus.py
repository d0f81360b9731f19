"""Corpus ingestion: third-party model files -> suite instances.

``ingest(root)`` scans a directory for the industrial exchange formats
the parsers already understand —

* ``.aag`` — ASCII AIGER (1.0 / 1.9 with bad sections),
* ``.aig`` — binary AIGER (the HWMCC archive format),
* ``.bench`` — ISCAS-89 sequential netlists,
* ``.smv`` — the SMV subset (``SPEC``/``INVARSPEC`` become targets),

and turns every safety target into one suite-compatible
:class:`~repro.models.suite.Instance` (family ``"corpus"``, unknown
ground truth).  AIGER 1.9 ``b`` lines and SMV specs are the natural
target sources; for AIGER 1.0 and ``.bench`` files — which predate bad
sections — each *output* is taken as a bad signal, the convention the
early HWMCC circulated.

The reduction pipeline runs at load time: each target is checked
against its cone of influence, and the instance carries the reduced
system so every downstream consumer (race, batch, checker, serve)
starts from the small encoding the paper's space argument is about.

``ingest`` also produces a fingerprinted manifest (JSON-ready dict):
per file, the raw SHA-256, a *canonical* SHA-256 over the circuit's
ASCII AIGER serialization (format-independent identity), size
counters, and per-target reduction stats.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..models.suite import Instance
from ..reduce import reduce_for_target
from ..system.aiger_io import (AigerError, parse_aiger, parse_aiger_binary,
                               write_aiger)
from ..system.bench_parser import BenchError, parse_bench
from ..system.circuit import Circuit
from ..system.smv import SmvError, parse_smv
from ..telemetry import current_metrics, current_tracer

__all__ = ["CorpusEntry", "CorpusError", "CorpusReport",
           "SUPPORTED_EXTENSIONS", "fingerprint_circuit", "ingest",
           "ingest_file", "load_circuit", "scan_directory",
           "write_manifest"]

#: extension -> format tag recorded in the manifest.
SUPPORTED_EXTENSIONS: Dict[str, str] = {
    ".aag": "aiger-ascii",
    ".aig": "aiger-binary",
    ".bench": "bench",
    ".smv": "smv",
}

#: Default bound for corpus instances (no family ground truth to pin it).
DEFAULT_K = 10


class CorpusError(ValueError):
    """Raised when a corpus file cannot be ingested."""


@dataclass
class CorpusEntry:
    """One ingested model file and the instances cut from it."""

    path: str
    format: str
    circuit: Circuit
    sha256: str
    canonical: str
    instances: List[Instance] = field(default_factory=list)
    reductions: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def manifest_row(self) -> Dict[str, object]:
        stats = self.circuit.stats()
        return {
            "file": self.path,
            "format": self.format,
            "sha256": self.sha256,
            "canonical": self.canonical,
            "inputs": stats["inputs"],
            "latches": stats["latches"],
            "dag_nodes": stats["dag_nodes"],
            "targets": [
                {"name": inst.name, "k": inst.k,
                 **self.reductions.get(inst.name, {})}
                for inst in self.instances],
        }


@dataclass
class CorpusReport:
    """Everything ``ingest`` learned about a directory."""

    root: str
    entries: List[CorpusEntry] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    errors: Dict[str, str] = field(default_factory=dict)

    @property
    def instances(self) -> List[Instance]:
        return [inst for entry in self.entries for inst in entry.instances]

    def manifest(self) -> Dict[str, object]:
        return {
            "version": 1,
            "root": self.root,
            "models": [entry.manifest_row() for entry in self.entries],
            "instances": len(self.instances),
            "errors": dict(self.errors),
        }


def scan_directory(root: str | os.PathLike) -> List[Path]:
    """Supported model files under ``root``, sorted for determinism."""
    base = Path(root)
    if not base.is_dir():
        raise CorpusError(f"not a directory: {base}")
    return sorted(p for p in base.rglob("*")
                  if p.is_file() and p.suffix in SUPPORTED_EXTENSIONS)


def load_circuit(path: str | os.PathLike) -> Circuit:
    """Parse one model file into a Circuit, dispatching on extension."""
    p = Path(path)
    fmt = SUPPORTED_EXTENSIONS.get(p.suffix)
    if fmt is None:
        raise CorpusError(f"unsupported extension {p.suffix!r}: {p}")
    try:
        if fmt == "aiger-binary":
            return parse_aiger_binary(p.read_bytes(), p.stem)
        text = p.read_text()
        if fmt == "aiger-ascii":
            return parse_aiger(text, p.stem)
        if fmt == "bench":
            return parse_bench(text, p.stem)
        return parse_smv(text, p.stem)
    except (AigerError, BenchError, SmvError, ValueError) as exc:
        raise CorpusError(f"{p}: {exc}") from exc


def fingerprint_circuit(circuit: Circuit) -> str:
    """Format-independent identity: SHA-256 of the canonical ``aag``."""
    return hashlib.sha256(write_aiger(circuit).encode()).hexdigest()


def _targets(circuit: Circuit) -> Dict[str, object]:
    """Safety targets: bad sections first, outputs as the fallback."""
    if circuit.bad:
        return dict(circuit.bad)
    # AIGER 1.0 / .bench convention: outputs are the monitored signals.
    return dict(circuit.outputs)


def ingest_file(path: str | os.PathLike, *, k: int = DEFAULT_K,
                reduce: str = "auto") -> CorpusEntry:
    """Ingest one model file into per-target suite instances."""
    p = Path(path)
    raw = p.read_bytes()
    circuit = load_circuit(p)
    fmt = SUPPORTED_EXTENSIONS[p.suffix]
    try:
        canonical = fingerprint_circuit(circuit)
        system = circuit.to_transition_system()
    except (AigerError, ValueError) as exc:
        raise CorpusError(f"{p}: {exc}") from exc
    entry = CorpusEntry(
        path=str(p), format=fmt, circuit=circuit,
        sha256=hashlib.sha256(raw).hexdigest(), canonical=canonical)
    targets = _targets(circuit)
    if not targets:
        raise CorpusError(f"{p}: no bad sections, outputs or specs")
    for prop_name, final in targets.items():
        name = f"{p.stem}:{prop_name}"
        inst_system, inst_final = system, final
        stats = {"original_latches": len(system.state_vars)}
        if reduce != "off":
            reduction = reduce_for_target(system, final)
            stats["reduced_latches"] = len(reduction.system.state_vars)
            if not reduction.is_identity:
                inst_system = reduction.system
                inst_final = reduction.map_expr(final)
        else:
            stats["reduced_latches"] = stats["original_latches"]
        entry.reductions[name] = stats
        entry.instances.append(
            Instance(name, "corpus", inst_system, inst_final, k,
                     expected=None))
    return entry


def ingest(root: str | os.PathLike, *, k: int = DEFAULT_K,
           reduce: str = "auto",
           strict: bool = False) -> CorpusReport:
    """Scan ``root`` and ingest every supported model file.

    Unparseable files are recorded in ``report.errors`` and skipped
    unless ``strict`` is set, in which case the first failure raises —
    a real corpus always carries a few truncated or exotic files and
    one of them should not sink the batch.
    """
    root_path = Path(root)
    report = CorpusReport(root=str(root_path))
    with current_tracer().span("corpus.ingest", root=str(root_path)):
        for path in scan_directory(root_path):
            try:
                entry = ingest_file(path, k=k, reduce=reduce)
            except (CorpusError, OSError) as exc:
                if strict:
                    raise
                report.errors[str(path)] = str(exc)
                continue
            report.entries.append(entry)
    metrics = current_metrics()
    metrics.inc("corpus.files", len(report.entries))
    metrics.inc("corpus.instances", len(report.instances))
    metrics.inc("corpus.errors", len(report.errors))
    return report


def write_manifest(report: CorpusReport,
                   path: str | os.PathLike) -> None:
    """Write the fingerprinted manifest JSON next to the corpus."""
    payload = json.dumps(report.manifest(), indent=2, sort_keys=True)
    Path(path).write_text(payload + "\n")
