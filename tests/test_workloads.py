"""Tests for the industrial-workload ingestion pipeline.

The checked-in ``examples/corpus/`` directory is the fixture: six
models across all four supported formats, covering AIGER 1.9 bad
sections, the binary HWMCC format, ISCAS-89 ``.bench`` and the SMV
subset.  Beyond parsing, the key invariant is *verdict agreement*:
for every ingested instance the simulation tier, a bounded solver
backend, the explicit-state oracle and the BDD engine must tell the
same story about reachability within the default bound.
"""

from __future__ import annotations

from pathlib import Path

import json

import pytest

from repro.bdd import BddReachability
from repro.logic.expr import var
from repro.bmc.session import BmcSession
from repro.models import shift_register
from repro.sat.types import SolveResult
from repro.sim import presolve
from repro.system import ExplicitOracle
from repro.system.aiger_io import write_aiger, write_aiger_binary
from repro.workloads import (CorpusError, SUPPORTED_EXTENSIONS,
                             fingerprint_circuit, ingest, ingest_file,
                             load_circuit, scan_directory, write_manifest)

CORPUS = Path(__file__).resolve().parent.parent / "examples" / "corpus"


@pytest.fixture(scope="module")
def report():
    return ingest(CORPUS)


class TestIngest:
    def test_all_formats_ingested(self, report):
        assert not report.errors
        assert len(report.entries) >= 5
        formats = {entry.format for entry in report.entries}
        assert formats == set(SUPPORTED_EXTENSIONS.values())

    def test_instances_are_suite_compatible(self, report):
        instances = report.instances
        assert len(instances) >= 6
        for inst in instances:
            assert inst.family == "corpus"
            assert inst.expected is None       # no ground truth claimed
            assert ":" in inst.name            # "<model>:<target>"
            assert inst.k >= 1
            # The reduced final must speak the instance system's
            # vocabulary — reduction happened at load time.
            assert inst.final.support() <= set(inst.system.state_vars)

    def test_entries_record_reduction_stats(self, report):
        for entry in report.entries:
            for inst in entry.instances:
                stats = entry.reductions[inst.name]
                assert stats["reduced_latches"] <= stats["original_latches"]
                assert len(inst.system.state_vars) == \
                    stats["reduced_latches"]

    def test_custom_bound(self, tmp_path):
        (tmp_path / "m.aag").write_text(
            (CORPUS / "toggle.aag").read_text())
        rep = ingest(tmp_path, k=17)
        assert all(inst.k == 17 for inst in rep.instances)

    def test_reduce_off_keeps_full_system(self, report):
        rep = ingest(CORPUS, reduce="off")
        for entry in rep.entries:
            for inst in entry.instances:
                stats = entry.reductions[inst.name]
                assert stats["reduced_latches"] == \
                    stats["original_latches"]
                assert len(inst.system.state_vars) == \
                    stats["original_latches"]


class TestManifest:
    def test_shape(self, report, tmp_path):
        manifest = report.manifest()
        assert manifest["version"] == 1
        assert manifest["instances"] == len(report.instances)
        assert manifest["errors"] == {}
        for row in manifest["models"]:
            assert row["format"] in SUPPORTED_EXTENSIONS.values()
            assert len(row["sha256"]) == 64
            assert len(row["canonical"]) == 64
            assert row["targets"]
        out = tmp_path / "manifest.json"
        write_manifest(report, out)
        assert json.loads(out.read_text()) == json.loads(
            json.dumps(manifest))      # JSON-serialisable as written

    def test_canonical_fingerprint_is_format_independent(self, tmp_path):
        # The same circuit saved as ASCII and as binary AIGER must
        # carry the same canonical fingerprint and different raw
        # hashes — the canonical hash is the cross-format identity.
        circuit = shift_register.make_circuit(4)
        circuit.add_bad("token", var("t3"))
        (tmp_path / "m.aag").write_text(write_aiger(circuit))
        (tmp_path / "m.aig").write_bytes(write_aiger_binary(circuit))
        rep = ingest(tmp_path)
        assert len(rep.entries) == 2
        a, b = rep.entries
        assert a.canonical == b.canonical
        assert a.sha256 != b.sha256

    def test_fingerprint_stable_across_reparse(self):
        circuit = shift_register.make_circuit(3)
        fp = fingerprint_circuit(circuit)
        from repro.system.aiger_io import parse_aiger
        again = parse_aiger(write_aiger(circuit), circuit.name)
        assert fingerprint_circuit(again) == fp


class TestErrors:
    def test_bad_file_recorded_not_fatal(self, tmp_path):
        (tmp_path / "ok.aag").write_text(
            (CORPUS / "toggle.aag").read_text())
        (tmp_path / "broken.aag").write_text("aag 1 1 1\n")
        rep = ingest(tmp_path)
        assert len(rep.entries) == 1
        assert len(rep.errors) == 1
        assert "broken.aag" in next(iter(rep.errors))

    def test_undeclared_smv_identifier_recorded_not_fatal(self, tmp_path):
        # ``zz`` is never declared: the parser must reject it with a
        # typed error instead of letting canonicalisation crash ingest.
        (tmp_path / "ok.aag").write_text(
            (CORPUS / "toggle.aag").read_text())
        (tmp_path / "stray.smv").write_text(
            "MODULE main\nVAR a : boolean;\n"
            "ASSIGN init(a) := FALSE; next(a) := !a & zz;\n")
        rep = ingest(tmp_path)
        assert len(rep.entries) == 1
        assert len(rep.errors) == 1
        message = rep.errors[str(tmp_path / "stray.smv")]
        assert "undeclared identifier 'zz'" in message

    def test_deeply_nested_smv_recorded_not_fatal(self, tmp_path):
        # 250-deep parentheses used to exhaust the parser's stack and
        # abort the whole corpus with a RecursionError.
        (tmp_path / "ok.aag").write_text(
            (CORPUS / "toggle.aag").read_text())
        deep = "(" * 250 + "!a" + ")" * 250
        (tmp_path / "deep.smv").write_text(
            "MODULE main\nVAR a : boolean;\n"
            f"ASSIGN init(a) := FALSE; next(a) := {deep};\n")
        rep = ingest(tmp_path, strict=False)
        assert len(rep.entries) == 1
        assert len(rep.errors) == 1
        message = rep.errors[str(tmp_path / "deep.smv")]
        assert "nests deeper" in message

    def test_strict_raises(self, tmp_path):
        (tmp_path / "broken.aag").write_text("aag 1 1 1\n")
        with pytest.raises(CorpusError):
            ingest(tmp_path, strict=True)

    def test_scan_requires_directory(self, tmp_path):
        with pytest.raises(CorpusError, match="not a directory"):
            scan_directory(tmp_path / "missing")

    def test_unsupported_extension(self, tmp_path):
        target = tmp_path / "m.vhdl"
        target.write_text("entity e is end;")
        with pytest.raises(CorpusError, match="unsupported extension"):
            load_circuit(target)

    def test_no_targets(self, tmp_path):
        # An AIGER file with neither bad sections nor outputs has
        # nothing to verify.
        (tmp_path / "empty.aag").write_text("aag 1 0 1 0 0\n2 2\n")
        with pytest.raises(CorpusError, match="no bad sections"):
            ingest_file(tmp_path / "empty.aag")


class TestVerdictAgreement:
    """Sim tier vs bounded solver vs explicit oracle vs BDD engine."""

    def test_all_engines_agree_on_every_corpus_instance(self, report):
        for inst in report.instances:
            oracle = ExplicitOracle(inst.system)
            truth = oracle.reachable_within(inst.final, inst.k)
            bdd = BddReachability(inst.system)
            assert bdd.reachable_within(inst.final, inst.k) == truth, \
                inst.name

            with BmcSession(inst.system,
                            properties={"t": inst.final},
                            sim_tier=False) as session:
                solver = session.check(inst.k, method="jsat",
                                       semantics="within")
            assert (solver.status is SolveResult.SAT) == truth, inst.name

            sim = presolve(inst.system, inst.final, inst.k,
                           semantics="within")
            if sim is not None:        # SAT-only tier: misses prove nothing
                assert truth, inst.name
                sim.trace.validate(inst.system, inst.final)

    def test_sim_finds_the_violated_targets(self, report):
        # The fixture corpus was built so its violated properties are
        # shallow: the sim tier alone must falsify most of them.
        hits = 0
        for inst in report.instances:
            if presolve(inst.system, inst.final, inst.k,
                        semantics="within") is not None:
                hits += 1
        assert hits >= 4, f"only {hits} corpus sim falsifications"
