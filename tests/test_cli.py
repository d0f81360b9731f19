"""CLI integration tests (run in-process through cli.main)."""

import pytest

from repro.cli import main


def test_suite_command(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert "234 instances" in out


def test_bmc_command_sat(capsys):
    assert main(["bmc", "counter", "-k", "3", "--method", "jsat"]) == 0
    out = capsys.readouterr().out
    assert "UNSAT" in out or "SAT" in out


def test_bmc_unknown_family(capsys):
    assert main(["bmc", "nonexistent"]) == 1


def test_sweep_command(capsys):
    assert main(["sweep", "counter", "--max-k", "6"]) == 0
    out = capsys.readouterr().out
    assert "sweep k=0..6" in out
    assert "sat-incremental" in out
    assert "shortest counterexample" in out
    assert "trace of length" in out


def test_sweep_command_multiple_methods(capsys):
    assert main(["sweep", "ring", "--max-k", "4",
                 "--methods", "sat-incremental", "jsat"]) == 0
    out = capsys.readouterr().out
    assert "sat-incremental" in out and "jsat" in out


def test_sweep_unknown_family(capsys):
    assert main(["sweep", "nonexistent"]) == 1


def test_solve_cnf(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
    assert main(["solve-cnf", str(path), "--model"]) == 0
    out = capsys.readouterr().out
    assert "s SAT" in out and "v " in out


def test_solve_cnf_unsat(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert main(["solve-cnf", str(path)]) == 0
    assert "s UNSAT" in capsys.readouterr().out


def test_solve_qbf(tmp_path, capsys):
    path = tmp_path / "f.qdimacs"
    path.write_text("p cnf 2 2\na 1 0\ne 2 0\n1 -2 0\n-1 2 0\n")
    assert main(["solve-qbf", str(path)]) == 0
    assert "s SAT" in capsys.readouterr().out
    assert main(["solve-qbf", str(path), "--backend", "expansion"]) == 0


def test_experiment_e3(capsys):
    assert main(["experiment", "e3"]) == 0
    out = capsys.readouterr().out
    assert "E3" in out and "iterations" in out


def test_bmc_with_budget_flags(capsys):
    code = main(["--timeout", "5", "--conflicts", "10000",
                 "bmc", "ring", "--method", "sat-unroll"])
    assert code == 0


def test_check_command_family_bundle(capsys):
    # The family's default multi-property bundle includes a failing
    # invariant (the target IS reachable) -> exit code 1.
    assert main(["check", "counter"]) == 1
    out = capsys.readouterr().out
    assert "reach-target" in out and "never-target" in out
    assert "HOLDS" in out and "VIOLATED" in out


def test_check_command_user_specs(capsys):
    code = main(["check", "arbiter",
                 "--spec", "mutex := G !(gnt0 & gnt1)",
                 "--spec", "EF gnt2", "-k", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mutex" in out and "spec1" in out
    assert "trace of length" in out          # the EF witness waveform


def test_check_command_sweep_streams(capsys):
    # Per-bound progress goes to the logger (stderr, behind -v);
    # stdout stays report-only.
    assert main(["-v", "check", "counter", "--spec", "EF (c0 & c1)",
                 "-k", "5", "--sweep"]) == 0
    captured = capsys.readouterr()
    assert "[spec0] bound 0" in captured.err
    assert "[spec0] bound 0" not in captured.out


def test_check_sweep_quiet_without_verbose(capsys):
    assert main(["check", "counter", "--spec", "EF (c0 & c1)",
                 "-k", "5", "--sweep"]) == 0
    captured = capsys.readouterr()
    assert "bound 0" not in captured.err
    assert "bound 0" not in captured.out


def test_check_command_smv(tmp_path, capsys):
    path = tmp_path / "m.smv"
    path.write_text(
        "MODULE main\n"
        "VAR x : boolean;\n"
        "ASSIGN init(x) := FALSE; next(x) := !x;\n"
        "SPEC never_x := AG !x\n"
        "INVARSPEC TRUE\n")
    assert main(["check", "--smv", str(path), "-k", "3"]) == 1
    out = capsys.readouterr().out
    assert "never_x" in out and "VIOLATED" in out
    assert "invar0" in out and "HOLDS" in out


def test_check_command_bad_spec(capsys):
    assert main(["check", "counter", "--spec", "G (("]) == 1
    assert "check:" in capsys.readouterr().err


def test_check_command_unknown_variable(capsys):
    assert main(["check", "counter", "--spec", "EF bogus_var"]) == 1
    assert "non-state variables" in capsys.readouterr().err


def test_check_command_needs_one_subject(capsys):
    assert main(["check"]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_check_prover_proves_and_require_proof_passes(capsys):
    # An inductive invariant the prover closes: exit 0 even under
    # --require-proof, and the report says "proved" not "bounded".
    code = main(["check", "counter",
                 "--spec", "taut := G (c0 | !c0)", "-k", "4",
                 "--prover", "k-induction", "--require-proof"])
    assert code == 0
    out = capsys.readouterr().out
    assert "proved" in out
    assert "(bounded)" not in out


def test_check_require_proof_downgrades_bounded_holds(capsys):
    # Without a prover the same property only holds up to k: the
    # verdict is printed with the bounded qualifier and
    # --require-proof turns the exit code into 2.
    code = main(["check", "counter",
                 "--spec", "taut := G (c0 | !c0)", "-k", "4",
                 "--require-proof"])
    assert code == 2
    captured = capsys.readouterr()
    assert "holds up to 4 (bounded)" in captured.out
    assert "--require-proof" in captured.err


def test_check_bounded_holds_passes_without_require_proof(capsys):
    code = main(["check", "counter",
                 "--spec", "taut := G (c0 | !c0)", "-k", "4"])
    assert code == 0
    assert "holds up to 4 (bounded)" in capsys.readouterr().out


def test_check_violation_outranks_require_proof(capsys):
    # VIOLATED exits 1 even when --require-proof would also fire.
    code = main(["check", "counter", "--spec", "EF (c0 & c1)",
                 "--spec", "bad := G !(c0 & c1)", "-k", "5",
                 "--require-proof"])
    assert code == 1
    assert "VIOLATED" in capsys.readouterr().out


def test_backends_table_lists_provers(capsys):
    assert main(["backends"]) == 0
    out = capsys.readouterr().out
    assert "proves" in out
    for name in ("k-induction", "interpolation", "diameter"):
        assert name in out


def test_backends_names_the_compiled_engine(capsys, monkeypatch):
    from repro.sat import ckernel
    monkeypatch.delenv("REPRO_SAT_KERNEL", raising=False)
    lib = ckernel.load_core()
    if lib is None:
        pytest.skip("no C compiler for the compiled kernel core")
    assert main(["backends"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"sat engine: kernel (compiled core, {lib._name})"


def test_backends_names_the_fallback_engine(capsys, monkeypatch):
    from repro.sat import ckernel
    monkeypatch.delenv("REPRO_SAT_KERNEL", raising=False)
    monkeypatch.setattr(ckernel, "load_core", lambda: None)
    assert main(["backends"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "sat engine: reference (kernel requested; no compiled core)"
