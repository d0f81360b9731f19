"""Differential/fuzz verification of the compiled CDCL kernel.

The :class:`repro.sat.kernel.KernelSolver` (the compiled C core) must
be indistinguishable from the reference
:class:`repro.sat.solver.CdclSolver` at the public surface — same
verdicts, valid models, equivalent assumption-group retirement,
honored budgets, sane stats — on randomly generated problems.  Tests
that construct the kernel directly are skipped when no system C
compiler is available; :func:`make_solver` then routes ``"kernel"`` to
the reference, which is checked here too, as is the routing of
proof-logged solves to the reference.

Three layers of agreement:

* random CNF formulas (hypothesis): kernel vs reference vs DPLL
  enumeration, incremental add/solve rounds with assumptions;
* random transition-system unrollings for k = 0..6 through
  :class:`repro.bmc.incremental.IncrementalBmc` on each engine,
  cross-checked against the explicit-state oracle;
* jSAT-style activation-group retirement: retiring groups mid-stream
  must leave both engines answering identically afterwards.

Bulk loading (``add_clauses_flat``, the compiled core's one-call
``ck_add_clauses``) is pinned to per-clause ``add_clause`` on every
engine, including empty clauses, tautologies, duplicate literals,
conflicting units and clauses added after the formula went UNSAT.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bmc.incremental import IncrementalBmc
from repro.logic.cnf import CNF
from repro.sat import ckernel
from repro.sat.ckernel import compiled_available
from repro.sat.dpll import brute_force_sat
from repro.sat.kernel import (CompiledCoreUnavailable, KernelSolver,
                              make_solver)
from repro.sat.proof import DratProof, ResolutionProof
from repro.sat.solver import CdclSolver
from repro.sat.types import (Budget, SolveResult, install_stop_check,
                             resolve_engine)
from repro.system import ExplicitOracle, random_predicate, random_system

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])

#: Kernel backends under test; the compiled leg is skipped gracefully
#: when no C compiler is present.
BACKENDS = ["compiled"]


@pytest.fixture(params=BACKENDS)
def kernel_backend(request):
    """Skip the test unless the requested kernel backend is present."""
    if not compiled_available():
        pytest.skip("no C compiler for the compiled kernel core")
    return request.param


def _fresh_kernel(backend):
    """A KernelSolver, checked to run on the requested backend."""
    solver = KernelSolver()
    assert solver.backend == backend
    return solver


# ----------------------------------------------------------------------
# Random CNF strategies
# ----------------------------------------------------------------------
def _random_cnf(rng, num_vars, num_clauses, max_len=4):
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        width = rng.randint(1, max_len)
        lits = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                for _ in range(width)]
        cnf.add_clause(lits)
    return cnf


def _assert_model_satisfies(cnf, model, context):
    assignment = {v: model.get(v, False)
                  for v in range(1, cnf.num_vars + 1)}
    assert cnf.evaluate(assignment), context


class TestRandomCnf:
    """Verdict and model agreement on one-shot random formulas."""

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, **COMMON)
    def test_kernel_matches_reference_and_dpll(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 12)
        cnf = _random_cnf(rng, num_vars, rng.randint(1, 4 * num_vars))
        expected, _ = brute_force_sat(cnf)

        for engine in ("reference", "kernel"):
            solver = make_solver(engine)
            solver.ensure_vars(cnf.num_vars)
            loaded = solver.add_clauses(cnf.clauses)
            status = solver.solve() if loaded else SolveResult.UNSAT
            assert status is expected, (seed, engine)
            if status is SolveResult.SAT:
                _assert_model_satisfies(cnf, solver.model(), (seed, engine))

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, **COMMON)
    def test_incremental_rounds_with_assumptions(self, seed):
        """Interleaved add/solve rounds under assumptions stay in
        lock-step: same verdict each round, failed-assumption cores are
        themselves unsatisfiable together with the clauses."""
        rng = random.Random(seed)
        num_vars = rng.randint(4, 10)
        reference = CdclSolver()
        kernel = make_solver("kernel")
        for solver in (reference, kernel):
            solver.ensure_vars(num_vars)
        added = []
        for _ in range(rng.randint(2, 5)):
            batch = _random_cnf(rng, num_vars, rng.randint(1, 6)).clauses
            ok_ref = all([reference.add_clause(c) for c in batch])
            ok_ker = all([kernel.add_clause(c) for c in batch])
            added.extend(batch)
            assert reference.ok == kernel.ok, seed
            assumptions = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                           for _ in range(rng.randint(0, 3))]
            status_ref = reference.solve(assumptions)
            status_ker = kernel.solve(assumptions)
            assert status_ref is status_ker, (seed, assumptions,
                                              ok_ref, ok_ker)
            if status_ker is SolveResult.SAT:
                model = kernel.model()
                cnf = CNF(num_vars)
                for clause in added:
                    cnf.add_clause(clause)
                _assert_model_satisfies(cnf, model, seed)
                for lit in assumptions:
                    value = model.get(abs(lit), False)
                    assert value == (lit > 0), (seed, lit)
            elif status_ker is SolveResult.UNSAT and assumptions:
                core = kernel.core()
                assert set(map(abs, core)) <= set(map(abs, assumptions))

    def test_both_backends_agree(self, kernel_backend):
        """The forced backend answers exactly like the reference on a
        deterministic batch of formulas (belt over the fuzz above)."""
        rng = random.Random(20250808)
        for _ in range(25):
            num_vars = rng.randint(3, 10)
            cnf = _random_cnf(rng, num_vars, rng.randint(1, 30))
            expected, _ = brute_force_sat(cnf)
            solver = _fresh_kernel(kernel_backend)
            solver.ensure_vars(cnf.num_vars)
            loaded = solver.add_clauses(cnf.clauses)
            status = solver.solve() if loaded else SolveResult.UNSAT
            assert status is expected


# ----------------------------------------------------------------------
# Bulk loading: add_clauses_flat / ck_add_clauses vs per-clause adds
# ----------------------------------------------------------------------
def _raw_clauses(rng, num_vars, count):
    """Unnormalised clauses: empty ones, tautologies, duplicate
    literals and (likely conflicting) units mixed into random ones."""
    def lit():
        return rng.choice([1, -1]) * rng.randint(1, num_vars)
    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.04:
            out.append([])
        elif roll < 0.12:
            x = lit()
            out.append([x, lit(), -x])
        elif roll < 0.2:
            x = lit()
            out.append([x, x, lit()])
        elif roll < 0.3:
            out.append([lit()])
        else:
            out.append([lit() for _ in range(rng.randint(1, 4))])
    return out


@pytest.fixture(params=["reference", "compiled"])
def any_engine(request):
    """A constructor for one of the two engines."""
    if request.param == "reference":
        return CdclSolver
    if not compiled_available():
        pytest.skip("no C compiler for the compiled kernel core")

    def build():
        solver = KernelSolver()
        assert solver.backend == request.param
        return solver
    return build


class TestBulkLoad:
    def test_flat_matches_per_clause(self, any_engine):
        rng = random.Random(20261017)
        for trial in range(80):
            num_vars = rng.randint(2, 10)
            clauses = _raw_clauses(rng, num_vars, rng.randint(0, 30))
            lits, ends = [], []
            for clause in clauses:
                lits.extend(clause)
                ends.append(len(lits))
            cnf = CNF(num_vars)
            cnf.add_clauses(clauses)
            expected, _ = brute_force_sat(cnf)

            one = any_engine()
            one.ensure_vars(num_vars)
            for clause in clauses:
                one.add_clause(clause)
            flat = any_engine()
            flat.ensure_vars(num_vars)
            ok = flat.add_clauses_flat(lits, ends)
            batch = any_engine()
            batch.ensure_vars(num_vars)
            batch.add_clauses(clauses)

            context = (trial, clauses)
            assert ok == flat.ok == one.ok == batch.ok, context
            assert flat.num_clauses() == one.num_clauses() \
                == batch.num_clauses(), context
            for solver in (one, flat, batch):
                status = solver.solve() if solver.ok else SolveResult.UNSAT
                assert status is expected, context
                if status is SolveResult.SAT:
                    _assert_model_satisfies(cnf, solver.model(), context)
                    bits = solver.model_bits()
                    for v in range(1, num_vars + 1):
                        assert bool(bits[v]) == \
                            bool(solver.model_value(v)), context

    def test_flat_after_unsat_is_a_no_op(self, any_engine):
        solver = any_engine()
        solver.ensure_vars(2)
        assert not solver.add_clauses_flat([1, -1], [1, 2])
        assert not solver.add_clauses_flat([1, 2], [2])
        assert solver.solve() is SolveResult.UNSAT

    def test_compiled_rejects_malformed_ends(self):
        if not compiled_available():
            pytest.skip("no C compiler for the compiled kernel core")
        solver = KernelSolver()
        solver.ensure_vars(2)
        for ends in ([3], [2, 1]):             # past the end / decreasing
            with pytest.raises(ValueError):
                solver.add_clauses_flat([1, 2], ends)
        assert solver.num_clauses() == 0 and solver.ok

    def test_compiled_stats_in_one_call(self):
        if not compiled_available():
            pytest.skip("no C compiler for the compiled kernel core")
        solver = KernelSolver()
        _pigeonhole(solver, holes=4)
        solver.solve()
        stats = solver.stats.as_dict()
        assert list(stats) == list(CdclSolver().stats.as_dict())
        for name, value in stats.items():
            assert value == getattr(solver.stats, name), name


# ----------------------------------------------------------------------
# Group retirement (the jSAT idiom)
# ----------------------------------------------------------------------
class TestGroupRetirement:
    @given(st.integers(0, 100_000))
    @settings(max_examples=30, **COMMON)
    def test_retirement_equivalence(self, seed):
        """Guarded constraints + retirement behave identically: while a
        group is assumed the constraint bites, after ``[-g]`` +
        purge both engines answer like the constraint never existed."""
        rng = random.Random(seed)
        num_vars = rng.randint(4, 9)
        base = _random_cnf(rng, num_vars, rng.randint(2, 10))
        constraint = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                      for _ in range(rng.randint(1, 3))]
        solvers = {"reference": CdclSolver(), "kernel": make_solver("kernel")}
        group = num_vars + 1
        status = {}
        for name, solver in solvers.items():
            solver.ensure_vars(num_vars + 1)
            loaded = solver.add_clauses(base.clauses)
            for lit in constraint:
                solver.add_clause([-group, lit])
            active = solver.solve([group]) if loaded else SolveResult.UNSAT
            solver.add_clause([-group])
            solver.purge_satisfied()
            retired = solver.solve() if solver.ok else SolveResult.UNSAT
            status[name] = (active, retired)
        assert status["reference"] == status["kernel"], seed
        # Retirement really removed the constraint: the plain base
        # formula's verdict matches the post-retirement answer.
        expected, _ = brute_force_sat(base)
        assert status["kernel"][1] is expected, seed


# ----------------------------------------------------------------------
# Random-system unrollings
# ----------------------------------------------------------------------
class TestRandomUnrollings:
    @given(st.integers(0, 100_000))
    @settings(max_examples=15, **COMMON)
    def test_incremental_bmc_engines_agree(self, seed):
        rng = random.Random(seed)
        system = random_system(rng, num_latches=3, num_inputs=1, depth=2)
        final = random_predicate(rng, system)
        oracle = ExplicitOracle(system)
        drivers = {engine: IncrementalBmc(system, final, solver=engine)
                   for engine in ("reference", "kernel")}
        for k in range(7):
            verdicts = {}
            for engine, driver in drivers.items():
                status, trace, _ = driver.check_bound(k)
                verdicts[engine] = status
                if status is SolveResult.SAT:
                    assert trace is not None, (seed, k, engine)
                    trace.validate(system, final)
                    assert trace.length == k
                driver.retire_bound(k)
            assert verdicts["reference"] is verdicts["kernel"], (seed, k)
            want = oracle.reachable_in_exactly(final, k)
            assert (verdicts["kernel"] is SolveResult.SAT) == want, \
                (seed, k)


# ----------------------------------------------------------------------
# Budgets and cooperative cancellation
# ----------------------------------------------------------------------
def _pigeonhole(solver, holes=8):
    def var(i, j):
        return i * holes + j + 1
    solver.ensure_vars((holes + 1) * holes)
    for i in range(holes + 1):
        solver.add_clause([var(i, j) for j in range(holes)])
    for j in range(holes):
        for i1 in range(holes + 1):
            for i2 in range(i1 + 1, holes + 1):
                solver.add_clause([-var(i1, j), -var(i2, j)])


class TestBudgetsAndCancellation:
    def test_conflict_budget_unknown(self, kernel_backend):
        solver = _fresh_kernel(kernel_backend)
        _pigeonhole(solver)
        status = solver.solve(budget=Budget(max_conflicts=5))
        assert status is SolveResult.UNKNOWN
        assert solver.stats.conflicts >= 5

    def test_decision_budget_unknown(self, kernel_backend):
        solver = _fresh_kernel(kernel_backend)
        _pigeonhole(solver)
        assert solver.solve(budget=Budget(max_decisions=5)) \
            is SolveResult.UNKNOWN

    def test_deadline_unknown(self, kernel_backend):
        solver = _fresh_kernel(kernel_backend)
        _pigeonhole(solver, holes=10)
        budget = Budget(max_seconds=0.001)
        assert solver.solve(budget=budget) is SolveResult.UNKNOWN

    def test_stop_check_aborts(self, kernel_backend):
        """An installed stop probe cancels the search mid-flight, the
        warm-cancel contract the worker pool relies on."""
        solver = _fresh_kernel(kernel_backend)
        _pigeonhole(solver, holes=6)
        calls = [0]

        def stop():
            calls[0] += 1
            return calls[0] > 3

        previous = install_stop_check(stop)
        try:
            assert solver.solve() is SolveResult.UNKNOWN
        finally:
            install_stop_check(previous)
        assert calls[0] > 3
        # The solver survives a cancellation: the same instance
        # finishes the query once the probe is gone.
        assert solver.solve() is SolveResult.UNSAT

    def test_budget_slices_resume(self, kernel_backend):
        """Repeated small conflict slices eventually finish the query
        (the jSAT global-budget slicing pattern)."""
        solver = _fresh_kernel(kernel_backend)
        _pigeonhole(solver, holes=5)
        for _ in range(2000):
            status = solver.solve(budget=Budget(max_conflicts=50))
            if status is not SolveResult.UNKNOWN:
                break
        assert status is SolveResult.UNSAT


# ----------------------------------------------------------------------
# Stats sanity
# ----------------------------------------------------------------------
class TestStatsSanity:
    def test_counters_present_and_monotone(self, kernel_backend):
        solver = _fresh_kernel(kernel_backend)
        reference = CdclSolver()
        assert set(solver.stats.as_dict()) == \
            set(reference.stats.as_dict())
        _pigeonhole(solver, holes=4)
        assert solver.solve() is SolveResult.UNSAT
        stats = solver.stats.as_dict()
        assert stats["conflicts"] > 0
        assert stats["decisions"] > 0
        assert stats["propagations"] > 0
        assert stats["learned"] > 0
        assert stats["db_literals"] >= 0
        assert stats["peak_db_literals"] >= stats["db_literals"]
        assert solver.stats.solve_calls == 1
        before = dict(stats)
        assert solver.solve() is SolveResult.UNSAT   # level-0 conflict
        after = solver.stats.as_dict()
        for key in ("conflicts", "decisions", "propagations"):
            assert after[key] >= before[key], key

    def test_engine_attributes(self, kernel_backend):
        solver = _fresh_kernel(kernel_backend)
        assert solver.engine == "kernel"
        assert CdclSolver().engine == "reference"
        assert resolve_engine("fast") == "kernel"
        assert resolve_engine("ref") == "reference"


# ----------------------------------------------------------------------
# UNSAT proofs (resolution chains and DRAT/RUP) on both engines
# ----------------------------------------------------------------------
class TestUnsatProofs:
    @pytest.mark.parametrize("engine", ["reference", "kernel"])
    @pytest.mark.parametrize("proof_cls", [ResolutionProof, DratProof])
    def test_pigeonhole_refutation_validates(self, engine, proof_cls):
        proof = proof_cls()
        solver = make_solver(engine, proof=proof)
        _pigeonhole(solver, holes=4)
        assert solver.solve() is SolveResult.UNSAT
        assert proof.check_refutation(solver.empty_clause_proof)

    @pytest.mark.parametrize("engine", ["reference", "kernel"])
    def test_incremental_unsat_proof(self, engine):
        """Proof logging across add/solve rounds: the refutation logged
        after the second batch still replays."""
        proof = DratProof()
        solver = make_solver(engine, proof=proof)
        solver.ensure_vars(3)
        solver.add_clauses([[1, 2], [-1, 2], [1, -2]])
        assert solver.solve() is SolveResult.SAT
        solver.add_clauses([[-1, -2]])
        assert solver.solve() is SolveResult.UNSAT
        assert proof.check_refutation(solver.empty_clause_proof)


# ----------------------------------------------------------------------
# Engine routing: make_solver is the one place that picks an engine
# ----------------------------------------------------------------------
class TestEngineRouting:
    def test_kernel_without_core_is_the_reference(self, monkeypatch):
        monkeypatch.setattr(ckernel, "load_core", lambda: None)
        solver = make_solver("kernel")
        assert isinstance(solver, CdclSolver)
        assert solver.engine == "reference"

    def test_kernel_with_proof_sink_logs_a_checkable_refutation(self):
        proof = DratProof()
        solver = make_solver("kernel", proof=proof)
        _pigeonhole(solver, holes=4)
        assert solver.solve() is SolveResult.UNSAT
        assert proof.check_refutation(solver.empty_clause_proof)

    def test_direct_construction_without_core_raises(self, monkeypatch):
        monkeypatch.setattr(ckernel, "load_core", lambda: None)
        with pytest.raises(CompiledCoreUnavailable):
            KernelSolver()
