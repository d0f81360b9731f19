"""Frame templates: TR encoded once, frames placed by integer offset.

Pins :mod:`repro.bmc.frames` (and the two drivers built on it,
``sat-unroll``'s :class:`UnrolledEncoding` and ``sat-incremental``'s
:class:`IncrementalBmc`) against independent ground truth:

* verdict parity on every suite family for k = 0..8, ``exact`` and
  ``within``, Tseitin and Plaisted–Greenbaum: the template encoding on
  the default engine, the same CNF on the reference solver, a
  per-frame ``trans_between`` + Tseitin unrolling built here, and the
  explicit-state oracle (BDD reachability for designs too wide to
  enumerate) must all agree, and every SAT witness must replay;
* clause accounting: ``init + k * |TR| + final``, where |TR| is what a
  per-frame ``trans_between`` + Tseitin walk emits;
* deterministic numbering, independent of ``Expr`` uid history;
* ``sat-incremental`` agrees with ``sat-unroll`` bound for bound.
"""

import os
import subprocess
import sys

import pytest

import repro

from repro.bdd.reachability import BddReachability
from repro.bmc.frames import FrameTemplate
from repro.bmc.incremental import IncrementalBmc
from repro.bmc.unroll import encode_unrolled
from repro.logic import expr as ex
from repro.logic.cnf import CNF, VarPool
from repro.logic.tseitin import TseitinEncoder
from repro.models import build_suite, counter
from repro.sat import CdclSolver, SolveResult
from repro.sat.kernel import make_solver
from repro.system import ExplicitOracle, TransitionSystem

MAX_K = 8
SEMANTICS = ("exact", "within")
POLARITY = (False, True)


def _family_representatives():
    """The first (smallest) instance of every suite family."""
    seen = {}
    for instance in build_suite():
        seen.setdefault(instance.family, instance)
    return sorted(seen.values(), key=lambda i: i.family)


REPRESENTATIVES = _family_representatives()
IDS = [i.family for i in REPRESENTATIVES]


def _legacy_unrolled(system, final, k, semantics, polarity_reduction):
    """Formula (1) the pre-template way: rename every frame with
    ``trans_between`` and Tseitin-walk it afresh.  Returns the CNF and
    the number of clauses each TR frame contributed."""
    cnf, pool = CNF(), VarPool()
    encoder = TseitinEncoder(cnf, pool, polarity_reduction)
    frames = [[f"{v}@{i}" for v in system.state_vars]
              for i in range(k + 1)]
    encoder.assert_expr(system.rename_state_expr(system.init, frames[0]))
    per_frame = []
    for i in range(k):
        before = len(cnf.clauses)
        encoder.assert_expr(system.trans_between(
            frames[i], frames[i + 1], input_suffix=f"@{i}"))
        per_frame.append(len(cnf.clauses) - before)
    targets = [system.rename_state_expr(final, frames[i])
               for i in range(k + 1)]
    encoder.assert_expr(targets[k] if semantics == "exact"
                        else ex.disjoin(targets))
    cnf.num_vars = max(cnf.num_vars, pool.num_vars)
    return cnf, per_frame


def _solve(clauses, num_vars, solver):
    solver.ensure_vars(num_vars)
    if not solver.add_clauses(clauses):
        return SolveResult.UNSAT
    return solver.solve()


def _load_and_solve(enc):
    """Bulk-load an encoding into a fresh default-engine solver."""
    solver = make_solver()
    status = solver.solve() if enc.load(solver) else SolveResult.UNSAT
    return status, solver


def _check_witness(enc, solver, system, final, k, semantics):
    trace = enc.extract_trace(solver.model_bits())
    assert trace.length == k
    if semantics == "within":
        trace = trace.shorten_to(final)
    trace.validate(system, final)


class _Truth:
    """Explicit-state oracle where the design is small enough to
    enumerate quickly, BDD reachability otherwise."""

    def __init__(self, system):
        bits = system.num_state_bits * 2 + len(system.input_vars)
        self.engine = (ExplicitOracle(system) if bits <= 16
                       else BddReachability(system))

    def __call__(self, final, k, semantics):
        if semantics == "exact":
            return self.engine.reachable_in_exactly(final, k)
        return self.engine.reachable_within(final, k)


@pytest.mark.parametrize("instance", REPRESENTATIVES, ids=IDS)
def test_verdict_parity(instance):
    system, final = instance.system, instance.final
    truth = _Truth(system)
    for semantics in SEMANTICS:
        for k in range(MAX_K + 1):
            want = truth(final, k, semantics)
            for pg in POLARITY:
                cell = (instance.name, semantics, k, pg)
                enc = encode_unrolled(system, final, k, semantics,
                                      polarity_reduction=pg)
                status, solver = _load_and_solve(enc)
                assert (status is SolveResult.SAT) == want, cell
                if status is SolveResult.SAT:
                    _check_witness(enc, solver, system, final, k,
                                   semantics)
                ref = _solve(enc.cnf.clauses, enc.num_vars, CdclSolver())
                assert ref is status, cell
                legacy, _ = _legacy_unrolled(system, final, k, semantics,
                                             pg)
                old = _solve(legacy.clauses, legacy.num_vars,
                             make_solver())
                assert old is status, cell


@pytest.mark.parametrize("instance", REPRESENTATIVES, ids=IDS)
def test_clause_accounting(instance):
    system, final = instance.system, instance.final
    for pg in POLARITY:
        tpl = FrameTemplate(system, final, polarity_reduction=pg)
        init = len(tpl.init.ends)
        trans = len(tpl.trans.ends)
        target = len(tpl.target.ends)
        # One TR frame through trans_between + a fresh Tseitin walk.
        standalone = CNF()
        TseitinEncoder(standalone, VarPool(), pg).assert_expr(
            system.trans_between(system.state_vars, system.next_vars))
        assert len(standalone.clauses) == trans, (instance.name, pg)
        for k in (0, 1, 3, 5):
            # The renaming unroller matches it on every frame but the
            # first, which could share nodes with init.
            _, per_frame = _legacy_unrolled(system, final, k, "exact", pg)
            assert per_frame[1:] == [trans] * max(k - 1, 0)
            assert all(count <= trans for count in per_frame[:1])
            exact = encode_unrolled(system, final, k, "exact",
                                    polarity_reduction=pg)
            assert exact.stats()["clauses"] == init + k * trans \
                + target + 1
            within = encode_unrolled(system, final, k, "within",
                                     polarity_reduction=pg)
            assert within.stats()["clauses"] == init + k * trans \
                + (k + 1) * target + 1
            assert len(exact.cnf.clauses) == exact.stats()["clauses"]
            assert exact.cnf.num_literals == exact.stats()["literals"]


def test_unrolled_layout_places_frames_by_offset():
    system, final, depth = counter.make(3, 5)
    enc = encode_unrolled(system, final, depth)
    width = enc.template.width
    for step in range(depth + 1):
        for j, name in enumerate(system.state_vars):
            assert enc.state_var(name, step) == step * width + j + 1
    for step in range(depth):
        for j, name in enumerate(system.input_vars):
            assert enc.input_var(name, step) == \
                step * width + len(system.state_vars) + j + 1


_NUMBERING_PROBE = """
import hashlib, sys
from repro.bmc.incremental import IncrementalBmc
from repro.bmc.unroll import encode_unrolled
from repro.logic import expr as ex
from repro.models import fifo, mixer
system, final, depth = fifo.make(3)
if sys.argv[1] == "busy":
    # Unrelated work first: another design, and frame-style names
    # interned in an order that reshuffles the uid-sorted arguments
    # of any encoding built by renaming.
    for name in reversed(system.state_vars + system.input_vars):
        for i in reversed(range(depth + 2)):
            ex.var(f"{name}@{i}")
    other, other_final, _ = mixer.make(6, 3)
    encode_unrolled(other, other_final, 4)
    IncrementalBmc(other, other_final).sweep(3)
cnf = encode_unrolled(system, final, depth, "within").cnf
print(hashlib.sha256(repr((cnf.num_vars, cnf.clauses)).encode())
      .hexdigest())
"""


def test_numbering_is_deterministic():
    # Each history runs in a fresh interpreter: hash-consing makes any
    # in-process repeat reuse the first run's nodes.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    digests = {
        history: subprocess.run(
            [sys.executable, "-c", _NUMBERING_PROBE, history],
            env=env, check=True, capture_output=True, text=True,
            timeout=120).stdout
        for history in ("fresh", "busy")}
    assert digests["fresh"] and digests["fresh"] == digests["busy"]


_CHECKER_PROBE = """
import hashlib, sys
from repro.bmc.incremental import IncrementalBmc
from repro.bmc.unroll import encode_unrolled
from repro.logic import expr as ex
from repro.models import fifo, mixer
from repro.models.suite import default_property_bundle
from repro.spec import PropertyChecker, reachability_target
system, final, depth = fifo.make(3)
if sys.argv[1] == "busy":
    # The unrelated work of _NUMBERING_PROBE, plus another checker.
    for name in reversed(system.state_vars + system.input_vars):
        for i in reversed(range(depth + 2)):
            ex.var(f"{name}@{i}")
    other, other_final, _ = mixer.make(6, 3)
    encode_unrolled(other, other_final, 4)
    IncrementalBmc(other, other_final).sweep(3)
    PropertyChecker(other, default_property_bundle(other_final),
                    sim_tier=False).sweep(3)
bundle = default_property_bundle(final, ex.var(system.state_vars[0]))
reach = sys.argv[2] == "reachability"
props = {name: prop for name, prop in bundle.items()
         if (reachability_target(prop) is not None) == reach}
rows = []
for mode in ("off", "auto"):
    checker = PropertyChecker(system, props, sim_tier=False, reduce=mode)
    for out in (checker.sweep(depth + 1), checker.check_all(depth + 2)):
        rows.append(sorted((name, r.verdict.name, r.k,
                            sorted(r.stats.items()))
                           for name, r in out.items()))
print(hashlib.sha256(repr(rows).encode()).hexdigest())
"""


@pytest.mark.parametrize("kind", [
    "reachability",
    pytest.param("bounded-ltl", marks=pytest.mark.xfail(
        strict=True, reason="general bounded-LTL witness formulas are "
        "Tseitin-encoded from Expr DAGs whose arguments are ordered by "
        "uid, so their auxiliary numbering follows Expr history")),
])
def test_checker_numbering_is_deterministic(kind):
    # PropertyChecker's cones place TR and every reachability target
    # from templates: the solver sees the same clauses, so the verdicts
    # and every search stat (vars, clauses, conflicts, ...) repeat.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    digests = {
        history: subprocess.run(
            [sys.executable, "-c", _CHECKER_PROBE, history, kind],
            env=env, check=True, capture_output=True, text=True,
            timeout=120).stdout
        for history in ("fresh", "busy")}
    assert digests["fresh"] and digests["fresh"] == digests["busy"]


def test_cnf_view_matches_bulk_load():
    system, final, depth = counter.make(3, 5)
    enc = encode_unrolled(system, final, depth)
    assert _solve(enc.cnf.clauses, enc.num_vars, make_solver()) \
        is SolveResult.SAT
    below = encode_unrolled(system, final, depth - 1)
    assert _load_and_solve(below)[0] is SolveResult.UNSAT


def test_constant_targets():
    system, _, _ = counter.make(3, 5)
    for final, want in ((ex.TRUE, SolveResult.SAT),
                        (ex.FALSE, SolveResult.UNSAT)):
        for semantics in SEMANTICS:
            enc = encode_unrolled(system, final, 2, semantics)
            assert _load_and_solve(enc)[0] is want, (final, semantics)


def test_frame_width_equal_to_state_width():
    # TR is a bare next-state literal: no inputs and no aux, so W = n
    # and frame i+1 starts right where frame i's Z slot ends.
    system = TransitionSystem(["a"], ~ex.var("a"), ex.var("a'"))
    final = ex.var("a")
    for k, want in ((0, SolveResult.UNSAT), (3, SolveResult.SAT)):
        enc = encode_unrolled(system, final, k)
        assert enc.template.width == 1
        status, solver = _load_and_solve(enc)
        assert status is want
        if status is SolveResult.SAT:
            trace = enc.extract_trace(solver.model_bits())
            assert trace.length == k
            trace.validate(system, final)
        inc = IncrementalBmc(system, final)
        assert inc.check_bound(k)[0] is want


@pytest.mark.parametrize("system", [
    # A cone reduced to nothing: no state, no inputs, W = 0.
    TransitionSystem([], ex.TRUE, ex.TRUE),
    # A TR without clauses.
    TransitionSystem(["a"], ~ex.var("a"), ex.TRUE),
], ids=["empty", "trivial-tr"])
def test_degenerate_frames(system):
    final = ex.var("a") if system.state_vars else ex.TRUE
    for k in range(4):
        want = SolveResult.SAT if k or not system.state_vars \
            else SolveResult.UNSAT
        enc = encode_unrolled(system, final, k)
        assert _load_and_solve(enc)[0] is want, k
        assert IncrementalBmc(system, final).check_bound(k)[0] is want, k


@pytest.mark.parametrize("instance", REPRESENTATIVES, ids=IDS)
def test_incremental_agrees_with_unroll(instance):
    system, final = instance.system, instance.final
    for pg in POLARITY:
        inc = IncrementalBmc(system, final, polarity_reduction=pg)
        for k in range(MAX_K + 1):
            status, trace, _ = inc.check_bound(k)
            enc = encode_unrolled(system, final, k, polarity_reduction=pg)
            want = _load_and_solve(enc)[0]
            assert status is want, (instance.name, k, pg)
            if status is SolveResult.SAT:
                assert trace.length == k
                trace.validate(system, final)
            else:
                inc.retire_bound(k)
