"""Complete (unbounded) verification via recurrence diameter."""

import random

import pytest

from repro.bmc import (longest_simple_path_reached, verify_unbounded)
from repro.bmc.frames import FrameStack, FrameTemplate
from repro.logic import expr as ex
from repro.models import counter, shift_register, traffic
from repro.system import (ExplicitOracle, TransitionSystem,
                          random_predicate, random_system)
from repro.system.model import primed
from repro.system.random_model import random_expr


def _longest_simple_path(oracle):
    """Explicit-state ground truth: the length of the longest loop-free
    path from an initial state (-1 when there is no initial state)."""
    best = -1
    for start in oracle.initial_states:
        stack = [(start, frozenset([start]), 0)]
        while stack:
            state, seen, length = stack.pop()
            best = max(best, length)
            for nxt in oracle.successors(state):
                if nxt not in seen:
                    stack.append((nxt, seen | {nxt}, length + 1))
    return best


def _relational_system(rng):
    """A random relational (possibly non-total, multi-initial) system."""
    names = ["a", "b", "c"]
    leaves = [ex.var(v) for v in names + [primed(v) for v in names]
              + ["i"]]
    return TransitionSystem(names, random_expr(rng, [ex.var(v) for v in
                                                     names], 2),
                            random_expr(rng, leaves, 3), input_vars=["i"])


class TestRecurrenceDiameter:
    def test_ring_longest_simple_path(self):
        system, _, _ = shift_register.make(4)
        # The deterministic ring has loop-free paths of length exactly 3.
        assert longest_simple_path_reached(system, 3) is False
        assert longest_simple_path_reached(system, 4) is True

    def test_k0_never_reached(self):
        system, _, _ = shift_register.make(3)
        assert longest_simple_path_reached(system, 0) is False


    @pytest.mark.parametrize("kind", ["circuit", "relational"])
    def test_incremental_stack_matches_explicit_oracle(self, kind):
        rng = random.Random(1331 if kind == "circuit" else 4049)
        depths = set()
        for trial in range(12):
            system = (random_system(rng, num_latches=3, num_inputs=1,
                                    depth=2)
                      if kind == "circuit" else _relational_system(rng))
            longest = _longest_simple_path(ExplicitOracle(system))
            depths.add(longest)
            # One persistent loop-free stack answers k = 0..6 ascending.
            stack = FrameStack(FrameTemplate(system), loop_free=True)
            for k in range(7):
                reached = longest_simple_path_reached(system, k,
                                                      stack=stack)
                assert reached is (k > longest), (trial, k, longest)
                assert stack.k == k
        # The sample discriminates: several distinct path lengths.
        assert len(depths) >= 3, depths

    def test_stack_rejects_descending_bounds(self):
        system, _, _ = shift_register.make(3)
        stack = FrameStack(FrameTemplate(system), loop_free=True)
        longest_simple_path_reached(system, 2, stack=stack)
        with pytest.raises(ValueError, match="ascend"):
            longest_simple_path_reached(system, 1, stack=stack)


class TestVerifyUnbounded:
    def test_safe_property(self):
        system, bad, _ = shift_register.make_invariant_violation(4)
        out = verify_unbounded(system, bad, method="jsat", max_bound=10)
        assert out.status == "safe"
        assert out.bound <= 4

    def test_counterexample_found_at_exact_depth(self):
        system, final, depth = counter.make(3, 5)
        out = verify_unbounded(system, final, method="jsat")
        assert out.status == "cex" and out.bound == depth
        out.result.trace.validate(system, final)

    def test_traffic_safety_closes(self):
        system, bad, _ = traffic.make_safety_check(1)
        out = verify_unbounded(system, bad, method="sat-unroll",
                               max_bound=32)
        assert out.status == "safe"

    def test_matches_oracle_on_random_systems(self):
        rng = random.Random(77)
        checked = 0
        for _ in range(12):
            system = random_system(rng, num_latches=3, num_inputs=1,
                                   depth=2)
            final = random_predicate(rng, system)
            oracle = ExplicitOracle(system)
            expected = oracle.shortest_distance(final)
            out = verify_unbounded(system, final, method="jsat",
                                   max_bound=20)
            if out.status == "unknown":
                continue
            checked += 1
            if expected is None:
                assert out.status == "safe"
            else:
                assert out.status == "cex" and out.bound == expected
        assert checked >= 10
