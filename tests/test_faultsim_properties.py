"""Property tests for the extrapolation gate of the fault-sweep kernel.

The periodic-trajectory shortcut (``repro.engine.simkernel``'s period
hunt, armed by ``repro.engine.faultsim`` for fault copies) is exact
only when every event time is an integer-valued double (shifting the
queue by whole periods is then lossless) and no jitter is drawn (skipped
cycles would skip RNG draws).  These tests pin the two gate predicates:

* :func:`repro.engine.simkernel._exact_integer` accepts exactly the
  integers representable without rounding in a float64;
* any non-integral picosecond delay -- whether a stimulus time, a gate
  delay, an environment-rule delay, or a value *produced by jitter* --
  must stand the shortcut down, never silently round, and the campaign
  must stay bit-identical to the per-fault reference.

The hypothesis half draws values; the fixture half uses the seeded FIFO
corpus like the differential suite.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.analysis import fifo_environment_rules
from repro.circuit.library import GateType
from repro.circuit.netlist import Netlist
from repro.engine.faultsim import FaultSimEngine
from repro.engine.simkernel import _exact_integer
from repro.testability.faults import enumerate_faults
from repro.testability.simulation import (
    _reference_simulate_faults,
    campaign_signature,
    simulate_faults,
)


class TestExactInteger:
    @given(st.integers(min_value=-(2**53) + 1, max_value=2**53 - 1))
    @settings(max_examples=200, deadline=None)
    def test_every_representable_integer_is_exact(self, n):
        assert _exact_integer(float(n))

    @given(
        st.integers(min_value=-(2**30), max_value=2**30),
        st.floats(min_value=2.0**-20, max_value=1.0 - 2.0**-20),
    )
    @settings(max_examples=200, deadline=None)
    def test_fractional_values_are_never_exact(self, n, fraction):
        value = n + fraction
        # |n| <= 2**30 keeps ulp(n) well below the fraction, so the sum
        # cannot round back onto an integer; the predicate must reject.
        assert value != math.floor(value)
        assert not _exact_integer(value)

    def test_the_2_53_boundary_is_excluded(self):
        # Above 2**53 consecutive integers are no longer representable,
        # so "integer-valued" stops implying "exact" -- the predicate
        # cuts off at the boundary, on both signs.
        assert _exact_integer(2.0**53 - 1)
        assert _exact_integer(-(2.0**53) + 1)
        assert not _exact_integer(2.0**53)
        assert not _exact_integer(-(2.0**53))
        assert not _exact_integer(2.0**53 + 2)

    def test_non_finite_values_are_rejected_not_raised(self):
        for value in (math.inf, -math.inf, math.nan):
            assert not _exact_integer(value)

    def test_zero_and_negatives(self):
        assert _exact_integer(0.0)
        assert _exact_integer(-0.0)
        assert _exact_integer(-17.0)
        assert not _exact_integer(-17.5)


def _gate_open(sweep) -> bool:
    """The exact condition ``_drain`` uses to arm the snapshot hunt."""
    return sweep.integral_times and not sweep.jittered


def _tiny_netlist(delay_ps: float) -> Netlist:
    inv = GateType(
        name="INVX", num_inputs=1, eval_fn=lambda inputs, prev: 1 - inputs[0],
        transistors=2, delay_ps=delay_ps, energy_pj=0.1,
    )
    netlist = Netlist("tiny")
    netlist.add_primary_input("a")
    netlist.add_primary_output("y")
    netlist.add_gate("g", inv, ["a"], "y")
    return netlist


class TestExtrapolationGate:
    def _engine(self, fifo_rt, stimuli=(("li", 1, 50.0),), **kwargs):
        return FaultSimEngine(
            fifo_rt.netlist,
            fifo_environment_rules(),
            list(stimuli),
            duration_ps=8_000.0,
            **kwargs,
        )

    def test_integral_corpus_arms_the_shortcut(self, fifo_rt):
        engine = self._engine(fifo_rt)
        try:
            sweep = engine._sweep
            assert sweep.integral_times and not sweep.jittered
            assert _gate_open(sweep)
        finally:
            engine.close()

    @pytest.mark.parametrize("time", [50.5, 33.333, 0.1, 49.999999])
    def test_fractional_stimulus_time_disarms(self, fifo_rt, time):
        engine = self._engine(fifo_rt, stimuli=[("li", 1, time)])
        try:
            assert not engine._sweep.integral_times
            assert not _gate_open(engine._sweep)
        finally:
            engine.close()

    def test_fractional_gate_delay_disarms(self):
        engine = FaultSimEngine(
            _tiny_netlist(1.5), [], [("a", 1, 10.0)], duration_ps=1_000.0
        )
        try:
            assert not engine._sweep.integral_times
        finally:
            engine.close()
        integral = FaultSimEngine(
            _tiny_netlist(2.0), [], [("a", 1, 10.0)], duration_ps=1_000.0
        )
        try:
            assert integral._sweep.integral_times
        finally:
            integral.close()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delay_jitter": 0.05},
            {"environment_jitter": 0.25},
            {"delay_jitter": 0.05, "environment_jitter": 0.25},
        ],
    )
    def test_jitter_disarms_even_with_integral_nominals(self, fifo_rt, kwargs):
        """Jitter produces non-integral delays at *draw* time; the
        nominal tables stay integral, so the gate must key on the
        jittered flag, not on the tables."""
        engine = self._engine(fifo_rt, **kwargs)
        try:
            sweep = engine._sweep
            assert sweep.integral_times  # nominals untouched
            assert sweep.jittered
            assert not _gate_open(sweep)
        finally:
            engine.close()

    def test_seeded_fractional_perturbations_never_round(self, fifo_rt):
        """Across seeded random fractional stimulus offsets the flag is
        never rounded back on, and verdicts stay reference-identical
        (the sweep drains exactly instead of extrapolating)."""
        rng = random.Random(20260808)
        faults = list(enumerate_faults(fifo_rt.netlist))[:6]
        for _ in range(3):
            time = 50.0 + rng.uniform(2.0**-20, 1.0 - 2.0**-20)
            stimuli = [("li", 1, time)]
            engine = self._engine(fifo_rt, stimuli=stimuli)
            try:
                assert not engine._sweep.integral_times
            finally:
                engine.close()
            batch = simulate_faults(
                fifo_rt.netlist, fifo_environment_rules(), stimuli,
                faults=faults, duration_ps=8_000.0, use_processes=False,
            )
            reference = _reference_simulate_faults(
                fifo_rt.netlist, fifo_environment_rules(), stimuli,
                faults=faults, duration_ps=8_000.0,
            )
            assert campaign_signature(batch) == campaign_signature(reference)
