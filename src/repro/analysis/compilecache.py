"""Compilation artifacts as cached analyses.

``"compile"`` turns a :class:`~repro.circuit.netlist.Netlist` into its
:class:`~repro.engine.events.CompiledNetlist` through the pass manager,
so repeat campaigns (or any two content-equal netlists) share one
truth-table enumeration instead of recompiling per call site.

``"golden-signature"`` caches a fault-simulation campaign's fault-free
run -- observable finals/counts, the processed event count, each net's
first commit time, and (under jitter) the final RNG states -- keyed by
the netlist fingerprints plus the campaign configuration (the seed only
when jitter draws from it), so a repeat campaign skips the golden run as
well as the compile.

Cache-key soundness: the topology fingerprint includes ``id(eval_fn)``
per gate type.  A cached ``CompiledNetlist`` holds the gate instances
(and through them the gate types and ``eval_fn`` callables), so while an
entry lives no new callable can be allocated at a fingerprinted id --
the entry itself pins the ids it is keyed by.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.analysis.manager import AnalysisPass
from repro.engine.events import CompiledNetlist


def campaign_params(
    environment_rules,
    initial_stimuli,
    observables,
    duration_ps,
    max_events: int,
    seed: int,
    delay_jitter: float,
    environment_jitter: float,
) -> Dict[str, Any]:
    """Hashable campaign configuration, shared by the campaign-keyed analyses.

    Rules and stimuli arrive as rich objects (:class:`HandshakeRule`
    dataclasses, tuples); everything is flattened to plain tuples so two
    equal configurations key identically.
    """
    # A net only ever takes 0 or 1, and HandshakeEnvironment matches the
    # trigger value with ``==``: any other value is kept as -1, which the
    # rule compiler never fires.
    rules = tuple(
        (
            rule.trigger,
            1 if rule.trigger_value == 1 else 0 if rule.trigger_value == 0 else -1,
            rule.target,
            int(bool(rule.target_value)),
            float(rule.delay_ps),
        )
        for rule in environment_rules
    )
    stimuli = tuple(
        (net, int(bool(value)), float(time))
        for net, value, time in initial_stimuli
    )
    return {
        "rules": rules,
        "stimuli": stimuli,
        "observables": None if observables is None else tuple(observables),
        "duration_ps": None if duration_ps is None else float(duration_ps),
        "max_events": int(max_events),
        "seed": int(seed),
        "delay_jitter": float(delay_jitter),
        "environment_jitter": float(environment_jitter),
    }


class CompileAnalysis(AnalysisPass):
    """``Netlist`` -> validated ``CompiledNetlist`` (both aspects)."""

    name = "compile"
    aspects = ("topology", "values")

    def run(self, subject: Any, deps: Dict[str, Any], **params: Any) -> CompiledNetlist:
        subject.validate()
        return CompiledNetlist(subject)


class GoldenSignatureAnalysis(AnalysisPass):
    """Fault-free campaign run: signature, event count, RNG states.

    Parameterised by the campaign configuration (see
    :func:`campaign_params`); a jitter-free campaign draws nothing, so
    its key ignores the seed.  The result dict carries exactly what
    :class:`~repro.engine.faultsim._FaultSweep` needs to skip its golden
    run: ``finals``/``counts`` (the observable signature), ``events``
    (the golden processed-event count, consumed by the event-cap
    shortcut and the collapse plan), ``rng_state`` (the final simulator
    / environment RNG pair under jitter, ``None`` otherwise), and
    ``first_commits`` (each net's first commit time, from which every
    fault copy's fork time follows).

    A golden run that raises (oscillating fault-free circuit, unknown
    rule target) is a campaign setup error: the exception propagates and
    nothing is cached, exactly like the uncached path.
    """

    name = "golden-signature"
    depends = ("compile",)
    aspects = ("topology", "values")

    def param_key(self, **params: Any) -> Tuple:
        if params["delay_jitter"] == params["environment_jitter"] == 0:
            # No draw ever happens: the trajectory, and with it every
            # field of the result, is the same for every seed.
            params["seed"] = None
        return tuple(sorted(params.items()))

    def run(self, subject: Any, deps: Dict[str, Any], **params: Any) -> Dict[str, Any]:
        from repro.engine.faultsim import build_sweep

        return build_sweep(subject, deps["compile"], params).golden_record()
