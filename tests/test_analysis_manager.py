"""Tests for the analysis pass manager: caching, invalidation, identity.

The load-bearing properties pinned here:

* results are cached by *content* fingerprint, so repeat queries hit and
  content-equal netlists share entries;
* mutations invalidate exactly their dependents -- a topology mutation
  recomputes structural analyses, a value re-seed leaves topology-only
  analyses cached;
* immutable subjects (``CompiledNetlist``) cache by object identity in
  their own slot;
* a repeat fault campaign on an unmutated netlist constructs the
  ``CompiledNetlist`` exactly once (the compile-cache satellite of the
  analysis layer).
"""

import pytest

import repro.analysis as analysis
from repro.analysis import (
    AnalysisError,
    AnalysisPass,
    PassManager,
    StructureAnalysis,
)
from repro.circuit.library import STANDARD_LIBRARY
from repro.circuit.netlist import Netlist
from repro.circuit.simulator import HandshakeRule
from repro.engine.events import CompiledNetlist
from repro.engine.faultsim import FaultSimEngine
from repro.testability import enumerate_faults


def two_buffer_netlist(prefix: str = "n") -> Netlist:
    """PI -> BUF -> BUF -> PO, with ``prefix``-unique net names.

    Fingerprints are content-based and deliberately exclude the netlist
    *name*, so tests that must not share cache entries use distinct net
    names rather than distinct names.
    """
    netlist = Netlist(f"{prefix}_pipe")
    netlist.add_primary_input(f"{prefix}_a")
    netlist.add_primary_output(f"{prefix}_y")
    buf = STANDARD_LIBRARY.get("BUF")
    netlist.add_gate(f"{prefix}_g1", buf, [f"{prefix}_a"], f"{prefix}_m")
    netlist.add_gate(f"{prefix}_g2", buf, [f"{prefix}_m"], f"{prefix}_y")
    return netlist


class CountingPass(AnalysisPass):
    """Topology-aspect analysis that counts its own executions."""

    name = "counting"
    aspects = ("topology",)

    def __init__(self) -> None:
        self.runs = 0

    def run(self, subject, deps, **params):
        self.runs += 1
        return ("ran", self.runs)


class TestCaching:
    def test_repeat_query_hits_cache(self):
        manager = PassManager()
        manager.register(StructureAnalysis)
        netlist = two_buffer_netlist("cache1")
        first = manager.get(netlist, "structure")
        second = manager.get(netlist, "structure")
        assert first is second
        assert manager.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_content_equal_netlists_share_entries(self):
        manager = PassManager()
        manager.register(StructureAnalysis)
        one = two_buffer_netlist("twin")
        other = two_buffer_netlist("twin")
        other.name = "differently-named-twin"
        first = manager.get(one, "structure")
        second = manager.get(other, "structure")
        assert first is second
        assert manager.hits == 1

    def test_params_key_separate_entries(self):
        manager = PassManager()

        class Parametrised(AnalysisPass):
            name = "parametrised"
            aspects = ("topology",)

            def run(self, subject, deps, **params):
                return params["mode"]

        manager.register(Parametrised)
        netlist = two_buffer_netlist("params")
        assert manager.get(netlist, "parametrised", mode="a") == "a"
        assert manager.get(netlist, "parametrised", mode="b") == "b"
        assert manager.misses == 2 and manager.hits == 0

    def test_lru_eviction_bounds_entries(self):
        manager = PassManager(max_entries=2)
        manager.register(StructureAnalysis)
        subjects = [two_buffer_netlist(f"lru{i}") for i in range(3)]
        for subject in subjects:
            manager.get(subject, "structure")
        assert manager.stats()["entries"] == 2
        # The oldest entry was evicted: querying it again misses.
        manager.get(subjects[0], "structure")
        assert manager.misses == 4


class TestInvalidation:
    def test_topology_mutation_recomputes(self):
        manager = PassManager()
        counting = CountingPass()
        manager._passes["counting"] = counting
        netlist = two_buffer_netlist("mut")
        manager.get(netlist, "counting")
        netlist.add_gate(
            "mut_extra", STANDARD_LIBRARY.get("INV"), ["mut_m"], "mut_inv"
        )
        manager.get(netlist, "counting")
        assert counting.runs == 2

    def test_value_mutation_leaves_topology_analyses_cached(self):
        manager = PassManager()
        counting = CountingPass()
        manager._passes["counting"] = counting
        netlist = two_buffer_netlist("vals")
        manager.get(netlist, "counting")
        netlist.set_initial_value("vals_m", 1)
        manager.get(netlist, "counting")
        assert counting.runs == 1
        assert manager.hits == 1

    def test_value_mutation_invalidates_value_readers(self):
        manager = PassManager()

        class ValueReader(AnalysisPass):
            name = "value-reader"
            aspects = ("topology", "values")

            def run(self, subject, deps, **params):
                return dict(subject.initial_values())

        manager.register(ValueReader)
        netlist = two_buffer_netlist("vr")
        before = manager.get(netlist, "value-reader")
        netlist.set_initial_value("vr_m", 1)
        after = manager.get(netlist, "value-reader")
        assert before["vr_m"] == 0 and after["vr_m"] == 1
        assert manager.misses == 2

    def test_explicit_invalidate_drops_entries(self):
        manager = PassManager()
        manager.register(StructureAnalysis)
        netlist = two_buffer_netlist("inv")
        manager.get(netlist, "structure")
        assert manager.invalidate("structure") == 1
        assert manager.stats()["entries"] == 0
        assert manager.invalidate() == 0


class TestErrors:
    def test_unknown_analysis(self):
        manager = PassManager()
        with pytest.raises(AnalysisError, match="unknown analysis"):
            manager.get(two_buffer_netlist("unk"), "no-such-pass")

    def test_dependency_cycle_detected(self):
        manager = PassManager()

        class First(AnalysisPass):
            name = "first"
            depends = ("second",)
            aspects = ("topology",)

            def run(self, subject, deps, **params):
                return None

        class Second(AnalysisPass):
            name = "second"
            depends = ("first",)
            aspects = ("topology",)

            def run(self, subject, deps, **params):
                return None

        manager.register(First)
        manager.register(Second)
        with pytest.raises(AnalysisError, match="cycle"):
            manager.get(two_buffer_netlist("cyc"), "first")

    def test_unnamed_pass_rejected(self):
        manager = PassManager()

        class Nameless(AnalysisPass):
            def run(self, subject, deps, **params):
                return None

        with pytest.raises(AnalysisError, match="no name"):
            manager.register(Nameless)


class TestIdentityCaching:
    def test_compiled_netlist_caches_in_slot(self):
        netlist = two_buffer_netlist("ident")
        netlist.validate()
        compiled = CompiledNetlist(netlist)
        manager = analysis.default_manager()
        first = manager.get(compiled, "packed-fanout")
        second = manager.get(compiled, "packed-fanout")
        assert first is second
        # The entry lives on the object, not in the fingerprint cache.
        assert ("packed-fanout", ()) in compiled._analysis_cache

    def test_distinct_compiled_objects_do_not_share(self):
        netlist = two_buffer_netlist("ident2")
        netlist.validate()
        manager = analysis.default_manager()
        one = manager.get(CompiledNetlist(netlist), "packed-fanout")
        other = manager.get(CompiledNetlist(netlist), "packed-fanout")
        assert one == other
        assert one is not other


TOGGLE_RULES = [
    HandshakeRule("camp_y", 1, "camp_a", 0, 150.0),
    HandshakeRule("camp_y", 0, "camp_a", 1, 150.0),
]


class TestCampaignReuse:
    def test_repeat_campaign_compiles_once(self, monkeypatch):
        """Two identical campaigns construct one CompiledNetlist total."""
        import repro.analysis.compilecache as compilecache

        built = []
        real = CompiledNetlist

        def counting_compile(subject):
            built.append(subject)
            return real(subject)

        monkeypatch.setattr(compilecache, "CompiledNetlist", counting_compile)
        analysis.invalidate()
        netlist = two_buffer_netlist("camp")
        faults = enumerate_faults(netlist)
        campaigns = []
        for _ in range(2):
            engine = FaultSimEngine(
                netlist,
                TOGGLE_RULES,
                [("camp_a", 1, 50.0)],
                duration_ps=5_000.0,
            )
            campaigns.append(engine.run(faults))
            engine.close()
        assert campaigns[0] == campaigns[1]
        assert len(built) == 1

    @pytest.mark.parametrize(
        "prefix,jitter,misses",
        [
            ("free", (0.0, 0.0), 1),
            ("gates", (0.1, 0.0), 2),
            ("env", (0.0, 0.25), 2),
        ],
    )
    def test_golden_key_drops_the_seed_only_without_jitter(
        self, prefix, jitter, misses
    ):
        """A jitter-free campaign draws nothing: two seeds share one
        golden run.  Jittered campaigns keep one golden run per seed."""
        analysis.invalidate()
        netlist = two_buffer_netlist(prefix)
        rules = [
            HandshakeRule(f"{prefix}_y", 1, f"{prefix}_a", 0, 150.0),
            HandshakeRule(f"{prefix}_y", 0, f"{prefix}_a", 1, 150.0),
        ]
        # The golden run's own lookups (its compile dependency and the
        # packed fanout) are warm, so each query below counts exactly
        # one hit or one miss of its own.
        analysis.get(analysis.get(netlist, "compile"), "packed-fanout")
        signatures, deltas = [], []
        for seed in (3, 4):
            params = analysis.campaign_params(
                rules, [(f"{prefix}_a", 1, 50.0)], None, 5_000.0, 500_000,
                seed, *jitter,
            )
            before = analysis.stats()
            signatures.append(analysis.get(netlist, "golden-signature", **params))
            after = analysis.stats()
            deltas.append(after["misses"] - before["misses"])
        assert deltas[0] == 1
        assert sum(deltas) == misses
        if misses == 1:
            assert signatures[0] is signatures[1]
            assert signatures[0]["rng_state"] is None
        else:
            assert signatures[0]["rng_state"] != signatures[1]["rng_state"]

    def test_mutated_netlist_recompiles(self, monkeypatch):
        import repro.analysis.compilecache as compilecache

        built = []
        real = CompiledNetlist

        def counting_compile(subject):
            built.append(subject)
            return real(subject)

        monkeypatch.setattr(compilecache, "CompiledNetlist", counting_compile)
        analysis.invalidate()
        netlist = two_buffer_netlist("camp2")
        rules = [
            HandshakeRule("camp2_y", 1, "camp2_a", 0, 150.0),
            HandshakeRule("camp2_y", 0, "camp2_a", 1, 150.0),
        ]
        FaultSimEngine(
            netlist, rules, [("camp2_a", 1, 50.0)], duration_ps=5_000.0
        ).close()
        netlist.set_initial_value("camp2_m", 1)
        FaultSimEngine(
            netlist, rules, [("camp2_a", 1, 50.0)], duration_ps=5_000.0
        ).close()
        assert len(built) == 2
