"""Tests for the RAPPID microarchitecture model and the clocked baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rappid import (
    ClockedConfig,
    ClockedDecoder,
    RappidConfig,
    RappidDecoder,
    WorkloadGenerator,
    compare_designs,
)
from repro.rappid.isa import (
    InstructionClass,
    LengthClass,
    decode_latency_ps,
    tag_latency_ps,
    validate_distribution,
)


class TestIsa:
    def test_distribution_sums_to_one(self):
        assert validate_distribution() == pytest.approx(1.0, abs=0.01)

    def test_common_lengths_have_fast_tag_path(self):
        assert tag_latency_ps(2) < tag_latency_ps(10)

    def test_complex_instructions_decode_slower(self):
        assert decode_latency_ps(2, InstructionClass.COMMON) < decode_latency_ps(
            9, InstructionClass.COMPLEX
        )


class TestWorkload:
    def test_reproducible_with_seed(self):
        a = WorkloadGenerator(seed=42).instructions(500)
        b = WorkloadGenerator(seed=42).instructions(500)
        assert [i.length for i in a] == [i.length for i in b]

    def test_instructions_are_contiguous(self):
        instructions = WorkloadGenerator(seed=1).instructions(200)
        offset = 0
        for instruction in instructions:
            assert instruction.start_byte == offset
            offset += instruction.length

    def test_cache_line_grouping(self):
        generator = WorkloadGenerator(seed=3)
        instructions, lines = generator.workload(300)
        assert sum(line.instruction_count for line in lines) == 300
        for line in lines:
            for instruction in line.instructions:
                assert instruction.line_index == line.index

    def test_statistics(self):
        generator = WorkloadGenerator(seed=5)
        instructions = generator.instructions(2000)
        stats = generator.statistics(instructions)
        assert 2.0 < stats["mean_length"] < 5.0
        assert stats["instructions_per_line"] > 3.0

    def test_negative_probability_rejected(self):
        """Bucket picks bisect the running sum, which must not decrease."""
        classes = [
            LengthClass(1, InstructionClass.COMMON, 1.1),
            LengthClass(2, InstructionClass.COMMON, -0.1),
        ]
        with pytest.raises(ValueError, match="non-negative"):
            WorkloadGenerator(length_classes=classes)

    def test_fixed_length_stream(self):
        generator = WorkloadGenerator(seed=0)
        instructions = generator.fixed_length_instructions(50, 4)
        assert all(i.length == 4 for i in instructions)

    @pytest.mark.parametrize("line_bytes", [8, 16, 32])
    def test_cache_line_grouping_honours_line_bytes(self, line_bytes):
        """Grouping, line count and statistics follow the configured geometry."""
        generator = WorkloadGenerator(seed=6, line_bytes=line_bytes)
        instructions, lines = generator.workload(400)
        assert sum(line.instruction_count for line in lines) == 400
        for line in lines:
            for instruction in line.instructions:
                assert instruction.line_of(line_bytes) == line.index
        last = instructions[-1]
        assert len(lines) * line_bytes >= last.start_byte + last.length
        stats = generator.statistics(instructions)
        assert stats["instructions_per_line"] == pytest.approx(
            line_bytes / stats["mean_length"]
        )

    def test_line_of_matches_line_index_for_default_geometry(self):
        for instruction in WorkloadGenerator(seed=8).instructions(100):
            assert instruction.line_of(16) == instruction.line_index

    def test_nondefault_geometry_runs_end_to_end(self):
        """RappidConfig(line_bytes=8/32) must simulate, not crash (the old
        16-byte hard-coding made max() see an empty line range)."""
        for line_bytes in (8, 32):
            generator = WorkloadGenerator(seed=4, line_bytes=line_bytes)
            instructions, lines = generator.workload(600)
            decoder = RappidDecoder(RappidConfig(line_bytes=line_bytes))
            result = decoder.run(instructions, lines)
            reference = decoder._reference_run(instructions, lines)
            assert result.issue_times_ps == reference.issue_times_ps
            assert result.total_time_ps > 0

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=99))
    @settings(max_examples=25, deadline=None)
    def test_property_line_packing(self, count, seed):
        generator = WorkloadGenerator(seed=seed)
        instructions, lines = generator.workload(count)
        assert len(instructions) == count
        assert sum(line.instruction_count for line in lines) == count
        # Every instruction's column is within the 16-byte line.
        assert all(0 <= i.column < 16 for i in instructions)


class TestRappidModel:
    def test_throughput_in_papers_range(self):
        generator = WorkloadGenerator(seed=1)
        instructions, lines = generator.workload(10_000)
        result = RappidDecoder().run(instructions, lines)
        assert 2.0 <= result.throughput_instructions_per_ns <= 5.0

    def test_cycle_domain_ordering(self):
        generator = WorkloadGenerator(seed=1)
        instructions, lines = generator.workload(10_000)
        result = RappidDecoder().run(instructions, lines)
        # Tag cycle is the fastest domain, length decoding the slowest
        # (Section 2.2: ~3.6 GHz / ~0.9 GHz / ~0.7 GHz).
        assert result.tag_rate_ghz > result.steering_rate_ghz
        assert result.steering_rate_ghz >= result.length_decode_rate_ghz

    def test_longer_instructions_are_consumed_faster_per_line(self):
        # Lines with fewer (longer) instructions are consumed faster than
        # lines packed with short instructions (Section 2.2).
        generator = WorkloadGenerator(seed=1)
        decoder = RappidDecoder()
        short = generator.fixed_length_instructions(4000, 2)
        long = generator.fixed_length_instructions(4000, 8)
        short_result = decoder.run(short, generator.cache_lines(short))
        long_result = decoder.run(long, generator.cache_lines(long))
        assert long_result.lines_per_second > short_result.lines_per_second

    def test_empty_workload(self):
        result = RappidDecoder().run([], [])
        assert result.instruction_count == 0
        assert result.throughput_instructions_per_ns == 0.0

    def test_scaling_rows_increases_throughput(self):
        generator = WorkloadGenerator(seed=2)
        instructions, lines = generator.workload(6_000)
        narrow = RappidDecoder(RappidConfig(rows=2)).run(instructions, lines)
        wide = RappidDecoder(RappidConfig(rows=6)).run(instructions, lines)
        assert wide.throughput_instructions_per_ns >= narrow.throughput_instructions_per_ns


class TestClockedBaseline:
    def test_throughput_bounded_by_issue_width(self):
        generator = WorkloadGenerator(seed=1)
        instructions, lines = generator.workload(10_000)
        config = ClockedConfig()
        result = ClockedDecoder(config).run(instructions, lines)
        peak = config.decoders_per_cycle / (config.period_ps / 1000.0)
        assert result.throughput_instructions_per_ns <= peak + 1e-6

    def test_higher_frequency_helps(self):
        generator = WorkloadGenerator(seed=1)
        instructions, lines = generator.workload(5_000)
        slow = ClockedDecoder(ClockedConfig(frequency_mhz=400)).run(instructions, lines)
        fast = ClockedDecoder(ClockedConfig(frequency_mhz=800)).run(instructions, lines)
        assert fast.throughput_instructions_per_ns > slow.throughput_instructions_per_ns

    def test_energy_scales_with_cycles(self):
        generator = WorkloadGenerator(seed=1)
        instructions, lines = generator.workload(2_000)
        result = ClockedDecoder().run(instructions, lines)
        assert result.energy_pj > result.cycles * ClockedConfig().clock_energy_per_cycle_pj * 0.9


class TestTable1Comparison:
    def test_ratios_match_paper_shape(self):
        comparison = compare_designs(instruction_count=8_000, seed=3)
        # Paper: throughput 3x, latency 2x, power 2x, area -22% (penalty).
        assert 2.0 <= comparison.throughput_ratio <= 4.5
        assert 1.3 <= comparison.latency_ratio <= 3.0
        assert 1.5 <= comparison.power_ratio <= 3.5
        assert 10.0 <= comparison.area_penalty_percent <= 40.0

    def test_describe_lists_all_rows(self):
        comparison = compare_designs(instruction_count=2_000, seed=1, testability_percent=95.0)
        text = comparison.describe()
        for keyword in ("Throughput", "Latency", "Power", "Area", "Testability"):
            assert keyword in text
        rows = comparison.rows()
        assert set(rows) >= {
            "throughput_ratio",
            "latency_ratio",
            "power_ratio",
            "area_penalty_percent",
        }
