"""Latency harness: scenario coverage and report shape (not the ratios;
those depend on the DMA cost model and are asserted in the acceptance run)."""

import re
import tempfile

from teefab.bench import (
    DEFAULT_NS_PER_BYTE,
    DEFAULT_NS_PER_OP,
    DEFAULT_REPETITIONS,
    run_bench,
)

SCENARIOS = ("cold_open", "warm_open", "invoke_raw", "invoke_shm", "close")


def test_report_structure(tmp_path):
    report = run_bench(repetitions=3, per_byte_ns=0, per_op_ns=0, seed=9,
                       storage_dir=str(tmp_path / "bench-store"))
    assert report.repetitions == 3
    assert set(report.results) == set(SCENARIOS)
    for name in SCENARIOS:
        result = report.results[name]
        assert result.count == 3
        assert len(result.samples_ns) == 3
        assert result.min_ns <= result.mean_ns <= result.max_ns
        assert result.min_ns > 0
    assert report.cold_over_warm > 0
    assert report.shm_over_raw > 0


def test_machine_lines_parse(tmp_path):
    report = run_bench(repetitions=2, per_byte_ns=0, per_op_ns=0, seed=9,
                       storage_dir=str(tmp_path / "bench-store"))
    lines = report.machine_lines()
    scenario_re = re.compile(
        r"^scenario=(\w+) n=(\d+) mean_ns=(\d+) min_ns=(\d+) max_ns=(\d+)$")
    seen = {}
    for line in lines[:len(SCENARIOS)]:
        match = scenario_re.match(line)
        assert match, line
        seen[match.group(1)] = int(match.group(3))
    assert set(seen) == set(SCENARIOS)
    ratio_re = re.compile(r"^ratio=(\w+) value=([0-9.]+) floor=([0-9.]+)$")
    ratios = dict()
    for line in lines[len(SCENARIOS):]:
        match = ratio_re.match(line)
        assert match, line
        ratios[match.group(1)] = float(match.group(2))
    assert set(ratios) == {"cold_over_warm", "shm_over_raw"}


def test_render_text_mentions_everything(tmp_path):
    report = run_bench(repetitions=2, per_byte_ns=0, per_op_ns=0, seed=9,
                       storage_dir=str(tmp_path / "bench-store"))
    text = report.render_text()
    for name in SCENARIOS:
        assert name in text
    assert "cold_over_warm" in text and "shm_over_raw" in text


def test_defaults_are_the_acceptance_settings():
    assert DEFAULT_REPETITIONS == 100
    assert DEFAULT_NS_PER_BYTE == 1000
    assert DEFAULT_NS_PER_OP == 50000


def test_a_run_without_a_storage_dir_leaves_nothing_behind(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    run_bench(repetitions=1, per_byte_ns=0, per_op_ns=0, seed=9)
    assert list(tmp_path.iterdir()) == []
