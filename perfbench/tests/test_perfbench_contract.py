"""BENCHMARK.json, the metric tables and the stored reference agree."""

import json
from pathlib import Path

from checks import config_key
from layers import METRICS
from run import UNITS
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def load(name):
    return json.loads((ROOT / name).read_text())


def test_benchmark_json_lists_the_printed_metrics():
    bench = load("BENCHMARK.json")
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in METRICS]
    assert max(bench["end_to_end"], key=lambda m: m["bound"])["bound"] == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")


def test_reference_covers_every_default_seed_output_but_the_p48_solves():
    reference = load("perfbench/reference.json")
    expected = set()
    for w in WORKLOADS.values():
        for op in w.ops_for_pass(DEFAULT_SEED, 0):
            if op.kind in ("evolve", "probe-uniqueness") or (
                    op.kind == "solve" and op.param("P") != 48):
                expected.add(config_key(op.config))
    assert set(reference) == expected
