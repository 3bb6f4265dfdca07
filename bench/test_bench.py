"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

POOLS = ("compute", "lines")


@pytest.fixture(scope="module", autouse=True)
def program():
    harness.fresh_import()


def _prepared(name: str, seed: int, tmp_path: Path) -> run.Workload:
    workload = run.Workload(name, seed, tmp_path / f"{name}-{seed}")
    workload.prepare()
    return workload


def _written(workload: run.Workload) -> list[bytes]:
    return [Path(item["path"]).read_bytes() for item in workload.inputs]


@pytest.mark.parametrize("name", POOLS)
def test_stored_pool_matches_generator(name):
    stored = gen.load_pool(name)
    fresh = gen.POOL_GENERATORS[name]()
    assert [(i["stratum"], i["variant"], i["input"]) for i in stored] == [
        (i["stratum"], i["variant"], i["input"]) for i in fresh
    ]
    assert all(item["stdout"].endswith("\n") for item in stored)


@pytest.mark.parametrize("name", POOLS)
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    first = _prepared(name, 7, tmp_path / "a")
    again = _prepared(name, 7, tmp_path / "b")
    other = _prepared(name, 8, tmp_path / "c")
    assert _written(first) == _written(again)
    assert first.line_stats() == again.line_stats()
    assert sorted(_written(first)) != sorted(_written(other))


@pytest.mark.parametrize("name", POOLS)
def test_relabelled_inputs_keep_counts_and_give_the_stored_outputs(name, tmp_path):
    workload = _prepared(name, 11, tmp_path)
    from curvespec.arrangement import graph_from_dict

    for item in workload.inputs:
        stored = next(p for p in gen.load_pool(name) if p["stratum"] == item["stratum"] and p["variant"] == item["variant"])
        if name == "lines":
            assert gen.line_stats(gen.form_pairs(item["input"])) == stored["stats"]
        else:
            d, types = gen.arrangement_point_types(graph_from_dict(item["input"]))
            d0, types0 = gen.arrangement_point_types(graph_from_dict(stored["input"]))
            assert (d, sorted(types)) == (d0, sorted(types0))
    outcome = run.Outcome()
    outcome.run(workload.trace_units())
    assert outcome.failures == [] and len(outcome.seconds) == len(gen.load_pool(name))


def test_check_seeds_follow_the_workload_seed_in_the_stream_shares():
    take = lambda seed, n: list(islice(gen.check_seeds(seed), n))  # noqa: E731
    assert take(3, 50) == take(3, 50)
    assert not set(take(3, 50)) & set(take(4, 50))
    shares = gen.check_stratum_shares()
    assert sum(shares.values()) == pytest.approx(1)
    rng = gen.Rng(99)
    stream = Counter(gen.check_stratum(rng.next_u64()) for _ in range(50000))
    assert all(abs(stream[key] / 50000 - share) < 0.004 for key, share in shares.items())
    served = Counter(gen.check_stratum(s) for s in take(5, 1000))
    assert all(abs(served[key] - 1000 * share) <= 1 for key, share in shares.items())


def test_check_stratum_reads_the_generator_draws():
    from curvespec.randomgraphs import SplitMix64, generate_graph

    for seed in range(200):
        graph = generate_graph(SplitMix64(seed))
        d = sum(c.degree * c.multiplicity for c in graph.components)
        assert gen.check_stratum(seed) == (len(graph.points), min(d // 8, 5))


def test_line_incidence_counts_concurrent_points():
    # x, y, x - y and x + y all pass through (0:0:1); z meets each once more.
    forms = [([1, 0, 0], 1), ([0, 1, 0], 1), ([1, -1, 0], 1), (["1/2", "1/2", 0], 2), ([0, 0, 1], 1), ([2, 0, 0], 1)]
    lines, mults, through = gen.line_incidence(forms)
    assert len(lines) == 5 and mults == [2, 1, 1, 2, 1]
    assert sorted(len(idx) for idx in through.values()) == [2, 2, 2, 2, 4]
    assert gen.line_stats(forms) == {"lines": 5, "pairs": 10, "points": 5}


def _traced_counts(workload: run.Workload) -> tuple[dict, list[str]]:
    tracer = Tracer()
    outcome = run.Outcome()
    tracer.install()
    try:
        outcome.run(workload.trace_units()[:6])
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(6)
    return {k: v for k, v in metrics.items() if not k.endswith("ms")}, outcome.failures


@pytest.mark.parametrize("name", ("check", "compute", "lines"))
def test_traced_counts_repeat_exactly_and_outputs_stay_correct(name, tmp_path):
    first, failures = _traced_counts(_prepared(name, 5, tmp_path / "a"))
    again, _ = _traced_counts(_prepared(name, 5, tmp_path / "b"))
    assert failures == []
    assert first == again
    assert first["formulas.point_steps"] > 0 and first["cli.main.calls"] == 1


def test_uninstall_restores_every_binding():
    cli = sys.modules["curvespec.cli"]
    cohomology = sys.modules["curvespec.cohomology"]
    before = (cli.main, cli.spectrum_general, cli._FORMULAS["general"], cohomology.CohClass.__mul__)
    tracer = Tracer()
    tracer.install()
    assert cli.spectrum_general is not before[1]
    assert cli._FORMULAS["general"] is cli.spectrum_general
    assert sys.modules["curvespec.formulas"].spectrum_general is cli.spectrum_general
    tracer.uninstall()
    assert (cli.main, cli.spectrum_general, cli._FORMULAS["general"], cohomology.CohClass.__mul__) == before


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == {"check", "compute", "lines"}
    record = json.loads((Path(__file__).resolve().parent / "predictions.json").read_text())
    assert set(record["workloads"]) == {w["name"] for w in spec["workloads"]}
    predicted = [name for row in record["predictions"] for name in row["metrics"]]
    assert sorted(predicted) == sorted(name for name, _ in run.PER_LAYER)


def test_without_program_exits_2_and_prints_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness, "SRC", tmp_path)
    monkeypatch.setattr(harness, "WORK_DIR", tmp_path / "work")
    assert run.main(["--workload", "compute", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
