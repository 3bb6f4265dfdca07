import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import curvespec.cli
import curvespec.formulas
import curvespec.lines
import curvespec.riemann_roch
from curvespec.arrangement import ArrangementGraph, derived, graph_to_dict, load_arrangement
from curvespec.cli import build_parser, main
from curvespec.cohomology import ONE, CohClass
from curvespec.formulas import spectrum_general, spectrum_hyperplane
from curvespec.lines import incidence_graph
from curvespec.randomgraphs import GraphBounds, SplitMix64, generate_graph
from curvespec.spectrum import Spectrum, format_spectrum

from conftest import (
    ARRANGEMENT_NUMBERS,
    MUTANT_VALUES,
    SMALL_ARRANGEMENT,
    line_and_nodal_cubic,
    manifest_generator,
    mutated,
    random_line_forms,
    two_line_powers,
)

NODAL_CUBIC = {
    "components": [{"id": "c", "degree": 3}],
    "points": [{"id": "v", "branches": [{"component": "c", "mult": 2}]}],
}
DOUBLE_LINES = {
    "components": [
        {"id": "a", "degree": 1, "multiplicity": 2},
        {"id": "b", "degree": 1, "multiplicity": 2},
    ],
    "points": [
        {"id": "v", "branches": [{"component": "a"}, {"component": "b"}]}
    ],
}
CONCURRENT_LINES = {
    "components": [{"id": "a", "degree": 1}, {"id": "b", "degree": 1}, {"id": "c", "degree": 1}],
    "points": [
        {"id": "v", "branches": [{"component": "a"}, {"component": "b"}, {"component": "c"}]}
    ],
}
CONIC_AND_SECANT = {
    "components": [{"id": "q", "degree": 2}, {"id": "l", "degree": 1}],
    "points": [
        {"id": "v1", "branches": [{"component": "q"}, {"component": "l"}]},
        {"id": "v2", "branches": [{"component": "q"}, {"component": "l"}]},
    ],
}
TRIANGLE_LINES = [
    {"form": [1, 0, 0]},
    {"form": [0, 1, 0]},
    {"form": [0, 0, 1]},
]


DEGREE_BOUNDS_ERROR = "error: max_components * max_degree * max_mult exceeds the total degree limit 100000\n"


def corrupt_rows(monkeypatch):
    """Shift every n0 coefficient of the closed formulas by j: the general,
    reduced, single-curve power and binary displays then agree with one
    another and disagree with the characteristic-class pipeline."""
    assemble = curvespec.formulas._three_level_spectrum
    monkeypatch.setattr(
        curvespec.formulas,
        "_three_level_spectrum",
        lambda d, n0, n1, n2: assemble(d, [n + j for j, n in enumerate(n0, 1)], n1, n2),
    )


def line_entries(forms):
    """A line file's entries for (form, multiplicity) pairs: integers stay
    integers, other rationals become "p/q" strings."""
    return [{"form": [x if type(x) is int else str(x) for x in raw], "multiplicity": m} for raw, m in forms]


def arrangement_file(tmp_path, doc):
    path = tmp_path / "arrangement.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def lines_file(tmp_path, doc):
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestStoredBenchmarkInputs:
    """The stored `compute` and `lines` inputs of the benchmark, each run
    once with --verify: the characteristic-class route must agree with the
    printed spectrum, which must be the stored one."""

    @pytest.mark.parametrize("command", ["compute", "lines"])
    def test_verify_prints_the_stored_stdout(self, tmp_path, capsys, command):
        data = Path(__file__).resolve().parent.parent / "bench" / "data" / f"{command}.json"
        items = json.loads(data.read_text(encoding="utf-8"))["items"]
        assert len(items) == {"compute": 96, "lines": 35}[command]
        for index, item in enumerate(items):
            path = tmp_path / f"{command}-{index}.json"
            path.write_text(json.dumps(item["input"]), encoding="utf-8")
            code = main([command, str(path), "--verify"])
            assert (code, *capsys.readouterr()) == (0, item["stdout"], ""), index


class TestCliManifest:
    """Every call of tests/data/make_cli_manifest.py gives the exit code and
    the stdout and stderr digests that tests/data/cli_manifest.json records:
    a refactor keeps the CLI's bytes, and a change that means to move them
    regenerates the manifest."""

    def test_every_call_matches_the_manifest(self, tmp_path, monkeypatch):
        make = manifest_generator()
        manifest = json.loads(make.MANIFEST.read_text(encoding="utf-8"))
        counts = make.write_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        replayed: dict[str, set] = {}
        for argv in make.calls(counts):
            group, rest = make.split(argv)
            assert make.run(argv) == manifest.get(group, {}).get(rest), " ".join(argv)
            replayed.setdefault(group, set()).add(rest)
        assert replayed == {group: set(entries) for group, entries in manifest.items()}


class TestCompute:
    def test_plain_output(self, tmp_path, capsys):
        assert main(["compute", arrangement_file(tmp_path, NODAL_CUBIC)]) == 0
        assert capsys.readouterr().out == "t + 2*t^(4/3) + 2*t^(5/3)\n"

    def test_latex_output(self, tmp_path, capsys):
        doc = graph_to_dict(line_and_nodal_cubic())
        code = main(["compute", arrangement_file(tmp_path, doc), "--style", "latex"])
        assert code == 0
        assert capsys.readouterr().out == "2t+2t^{5/4}+2t^{3/2}+2t^{7/4}-t^{2}\n"

    def test_json_output(self, tmp_path, capsys):
        code = main(["compute", arrangement_file(tmp_path, NODAL_CUBIC), "--style", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == [
            {"alpha": "1", "n": 1},
            {"alpha": "4/3", "n": 2},
            {"alpha": "5/3", "n": 2},
        ]

    @pytest.mark.parametrize("formula", ["auto", "general", "reduced"])
    def test_applicable_formulas_agree(self, tmp_path, capsys, formula):
        path = arrangement_file(tmp_path, NODAL_CUBIC)
        assert main(["compute", path, "--formula", formula]) == 0
        assert capsys.readouterr().out == "t + 2*t^(4/3) + 2*t^(5/3)\n"

    def test_smooth_formula_on_simple_branches(self, tmp_path, capsys):
        doc = graph_to_dict(two_line_powers(2, 3))
        path = arrangement_file(tmp_path, doc)
        assert main(["compute", path, "--formula", "smooth"]) == 0
        smooth_out = capsys.readouterr().out
        assert main(["compute", path, "--formula", "general"]) == 0
        assert capsys.readouterr().out == smooth_out

    def test_verify_passes(self, tmp_path, capsys):
        path = arrangement_file(tmp_path, DOUBLE_LINES)
        assert main(["compute", path, "--verify"]) == 0
        assert capsys.readouterr().out == "-t^(3/2) - t^2 + t^(5/2)\n"

    def test_verify_catches_corrupted_formula(self, tmp_path, capsys, monkeypatch):
        corrupt_rows(monkeypatch)
        code = main(["compute", arrangement_file(tmp_path, NODAL_CUBIC), "--verify"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("mismatch:")

    @pytest.mark.parametrize(
        "doc",
        [NODAL_CUBIC, CONCURRENT_LINES, CONIC_AND_SECANT],
        ids=["nodal-cubic", "lines", "smooth-branches"],
    )
    def test_auto_cross_checks_reduced_input(self, tmp_path, capsys, monkeypatch, doc):
        general = curvespec.formulas.spectrum_of_point_types
        monkeypatch.setattr(
            curvespec.formulas,
            "spectrum_of_point_types",
            lambda summary: general(summary) + curvespec.formulas.Spectrum.term(1),
        )
        code = main(["compute", arrangement_file(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("mismatch: auto-dispatched general formula")

    def test_verify_mismatch_names_the_first_difference(self, tmp_path, capsys, monkeypatch):
        corrupt_rows(monkeypatch)
        assert main(["compute", arrangement_file(tmp_path, NODAL_CUBIC), "--verify"]) == 3
        assert capsys.readouterr() == (
            "",
            "mismatch: characteristic-class pipeline disagrees: first difference at t^(1/3): 1 vs 0\n",
        )

    def test_auto_mismatch_names_the_first_difference(self, tmp_path, capsys, monkeypatch):
        general = curvespec.formulas.spectrum_of_point_types
        monkeypatch.setattr(
            curvespec.formulas,
            "spectrum_of_point_types",
            lambda summary: general(summary) + curvespec.formulas.Spectrum.term(1),
        )
        assert main(["compute", arrangement_file(tmp_path, NODAL_CUBIC)]) == 3
        assert capsys.readouterr() == (
            "",
            "mismatch: auto-dispatched general formula disagrees with the reduced formula: "
            "first difference at t^(1): 2 vs 1\n",
        )

    def test_inapplicable_formula_is_a_data_error(self, tmp_path, capsys):
        path = arrangement_file(tmp_path, DOUBLE_LINES)
        assert main(["compute", path, "--formula", "reduced"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_many_invalid_points_are_rejected_quickly(self, tmp_path, capsys):
        doc = {
            "components": [{"id": "c", "degree": 3}],
            "points": [{"id": f"v{i}", "branches": [{"component": "ghost"}]} for i in range(20_000)],
        }
        path = arrangement_file(tmp_path, doc)
        start = time.perf_counter()
        assert main(["compute", path]) == 2
        elapsed = time.perf_counter() - start
        assert capsys.readouterr().err.count("[unknown-component]") == 20_000
        assert elapsed < 10.0

    def test_total_degree_limit(self, tmp_path, capsys):
        doc = {"components": [{"id": "c", "degree": 3, "multiplicity": 100_000_000}]}
        assert main(["compute", arrangement_file(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [total-degree-too-large] components:")

    def test_total_degree_too_long_to_print(self, tmp_path, capsys):
        doc = {"components": [{"id": "c", "degree": 10**4000, "multiplicity": 10**4000}]}
        assert main(["compute", arrangement_file(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error [total-degree-too-large] components: total degree 1{'0' * 76}... exceeds the limit 100000\n"
        )

    def test_invalid_arrangement(self, tmp_path, capsys):
        doc = {
            "components": [{"id": "c", "degree": 3}],
            "points": [{"id": "v", "branches": [{"component": "ghost"}]}],
        }
        assert main(["compute", arrangement_file(tmp_path, doc)]) == 2
        assert "[unknown-component]" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["compute", str(tmp_path / "absent.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unparseable_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["compute", str(path)]) == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"components": [{"id": "c", "degree": 3, "color": "red"}]},
            {"components": [{"id": "c", "degree": 3.0}]},
            {"components": [{"id": "c", "degree": True}]},
            {"components": "c"},
        ],
    )
    def test_schema_violations_are_format_errors(self, tmp_path, capsys, doc):
        assert main(["compute", arrangement_file(tmp_path, doc)]) == 1

    def test_list_in_place_of_a_branch_is_one_format_error_line(self, tmp_path, capsys):
        doc = {"components": [{"id": "c", "degree": 3}], "points": [{"id": "v", "branches": [["c", 2]]}]}
        assert main(["compute", arrangement_file(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: points[0].branches[0] must be an object\n"


class TestCheck:
    def test_zero_count(self, capsys):
        assert main(["check", "--count", "0"]) == 0
        assert capsys.readouterr().out == "0/0 ok\n"

    def test_small_run_passes(self, capsys):
        assert main(["check", "--count", "25", "--seed", "0"]) == 0
        assert capsys.readouterr().out == "25/25 ok\n"

    def test_deterministic_per_seed(self, capsys):
        main(["check", "--count", "10", "--seed", "9"])
        first = capsys.readouterr()
        main(["check", "--count", "10", "--seed", "9"])
        assert capsys.readouterr() == first

    def test_bounds_flags(self, capsys):
        code = main(
            [
                "check",
                "--count",
                "10",
                "--max-components",
                "2",
                "--max-points",
                "2",
                "--max-degree",
                "2",
                "--max-mult",
                "1",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "10/10 ok\n"

    def test_total_degree_limit(self, capsys):
        # Bounds that could draw a graph above the total degree limit are
        # refused before any graph is drawn, whatever the seed.
        huge = str(10**9)
        code = main(["check", "--count", "1", "--max-degree", huge, "--max-mult", huge])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == DEGREE_BOUNDS_ERROR

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-points", str(10**12)], "error: max_points exceeds the limit 1000\n"),
            (["--max-components", str(10**12)], "error: max_components exceeds the limit 1000\n"),
            (["--count", "-3"], "error: count must not be negative\n"),
            (["--max-degree", "1000000"], DEGREE_BOUNDS_ERROR),
            (["--max-components", "5", "--max-degree", "5001", "--max-mult", "4"], DEGREE_BOUNDS_ERROR),
        ],
    )
    def test_unbounded_runs_are_rejected_before_drawing(self, capsys, flags, message):
        start = time.perf_counter()
        code = main(["check", "--count", "1", "--seed", "0", *flags])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message
        assert elapsed < 1.0

    def test_corrupted_formula_is_caught_and_reported(self, capsys, monkeypatch):
        corrupt_rows(monkeypatch)
        assert main(["check", "--count", "3", "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "0/3 ok\n"
        assert "general vs characteristic-class pipeline" in captured.err
        dumps = [line for line in captured.err.splitlines() if line.startswith("{")]
        assert dumps
        for line in dumps:
            assert "components" in json.loads(line)

    def test_corrupted_characteristic_class_layout_is_caught(self, capsys, monkeypatch):
        # The RR twin of corrupt_rows: shift chi_1 by one at j = 1.
        pairing = curvespec.riemann_roch._euler_characteristics

        def corrupted(summary):
            for j, (chi0, chi1, chi2) in pairing(summary):
                yield j, [chi0, chi1 + 1 if j == 1 else chi1, chi2]

        monkeypatch.setattr(curvespec.riemann_roch, "_euler_characteristics", corrupted)
        assert main(["check", "--count", "1", "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "0/1 ok\n"
        assert "general vs characteristic-class pipeline" in captured.err

    def test_failure_lines_name_the_first_difference(self, capsys, monkeypatch):
        rr = curvespec.cli.spectrum_via_riemann_roch
        monkeypatch.setattr(
            curvespec.cli,
            "spectrum_via_riemann_roch",
            lambda g: rr(g) + Spectrum.term(Fraction(-1, 2)) - Spectrum.term(3),
        )
        assert main(["check", "--count", "2", "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "0/2 ok\n"
        labels = [line for line in captured.err.splitlines() if not line.startswith("{")]
        assert labels == [
            f"instance {i}: general vs characteristic-class pipeline: first difference at t^(-1/2): 0 vs 1"
            for i in range(2)
        ]

    def test_first_difference_at_a_shared_exponent(self, capsys, monkeypatch):
        rr = curvespec.cli.spectrum_via_riemann_roch
        monkeypatch.setattr(curvespec.cli, "spectrum_via_riemann_roch", lambda g: rr(g) - Spectrum.term(2))
        assert main(["check", "--count", "1", "--seed", "1"]) == 3
        n = spectrum_general(generate_graph(SplitMix64(1), GraphBounds())).coefficient(2)
        assert n != 0
        assert capsys.readouterr().err.splitlines()[0] == (
            f"instance 0: general vs characteristic-class pipeline: first difference at t^(2): {n} vs {n - 1}"
        )

    def test_topological_failure_line(self, capsys, monkeypatch):
        chi = curvespec.cli.complement_euler_characteristic
        monkeypatch.setattr(curvespec.cli, "complement_euler_characteristic", lambda g: chi(g) + 1)
        assert main(["check", "--count", "1", "--seed", "1"]) == 3
        g = generate_graph(SplitMix64(1), GraphBounds())
        total = spectrum_general(g).eval_at_one()
        d = derived(g).total_degree
        assert capsys.readouterr().err.splitlines()[0] == (
            f"instance 0: general vs topological Euler characteristic: value at t = 1: {total} vs {total + d}"
        )


class TestLines:
    def test_triangle(self, tmp_path, capsys):
        assert main(["lines", lines_file(tmp_path, TRIANGLE_LINES)]) == 0
        assert capsys.readouterr().out == "t - 2*t^2\n"

    def test_pencil_latex(self, tmp_path, capsys):
        doc = [
            {"form": [1, 0, 0]},
            {"form": [0, 1, 0]},
            {"form": [1, 1, 0]},
        ]
        assert main(["lines", lines_file(tmp_path, doc), "--style", "latex"]) == 0
        assert capsys.readouterr().out == "-t^{5/3}-2t^{2}-t^{7/3}\n"

    def test_emit_graph_round_trips(self, tmp_path, capsys):
        doc = [
            {"form": [1, 0, 0], "multiplicity": 2},
            {"form": [0, 1, 0], "multiplicity": 2},
        ]
        emitted = tmp_path / "derived.json"
        code = main(
            ["lines", lines_file(tmp_path, doc), "--emit-graph", str(emitted)]
        )
        assert code == 0
        spectrum_line = capsys.readouterr().out
        assert spectrum_line == "-t^(3/2) - t^2 + t^(5/2)\n"
        assert load_arrangement(str(emitted)) == two_line_powers(2, 2)
        assert main(["compute", str(emitted)]) == 0
        assert capsys.readouterr().out == spectrum_line

    def test_zero_form_is_a_data_error(self, tmp_path, capsys):
        doc = [{"form": [0, 0, 0]}]
        assert main(["lines", lines_file(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_file(self, tmp_path, capsys):
        doc = [{"form": [1, 0, 0], "multiplicity": "two"}]
        assert main(["lines", lines_file(tmp_path, doc)]) == 1

    @pytest.mark.parametrize(
        "doc, code, err",
        [
            (
                [{"form": [0, 0, 0]}, {"form": [1.5, 0, 0]}],
                1,
                "error: entry 1, coefficient 0 must be an integer or 'p/q' string, got 1.5\n",
            ),
            ([{"form": ["0", "0/3", 0]}, {"form": [1, 0, 0]}], 2, "error: all three coefficients are zero\n"),
            (
                [{"form": ["1/2", 0, 0]}, {"form": [0, 1, 0], "multiplicity": "x"}],
                1,
                "error: entry 1: multiplicity must be an integer, got 'x'\n",
            ),
        ],
        ids=["coefficient-before-zero-form", "zero-form-after-schema", "multiplicity-after-coefficients"],
    )
    def test_error_precedence(self, tmp_path, capsys, doc, code, err):
        # The whole file passes the schema check before a zero form is
        # reported; within an entry, coefficients come before multiplicity.
        assert main(["lines", lines_file(tmp_path, doc)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err

    def test_each_coefficient_is_converted_once(self, tmp_path, capsys, monkeypatch):
        to_fraction = curvespec.lines._to_fraction
        calls = []

        def counted(*args):
            calls.append(args[0])
            return to_fraction(*args)

        monkeypatch.setattr(curvespec.lines, "_to_fraction", counted)
        doc = [{"form": ["2", "0", "0"]}, {"form": ["0", "1/2", "0"]}, {"form": ["0", "0", "-3/4"]}]
        assert main(["lines", lines_file(tmp_path, doc)]) == 0
        assert capsys.readouterr().out == "t - 2*t^2\n"
        assert calls == ["2", "0", "0", "0", "1/2", "0", "0", "0", "-3/4"]

    def test_missing_file(self, tmp_path):
        assert main(["lines", str(tmp_path / "absent.json")]) == 1

    def test_total_degree_limit(self, tmp_path, capsys):
        doc = [{"form": [1, 0, 0], "multiplicity": 100_000_000}, {"form": [0, 1, 0]}]
        assert main(["lines", lines_file(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [total-degree-too-large] components:")

    def test_invalid_data_is_rejected_before_incidence(self, tmp_path, capsys):
        # 100 001 distinct lines: the pair loop alone would take hours.
        doc = [{"form": [1, t, 0]} for t in range(100_001)]
        emitted = tmp_path / "derived.json"
        start = time.perf_counter()
        code = main(["lines", lines_file(tmp_path, doc), "--emit-graph", str(emitted)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error [total-degree-too-large] components:")
        assert captured.err.count("\n") == 1
        assert not emitted.exists()
        assert elapsed < 10.0

    @pytest.mark.parametrize("text", ["1_000", "1.5", "1e2000000", "\u0661/\u0662", "\uff13"])
    def test_coefficient_string_beyond_the_documented_forms(self, tmp_path, capsys, text):
        doc = [{"form": [text, 0, 1]}, {"form": [0, 1, 0]}]
        start = time.perf_counter()
        assert main(["lines", lines_file(tmp_path, doc)]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: entry 0, coefficient 0 is not a valid rational: {text!r}\n"

    def test_nonpositive_multiplicity_emits_no_graph(self, tmp_path, capsys):
        doc = [{"form": [1, 0, 0]}, {"form": [-2, 0, 0], "multiplicity": -1}, {"form": [0, 1, 0]}]
        emitted = tmp_path / "derived.json"
        assert main(["lines", lines_file(tmp_path, doc), "--emit-graph", str(emitted)]) == 2
        assert capsys.readouterr().err == (
            "error [nonpositive-multiplicity] component 'l1': multiplicity must be >= 1, got 0\n"
        )
        assert not emitted.exists()

    @pytest.mark.parametrize(
        "target, reason",
        [("missing/derived.json", "No such file or directory"), (".", "Is a directory")],
        ids=["missing-directory", "directory"],
    )
    def test_unwritable_emit_graph(self, tmp_path, capsys, target, reason):
        path = str(tmp_path / target)
        assert main(["lines", lines_file(tmp_path, TRIANGLE_LINES), "--emit-graph", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {path}: {reason}\n"


class TestLinesSummaryPath:
    """`lines` computes from the point-type summary, never from a graph; it
    must print what the hyperplane formula gives on the incidence graph."""

    @pytest.mark.parametrize("seed", range(0, 60, 3))
    def test_matches_hyperplane_formula_in_every_style(self, tmp_path, capsys, seed):
        forms = random_line_forms(seed)
        path = lines_file(tmp_path, line_entries(forms))
        expected = spectrum_hyperplane(incidence_graph(forms))
        for style in ("plain", "latex", "json"):
            assert main(["lines", path, "--style", style]) == 0
            assert capsys.readouterr().out == format_spectrum(expected, style) + "\n"

    @pytest.mark.parametrize("seed", range(1, 60, 6))
    def test_emitted_graph_is_the_incidence_graph(self, tmp_path, capsys, seed):
        forms = random_line_forms(seed)
        path = lines_file(tmp_path, line_entries(forms))
        emitted = tmp_path / "derived.json"
        assert main(["lines", path, "--emit-graph", str(emitted)]) == 0
        graph = incidence_graph(forms)
        assert capsys.readouterr().out == format_spectrum(spectrum_hyperplane(graph)) + "\n"
        assert emitted.read_text(encoding="utf-8") == json.dumps(graph_to_dict(graph), indent=2) + "\n"

    def test_builds_no_graph_without_emit_graph(self, tmp_path, capsys, monkeypatch):
        forms = random_line_forms(5)
        path = lines_file(tmp_path, line_entries(forms))
        expected = format_spectrum(spectrum_hyperplane(incidence_graph(forms))) + "\n"

        def refuse(*args):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(curvespec.lines, "incidence_graph", refuse)
        monkeypatch.setattr(curvespec.lines._Incidence, "graph", refuse)
        monkeypatch.setattr(ArrangementGraph, "point_types", property(refuse))
        assert main(["lines", path]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("seed", range(2, 60, 6))
    def test_verify_runs_both_routes_on_one_summary(self, tmp_path, capsys, monkeypatch, seed):
        forms = random_line_forms(seed)
        path = lines_file(tmp_path, line_entries(forms))
        expected = format_spectrum(spectrum_hyperplane(incidence_graph(forms))) + "\n"
        summaries = []
        count = curvespec.lines._Incidence.point_types

        def counted(incidence):
            summaries.append(count(incidence))
            return summaries[-1]

        def refuse(*args):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(curvespec.lines._Incidence, "point_types", counted)
        monkeypatch.setattr(curvespec.lines._Incidence, "graph", refuse)
        monkeypatch.setattr(ArrangementGraph, "point_types", property(refuse))
        assert main(["lines", path, "--verify"]) == 0
        assert capsys.readouterr() == (expected, "")
        assert len(summaries) == 1

    def test_verify_catches_corrupted_formula(self, tmp_path, capsys, monkeypatch):
        path = lines_file(tmp_path, line_entries(random_line_forms(4)))
        corrupt_rows(monkeypatch)
        assert main(["lines", path]) == 0
        capsys.readouterr()
        assert main(["lines", path, "--verify"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mismatch: characteristic-class pipeline disagrees: ")
        assert captured.err.count("\n") == 1

    def test_verify_mismatch_names_the_first_difference(self, tmp_path, capsys, monkeypatch):
        path = lines_file(tmp_path, line_entries(random_line_forms(4)))
        corrupt_rows(monkeypatch)
        assert main(["lines", path, "--verify"]) == 3
        assert capsys.readouterr() == (
            "",
            "mismatch: characteristic-class pipeline disagrees: first difference at t^(1/32): 1 vs 0\n",
        )


class TestUnreadableJson:
    @pytest.mark.parametrize("command", ["compute", "lines"])
    @pytest.mark.parametrize(
        "content",
        [b"[" + b"7" * 5000 + b"]", b"[" * 100_000 + b"]" * 100_000, b"\xff[]"],
        ids=["5000-digit-integer", "nested-100k-deep", "not-utf8"],
    )
    def test_format_error_with_one_line(self, tmp_path, capsys, command, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1


class TestLongValueEcho:
    """A diagnostic echoes at most about 80 characters of the offending value."""

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("lines", '[{"form": ["' + "7" * 5000 + '", 0, 1]}]', "is not a valid rational"),
            (
                "compute",
                '{"components": [{"id": "c", "degree": ' + "[" * 500 + "]" * 500 + "}]}",
                "must be an integer",
            ),
            (
                "compute",
                '{"components": [{"id": "c", "degree": 3, "' + "k" * 5000 + '": 1}]}',
                "has unknown keys",
            ),
        ],
        ids=["5000-digit-coefficient", "nested-array-degree", "long-unknown-key"],
    )
    def test_one_short_line(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert len(captured.err) < 160


    @pytest.mark.parametrize(
        "command, doc, code",
        [
            (
                "compute",
                {
                    "components": [{"id": "c", "degree": 3}],
                    "points": [{"id": "v", "branches": [{"component": "c", "mult": 10**4000}]}],
                },
                "branch-mult-exceeds-degree",
            ),
            ("compute", {"components": [{"id": "c" * 5000, "degree": 0}]}, "nonpositive-degree"),
            (
                "compute",
                {
                    "components": [{"id": "c" * 5000, "degree": 1}, {"id": "c" * 5000, "degree": 1}],
                    "points": [{"id": "v" * 5000, "branches": [{"component": "c" * 5000}, {"component": "w" * 5000}]}],
                },
                "unknown-component",
            ),
            ("lines", [{"form": [1, 0, 0], "multiplicity": -(10**4000)}], "nonpositive-multiplicity"),
        ],
        ids=["4001-digit-branch-mult", "5000-character-id", "5000-character-ids", "4001-digit-multiplicity"],
    )
    def test_validation_errors_stay_short(self, tmp_path, capsys, command, doc, code):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error [{code}]" in captured.err
        for line in captured.err.splitlines():
            # Each echo is cut to 80 characters ending in "...": the rest
            # of the line is the fixed text of the diagnostic.
            assert len(line) < 160 + 80 * line.count("...")


    @pytest.mark.parametrize(
        "formula, doc, message",
        [
            (
                "hyperplane",
                {"components": [{"id": f"q{k}", "degree": 2} for k in range(40_000)]},
                "hyperplane formula needs all component degrees 1; components "
                "['q0', 'q1', 'q2', 'q3', 'q4', 'q5', 'q6', 'q7', 'q8', 'q9', 'q10', 'q11', 'q... violate that",
            ),
            (
                "smooth",
                {
                    "components": [{"id": f"c{k}", "degree": 3} for k in range(20_000)],
                    "points": [{"id": f"v{k}", "branches": [{"component": f"c{k}", "mult": 2}]} for k in range(20_000)],
                },
                "smooth-components formula needs every branch multiplicity 1; got "
                "[('v0', 'c0'), ('v1', 'c1'), ('v2', 'c2'), ('v3', 'c3'), ('v4', 'c4'), ('v5',...",
            ),
            (
                "reduced",
                {"components": [{"id": f"l{k}", "degree": 1, "multiplicity": 2} for k in range(20_000)]},
                "reduced formula needs all multiplicities 1; components "
                "['l0', 'l1', 'l2', 'l3', 'l4', 'l5', 'l6', 'l7', 'l8', 'l9', 'l10', 'l11', 'l... violate that",
            ),
        ],
        ids=["40000-conics", "20000-nodal-cubics", "20000-double-lines"],
    )
    def test_inapplicable_formula_is_one_short_line(self, tmp_path, capsys, formula, doc, message):
        # The offender list is echoed like any other value, cut to 80 characters.
        assert main(["compute", arrangement_file(tmp_path, doc), "--formula", formula]) == 2
        captured = capsys.readouterr()
        assert captured == ("", f"error: {message}\n")
        assert len(captured.err) < 200


SMALL_LINES = [{"form": [1, 0, 0]}, {"form": [0, 1, 0], "multiplicity": 2}, {"form": ["1/2", "1/3", "-1"]}]
# Where the numbers of the line file sit, as key paths.
LINE_NUMBERS = [(i, "form", k) for i in range(3) for k in range(3)] + [(1, "multiplicity")]


class TestMutatedInputContract:
    """The exit-code contract on a small line file and a small arrangement
    file with some of their numbers replaced: exit 0, 1 or 2; stdout only
    on exit 0 and stderr only otherwise; one line on exit 1, lines that
    start with "error" on exit 2; never a traceback."""

    @staticmethod
    def run_mutated(tmp_path, capsys, command, doc, places, replacements):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(mutated(doc, places, replacements)), encoding="utf-8")
        code = main([command, str(path), "--verify"])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (code, err)
        if code == 0:
            assert err == ""
        else:
            assert out == ""
        if code == 1:
            assert err.count("\n") == 1 and err.endswith("\n"), err
        if code == 2:
            assert all(line.startswith("error") for line in err.splitlines()), err
        assert "Traceback" not in err

    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(st.integers(0, len(LINE_NUMBERS) - 1), MUTANT_VALUES, min_size=1, max_size=3))
    def test_line_file(self, tmp_path, capsys, replacements):
        self.run_mutated(tmp_path, capsys, "lines", SMALL_LINES, LINE_NUMBERS, replacements)

    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(st.integers(0, len(ARRANGEMENT_NUMBERS) - 1), MUTANT_VALUES, min_size=1, max_size=3))
    def test_arrangement_file(self, tmp_path, capsys, replacements):
        self.run_mutated(tmp_path, capsys, "compute", SMALL_ARRANGEMENT, ARRANGEMENT_NUMBERS, replacements)


class TestExamples:
    def test_lists_all_fixtures(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        for name in ("nodal-cubic", "line-and-nodal-cubic", "double-lines"):
            assert f"{name}:" in out
        assert "t + 2*t^(4/3) + 2*t^(5/3)" in out
        assert "2*t + 2*t^(5/4) + 2*t^(3/2) + 2*t^(7/4) - t^2" in out
        assert "-t^(3/2) - t^2 + t^(5/2)" in out

    def test_arrangements_are_loadable(self, capsys):
        main(["examples"])
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith("  arrangement: "):
                doc = json.loads(line.removeprefix("  arrangement: "))
                assert "components" in doc


class TestNoCommandBuildsAClass:
    """The cohomology ring is the per-point reference of the tests: no
    command builds a class in it (the module constant ONE is built at
    import)."""

    MANY_POINTS = ["--max-components", "8", "--max-points", "200", "--max-degree", "6", "--max-mult", "5"]

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "--count", "50", "--seed", "1"],
            ["check", "--count", "20", "--seed", "3", *MANY_POINTS],
            ["examples"],
        ],
        ids=["check", "check-many-points", "examples"],
    )
    def test_command(self, monkeypatch, args):
        self.assert_builds_no_class(monkeypatch, [args])

    @pytest.mark.parametrize(
        "doc",
        [NODAL_CUBIC, DOUBLE_LINES, CONCURRENT_LINES, CONIC_AND_SECANT]
        + [graph_to_dict(g) for g in (line_and_nodal_cubic(), two_line_powers(2, 3))],
        ids=["nodal-cubic", "double-lines", "concurrent-lines", "conic-and-secant", "line-and-nodal-cubic", "powers"],
    )
    def test_compute(self, tmp_path, monkeypatch, doc):
        path = arrangement_file(tmp_path, doc)
        self.assert_builds_no_class(monkeypatch, [["compute", path], ["compute", path, "--verify"]])

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_lines_verify(self, tmp_path, monkeypatch, seed):
        path = lines_file(tmp_path, line_entries(random_line_forms(seed)))
        self.assert_builds_no_class(monkeypatch, [["lines", path, "--verify"]])

    @staticmethod
    def assert_builds_no_class(monkeypatch, runs):
        made = []
        honest_init = CohClass.__init__

        def counted_init(self, *args, **kwargs):
            made.append(args)
            honest_init(self, *args, **kwargs)

        monkeypatch.setattr(CohClass, "__init__", counted_init)
        for args in runs:
            assert main(args) == 0, args
        assert made == []
        # The count sees a class when one is built.
        assert ONE + ONE == CohClass(2)
        assert made


def cli_process(*args, stdout=subprocess.PIPE):
    """``python -m curvespec.cli <args>`` in a child process, stderr (and
    by default stdout) piped."""
    src = str(Path(curvespec.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen(
        [sys.executable, "-m", "curvespec.cli", *args], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


class TestClosedStdout:
    """A stdout that cannot be written (a reader that closes it early, a
    full device) gives one error line and exit 1, not a traceback."""

    def assert_quiet_failure(self, process, reason="Broken pipe"):
        err = process.stderr.read().decode()
        process.stderr.close()
        assert process.wait(timeout=60) == 1
        assert err == f"error: cannot write standard output: {reason}\n"

    def test_closed_before_reading(self):
        process = cli_process("examples")
        process.stdout.close()
        self.assert_quiet_failure(process)

    def test_closed_after_the_first_bytes(self, tmp_path):
        # About 100 kB of spectrum, more than a pipe holds, so the writer
        # is still writing when the reader stops.
        path = lines_file(tmp_path, [{"form": [1, t, t * t], "multiplicity": t + 1} for t in range(60)])
        process = cli_process("lines", path)
        assert len(process.stdout.read(100)) == 100
        process.stdout.close()
        self.assert_quiet_failure(process)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_device_full(self):
        with open("/dev/full", "wb") as full:
            process = cli_process("examples", stdout=full)
        self.assert_quiet_failure(process, "No space left on device")


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_repeated_calls_give_the_same_bytes(self, tmp_path, capsys):
        calls = [
            ["compute", arrangement_file(tmp_path, NODAL_CUBIC), "--style", "latex"],
            ["compute"],
            ["lines", lines_file(tmp_path, TRIANGLE_LINES)],
            ["check", "--count", "3", "--seed", "4"],
            ["compute", "--formula", "nonsense", "x.json"],
            ["examples"],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = [run(argv) for argv in calls]
        assert first[1][0] == ("exit", 2) and first[1][2].startswith("usage: curvespec compute")
        assert [run(argv) for argv in calls] == first
        assert [run(argv) for argv in reversed(calls)] == first[::-1]

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_rejects_unknown_style(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compute", "x.json", "--style", "html"])


def parser_outcome(argv, capsys):
    """Exit code, stdout and stderr of ``build_parser().parse_args(argv)``
    run on its own; the code is None when it parses."""
    try:
        build_parser().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def main_outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TOP_USAGE = "usage: curvespec [-h] {compute,check,lines,examples} ...\n"

# argv that argparse answers itself: (argv, exit code, the start of the
# output, a part of the error message).  Help goes to stdout, errors to
# stderr.
ARGPARSE_ANSWERS = {
    "no-command": ([], 2, TOP_USAGE, "curvespec: error: the following arguments are required: command\n"),
    "-h": (["-h"], 0, TOP_USAGE, ""),
    "--help": (["--help"], 0, TOP_USAGE, ""),
    "compute-h": (["compute", "-h"], 0, "usage: curvespec compute [-h]", ""),
    "check-h": (["check", "-h"], 0, "usage: curvespec check [-h]", ""),
    "lines-h": (["lines", "-h"], 0, "usage: curvespec lines [-h]", ""),
    "examples-h": (["examples", "-h"], 0, "usage: curvespec examples [-h]", ""),
    "unknown-command": (["frobnicate"], 2, TOP_USAGE, "invalid choice: 'frobnicate' (choose from "),
    "examples-extra": (["examples", "x"], 2, TOP_USAGE, "curvespec: error: unrecognized arguments: x\n"),
    "check-bogus": (["check", "--bogus"], 2, TOP_USAGE, "curvespec: error: unrecognized arguments: --bogus\n"),
    "count-not-int": (
        ["check", "--count", "x"],
        2,
        "usage: curvespec check [-h]",
        "curvespec check: error: argument --count: invalid int value: 'x'\n",
    ),
}

# argv that parse, each with an argv spelled out in full that gives the same
# namespace and output.  A "--" before the command is refused as an invalid
# choice by some Python versions (3.11) and skipped by later ones; either
# way main must answer as the full parser does.
ARGPARSE_ACCEPTS = {
    "abbreviation": (["check", "--se", "3"], ["check", "--seed", "3"]),
    "equals": (["check", "--count=1"], ["check", "--count", "1"]),
    "double-dash": (["--", "check", "--count", "1"], ["check", "--count", "1"]),
}


class TestArgparseOutcomes:
    """main answers every argv as the full parser does: help, usage and
    errors byte for byte, and the same arguments when it parses."""

    @pytest.mark.parametrize("case", ARGPARSE_ANSWERS)
    def test_answer_is_the_full_parsers(self, capsys, case):
        argv, code, start, error = ARGPARSE_ANSWERS[case]
        outcome = main_outcome(argv, capsys)
        assert outcome == parser_outcome(argv, capsys)
        shown, silent = outcome[1:] if code == 0 else outcome[:0:-1]
        assert outcome[0] == code and silent == ""
        assert shown.startswith(start) and error in shown

    @pytest.mark.parametrize("case", ARGPARSE_ACCEPTS)
    def test_accepted_argv_runs_as_spelled_out(self, capsys, case):
        argv, full = ARGPARSE_ACCEPTS[case]
        outcome = parser_outcome(argv, capsys)
        if outcome[0] is not None:
            assert main_outcome(argv, capsys) == outcome
            return
        assert outcome == (None, "", "")
        assert vars(curvespec.cli._parse(argv)) == vars(build_parser().parse_args(argv))
        assert vars(build_parser().parse_args(argv)) == vars(build_parser().parse_args(full))
        assert main_outcome(argv, capsys) == main_outcome(full, capsys)

    @pytest.mark.parametrize("case", [*ARGPARSE_ANSWERS, *ARGPARSE_ACCEPTS])
    def test_through_sys_argv(self, capsys, case):
        # python -m curvespec.cli reads sys.argv, not an argv argument.
        argv = (ARGPARSE_ANSWERS.get(case) or ARGPARSE_ACCEPTS[case])[0]
        expected = parser_outcome(argv, capsys)
        if expected[0] is None:  # it parses, so main runs the command
            expected = main_outcome(argv, capsys)
        process = cli_process(*argv)
        out, err = process.communicate(timeout=60)
        assert (process.returncode, out.decode(), err.decode()) == expected
