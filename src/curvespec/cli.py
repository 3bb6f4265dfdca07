"""Command-line interface.

Subcommands: ``compute`` (spectrum of an arrangement file), ``check``
(randomized cross-validation of the combinatorial formulas against the
characteristic-class pipeline), ``lines`` (spectrum of an explicit line
arrangement), ``examples`` (three built-in worked fixtures).

Exit codes are a stable contract: 0 success, 1 unreadable or malformed
input, 2 well-formed input describing invalid data, 3 verification
mismatch between pipelines.  Results go to standard output, diagnostics to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .arrangement import (
    ArrangementFormatError,
    ArrangementGraph,
    Branch,
    Component,
    InvalidArrangementError,
    SingularPoint,
    complement_euler_characteristic,
    graph_to_dict,
    load_arrangement,
)
from .formulas import (
    spectrum_general,
    spectrum_hyperplane,
    spectrum_irreducible_power,
    spectrum_of_point_types,
    spectrum_reduced,
    spectrum_smooth_components,
)
from .lines import LineFileError, line_incidence, load_lines
from .randomgraphs import (
    GraphBounds,
    SplitMix64,
    generate_graph,
    insert_smooth_point,
    insert_snc_node,
)
from .riemann_roch import _spectrum_of_point_types as riemann_roch_of_point_types
from .riemann_roch import spectrum_via_riemann_roch
from .spectrum import Spectrum, format_spectrum

__all__ = ["main"]


class VerificationMismatch(Exception):
    """Two pipelines that must agree produced different spectra."""


def _disagreement(label: str, a: Spectrum, b: Spectrum) -> str | None:
    """None if the spectra agree, else ``label`` and where they part: the
    smallest exponent at which their coefficients differ, with both
    coefficients."""
    if a == b:
        return None
    alpha = (a - b).support()[0]
    return f"{label}: first difference at t^({alpha}): {a.coefficient(alpha)} vs {b.coefficient(alpha)}"


def _require_agreement(label: str, a: Spectrum, b: Spectrum) -> None:
    """Raise :class:`VerificationMismatch` unless the spectra agree."""
    text = _disagreement(label, a, b)
    if text is not None:
        raise VerificationMismatch(text)


def _auto_dispatch(graph: ArrangementGraph):
    """The general formula; a reduced graph is cross-checked against the
    separately coded reduced display at runtime."""
    result = spectrum_general(graph)
    if graph.is_reduced():
        _require_agreement(
            "auto-dispatched general formula disagrees with the reduced formula", result, spectrum_reduced(graph)
        )
    return result


_FORMULAS = {
    "auto": _auto_dispatch,
    "general": spectrum_general,
    "reduced": spectrum_reduced,
    "smooth": spectrum_smooth_components,
    "hyperplane": spectrum_hyperplane,
}


_RR_DISAGREES = "characteristic-class pipeline disagrees"


def cmd_compute(args) -> int:
    graph = load_arrangement(args.file)
    result = _FORMULAS[args.formula](graph)
    if args.verify:
        _require_agreement(_RR_DISAGREES, result, spectrum_via_riemann_roch(graph))
    print(format_spectrum(result, args.style))
    return 0


def _single_component_power_spectrum(graph: ArrangementGraph):
    comp = graph.components[0]
    mults = [p.branches[0].mult for p in graph.points if p.branches[0].mult >= 2]
    return spectrum_irreducible_power(comp.degree, comp.multiplicity, mults)


def _check_one(graph: ArrangementGraph, rng: SplitMix64) -> list[str]:
    """All cross-validations applicable to one graph; returns one line
    (label and where the two sides differ) per failed comparison.

    Draw order after the graph itself: two draws for the extra simple node
    when the graph has >= 2 components, then one draw for the extra smooth
    point.
    """
    base = spectrum_general(graph)
    failures = [_disagreement("general vs characteristic-class pipeline", base, spectrum_via_riemann_roch(graph))]
    # The spectrum sums to the reduced Euler characteristic of the Milnor
    # fibre, a d-fold cover of the complement of the curve.
    total = base.eval_at_one()
    d = sum(c.multiplicity * c.degree for c in graph.components)
    expected = d * complement_euler_characteristic(graph) - 1
    if total != expected:
        failures.append(f"general vs topological Euler characteristic: value at t = 1: {total} vs {expected}")
    rows = []
    if graph.is_reduced():
        rows.append(("general vs reduced formula", spectrum_reduced(graph)))
    if len(graph.components) == 1:
        # Multiplicity-1 points are formula-neutral, so dropping them keeps
        # the single-curve power formula applicable.
        rows.append(("general vs single-curve power formula", _single_component_power_spectrum(graph)))
    if len(graph.components) >= 2:
        rows.append(("invariance under adding a simple node", spectrum_general(insert_snc_node(graph, rng))))
    rows.append(("invariance under adding a smooth point", spectrum_general(insert_smooth_point(graph, rng))))
    failures += [_disagreement(label, base, other) for label, other in rows]
    return [failure for failure in failures if failure is not None]


def cmd_check(args) -> int:
    if args.count < 0:
        raise ValueError("count must not be negative")
    bounds = GraphBounds(
        max_components=args.max_components,
        max_points=args.max_points,
        max_degree=args.max_degree,
        max_mult=args.max_mult,
    )
    rng = SplitMix64(args.seed)
    passed = 0
    failed_any = False
    for index in range(args.count):
        graph = generate_graph(rng, bounds)
        failures = _check_one(graph, rng)
        if failures:
            failed_any = True
            for failure in failures:
                print(f"instance {index}: {failure}", file=sys.stderr)
            print(json.dumps(graph_to_dict(graph)), file=sys.stderr)
        else:
            passed += 1
    print(f"{passed}/{args.count} ok")
    return 3 if failed_any else 0


def cmd_lines(args) -> int:
    incidence = line_incidence(load_lines(args.file))
    if args.emit_graph:
        try:
            with open(args.emit_graph, "w", encoding="utf-8") as fh:
                json.dump(graph_to_dict(incidence.graph()), fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.emit_graph}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    summary = incidence.point_types()
    result = spectrum_of_point_types(summary)
    if args.verify:
        _require_agreement(_RR_DISAGREES, result, riemann_roch_of_point_types(summary))
    print(format_spectrum(result, args.style))
    return 0


_EXAMPLES = (
    (
        "nodal-cubic",
        "irreducible cubic with one ordinary double point",
        ArrangementGraph(
            (Component("c", 3),),
            (SingularPoint("v", (Branch("c", 2),)),),
        ),
    ),
    (
        "line-and-nodal-cubic",
        "nodal cubic plus a line through the node and one more crossing",
        ArrangementGraph(
            (Component("line", 1), Component("cubic", 3)),
            (
                SingularPoint("v1", (Branch("line", 1), Branch("cubic", 2))),
                SingularPoint("v2", (Branch("line", 1), Branch("cubic", 1))),
            ),
        ),
    ),
    (
        "double-lines",
        "two distinct lines, each squared, crossing once",
        ArrangementGraph(
            (Component("l1", 1, 2), Component("l2", 1, 2)),
            (SingularPoint("v", (Branch("l1", 1), Branch("l2", 1))),),
        ),
    ),
)


def cmd_examples(args) -> int:
    for name, description, graph in _EXAMPLES:
        print(f"{name}: {description}")
        print(f"  arrangement: {json.dumps(graph_to_dict(graph))}")
        print(f"  spectrum: {format_spectrum(spectrum_general(graph))}")
    return 0


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and each subcommand's own parser by name, built
    once per process."""
    parser = argparse.ArgumentParser(
        prog="curvespec",
        description="Exact Hodge spectra of plane curve arrangements from combinatorial data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="spectrum of an arrangement file")
    p_compute.add_argument("file", help="arrangement JSON file")
    p_compute.add_argument(
        "--formula",
        choices=sorted(_FORMULAS),
        default="auto",
        help="formula to apply; auto runs the general one and cross-checks reduced input",
    )
    p_compute.add_argument("--style", choices=("plain", "latex", "json"), default="plain")
    p_compute.add_argument(
        "--verify",
        action="store_true",
        help="also run the characteristic-class pipeline and fail on mismatch",
    )
    p_compute.set_defaults(func=cmd_compute)

    p_check = sub.add_parser("check", help="randomized cross-validation of all pipelines")
    p_check.add_argument("--count", type=int, default=100, help="number of random graphs")
    p_check.add_argument("--seed", type=int, default=0, help="64-bit generator seed")
    p_check.add_argument("--max-components", type=int, default=5)
    p_check.add_argument("--max-points", type=int, default=8)
    p_check.add_argument("--max-degree", type=int, default=4)
    p_check.add_argument("--max-mult", type=int, default=4)
    p_check.set_defaults(func=cmd_check)

    p_lines = sub.add_parser("lines", help="spectrum of an explicit line arrangement")
    p_lines.add_argument("file", help="line-arrangement JSON file")
    p_lines.add_argument("--style", choices=("plain", "latex", "json"), default="plain")
    p_lines.add_argument("--emit-graph", metavar="PATH", help="write the derived arrangement file")
    p_lines.add_argument(
        "--verify",
        action="store_true",
        help="also run the characteristic-class pipeline on the point types and fail on mismatch",
    )
    p_lines.set_defaults(func=cmd_lines)

    p_examples = sub.add_parser("examples", help="print built-in worked fixtures")
    p_examples.set_defaults(func=cmd_examples)

    return parser, {"compute": p_compute, "check": p_check, "lines": p_lines, "examples": p_examples}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    return _parsers()[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` gives, with the same output
    and exit on an error.  Arguments after a subcommand name are parsed by
    that subcommand's parser alone, which is all the full parser would do
    with them; only when it leaves some unparsed does the full parser run,
    so that the error names the top-level usage."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # Standard output cannot be written (the reader closed the pipe, or
        # the device is full): send what is still buffered to devnull so the
        # interpreter's flush at exit stays quiet.  Every other OSError is
        # turned into its own message before it gets here.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write standard output: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except (ArrangementFormatError, LineFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvalidArrangementError as exc:
        for code, message, location in exc.report.errors:
            print(f"error [{code}] {location}: {message}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationMismatch as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
