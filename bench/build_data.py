"""Write the stored input pools with their expected outputs.

    python3 bench/build_data.py {compute,lines} [--jobs N]

For every pool input from gen.py this runs the curvespec CLI in process
(`compute <file>` or `lines <file>`), keeps its stdout as the expected
output, and cross-checks that stdout against the characteristic-class
route (`spectrum_via_riemann_roch`).  For line files the graph handed to
that route comes from the benchmark's own incidence code, so the check
covers the program's incidence as well as its formulas.  Any disagreement,
stderr output or nonzero exit aborts without writing.  The large line
files take minutes each in the characteristic-class route, hence --jobs.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import harness  # noqa: E402


def _rr_graph(workload: str, item_input):
    from curvespec.arrangement import ArrangementGraph, Branch, Component, SingularPoint, graph_from_dict

    if workload == "compute":
        return graph_from_dict(item_input)
    _, mults, through = gen.line_incidence(gen.form_pairs(item_input))
    return ArrangementGraph(
        tuple(Component(f"l{i + 1}", 1, m) for i, m in enumerate(mults)),
        tuple(
            SingularPoint(f"v{k + 1}", tuple(Branch(f"l{i + 1}", 1) for i in idx))
            for k, idx in enumerate(through.values())
        ),
    )


def expected_output(workload: str, index: int, item_input) -> dict:
    """Stdout of the CLI on one input, checked against the other route."""
    if "curvespec.cli" not in sys.modules:  # a fresh worker process
        harness.fresh_import()
    from curvespec.riemann_roch import spectrum_via_riemann_roch
    from curvespec.spectrum import format_spectrum

    harness.WORK_DIR.mkdir(exist_ok=True)
    path = harness.WORK_DIR / f"build-{workload}-{index}.json"
    path.write_text(json.dumps(item_input), encoding="utf-8")
    try:
        code, out, err, _ = harness.call_cli([workload, str(path)])
    finally:
        path.unlink()
    if code != 0 or err:
        raise RuntimeError(f"{workload} item {index}: exit {code}, stderr {err!r}")
    oracle = format_spectrum(spectrum_via_riemann_roch(_rr_graph(workload, item_input)))
    if out != oracle + "\n":
        raise RuntimeError(f"{workload} item {index}: CLI gave {out!r}, characteristic classes {oracle!r}")
    return {"stdout": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(gen.POOL_GENERATORS))
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    args = parser.parse_args(argv)

    items = gen.POOL_GENERATORS[args.workload]()
    jobs = [(args.workload, i, item["input"]) for i, item in enumerate(items)]
    # Largest inputs first, so the slowest characteristic-class runs overlap.
    order = sorted(range(len(jobs)), key=lambda i: -len(json.dumps(jobs[i][2])))
    with ProcessPoolExecutor(max_workers=args.jobs, mp_context=get_context("spawn")) as pool:
        futures = {i: pool.submit(expected_output, *jobs[i]) for i in order}
        for i in order:
            items[i].update(futures[i].result())
            print(f"{args.workload} item {i} ok", file=sys.stderr, flush=True)
    if args.workload == "lines":
        for item in items:
            item["stats"] = gen.line_stats(gen.form_pairs(item["input"]))

    gen.DATA_DIR.mkdir(exist_ok=True)
    path = gen.DATA_DIR / f"{args.workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"pool_seed": gen.POOL_SEED, "items": items}, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(items)} items to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
