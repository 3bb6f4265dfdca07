"""Write ``cli_manifest.json``: the exit code and digests of stdout and of
stderr of every in-process ``curvespec`` call below, the CLI's bytes as one
standing record.

The calls: every stored ``compute`` input of ``bench/data/compute.json`` in
each style, with the default and each ``--formula``, plain and
``--verify``; every stored line file of ``bench/data/lines.json`` in each
style, plain and ``--verify``; ``check --count 200 --seed 1``, the CI's
wide ``check`` and ``examples``; for each of ``compute`` and ``lines``
a missing file, a file that is not JSON, a schema error and invalid data;
and one ``compute`` file per check of the one-pass reader of
``graph_from_dict``, each a small arrangement edited to fail that check.
Every call runs with the inputs in the working directory under bare file
names, so no message depends on where they were written.

The manifest maps the command and its file (the command alone for
``check`` and ``examples``) to the rest of each call's arguments, and those
to [exit code, stdout digest, stderr digest]; a digest is the first 16 hex
digits of the sha1 of the UTF-8 text, which keeps the file under 300 KB.

Run from the repository root, with the package importable::

    PYTHONPATH=src python tests/data/make_cli_manifest.py

A change that means to alter CLI output regenerates the manifest; its diff
names the calls whose bytes moved.  ``tests/test_cli.py`` replays every
call against it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from curvespec.cli import main as cli

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "cli_manifest.json"
BENCH_DATA = HERE.parent.parent / "bench" / "data"

STYLES = ([], ["--style", "latex"], ["--style", "json"])
FORMULAS = ([], *(["--formula", name] for name in ("general", "reduced", "smooth", "hyperplane")))
CHECKS = (
    ["check", "--count", "200", "--seed", "1"],
    ["check", "--count", "500", "--seed", "2", "--max-components", "8", "--max-points", "24", "--max-degree", "6", "--max-mult", "5"],
)
# Error inputs by file name; absent.json is never written.
ERROR_FILES = {
    "bad.json": "{",
    "compute-schema.json": '{"components": 3}',
    "compute-invalid.json": json.dumps(
        {"components": [{"id": "a", "degree": 1}], "points": [{"id": "v", "branches": [{"component": "b"}]}]}
    ),
    "lines-schema.json": '[{"form": [1, 0]}]',
    "lines-invalid.json": '[{"form": [0, 0, 0]}]',
}
ERRORS = tuple(
    [command, name]
    for command in ("compute", "lines")
    for name in ("absent.json", "bad.json", f"{command}-schema.json", f"{command}-invalid.json")
)

# A small valid arrangement, and one edit of it per check of the one-pass
# reader of plain JSON: each edit makes that reader hand the file to the
# schema reader and validate, which word the diagnostic.
DECLINE_BASE = {
    "components": [{"id": "c", "degree": 3}, {"id": "l", "degree": 1, "multiplicity": 2}],
    "points": [
        {"id": "v", "branches": [{"component": "c", "mult": 2}]},
        {"id": "w", "branches": [{"component": "c", "mult": 1}, {"component": "l"}]},
    ],
}
_DELETE = object()
DECLINE_EDITS = {
    "bool-degree": (("components", 0, "degree"), True),
    "float-mult": (("points", 0, "branches", 0, "mult"), 2.0),
    "extra-key": (("components", 1, "color"), "red"),
    "missing-id": (("components", 0, "id"), _DELETE),
    "missing-degree": (("components", 1, "degree"), _DELETE),
    "missing-component": (("points", 1, "branches", 1, "component"), _DELETE),
    "empty-component-id": (("components", 1, "id"), ""),
    "empty-point-id": (("points", 0, "id"), ""),
    "duplicate-component-id": (("components", 1, "id"), "c"),
    "duplicate-point-id": (("points", 1, "id"), "v"),
    "duplicate-branch": (("points", 1, "branches", 1, "component"), "c"),
    "unknown-component": (("points", 0, "branches", 0, "component"), "x"),
    "mult-0": (("points", 0, "branches", 0, "mult"), 0),
    "mult-above-degree": (("points", 1, "branches", 1, "mult"), 2),
    "degree-0": (("components", 0, "degree"), 0),
    "multiplicity-0": (("components", 1, "multiplicity"), 0),
    "empty-components": (("components",), []),
    "empty-branches": (("points", 0, "branches"), []),
    "total-degree-100001": (("components", 0, "degree"), 99_999),
}


def declined(name: str) -> dict:
    """``DECLINE_BASE`` with the edit ``DECLINE_EDITS[name]``."""
    (*path, last), value = DECLINE_EDITS[name]
    doc = json.loads(json.dumps(DECLINE_BASE))
    target = doc
    for key in path:
        target = target[key]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


DECLINES = tuple(["compute", f"compute-decline-{name}.json"] for name in DECLINE_EDITS)


def stored_inputs(command: str) -> list:
    """The stored inputs of ``bench/data/<command>.json``, read only."""
    with open(BENCH_DATA / f"{command}.json", encoding="utf-8") as fh:
        return [item["input"] for item in json.load(fh)["items"]]


def write_inputs(directory: Path) -> dict[str, int]:
    """Write every input file the calls read into ``directory``; returns the
    number of stored inputs per command."""
    counts = {}
    for command in ("compute", "lines"):
        inputs = stored_inputs(command)
        counts[command] = len(inputs)
        for index, data in enumerate(inputs):
            (directory / f"{command}-{index}.json").write_text(json.dumps(data), encoding="utf-8")
    for name, text in ERROR_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    for name in DECLINE_EDITS:
        (directory / f"compute-decline-{name}.json").write_text(json.dumps(declined(name)), encoding="utf-8")
    return counts


def calls(counts: dict[str, int]) -> list[list[str]]:
    """The argv of every call, in manifest order."""
    argvs = []
    for index in range(counts["compute"]):
        for formula in FORMULAS:
            for style in STYLES:
                for verify in ([], ["--verify"]):
                    argvs.append(["compute", f"compute-{index}.json", *formula, *style, *verify])
    for index in range(counts["lines"]):
        for style in STYLES:
            for verify in ([], ["--verify"]):
                argvs.append(["lines", f"lines-{index}.json", *style, *verify])
    return [*argvs, *CHECKS, ["examples"], *ERRORS, *DECLINES]


def run(argv: list[str]) -> list:
    """[exit code, stdout digest, stderr digest] of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    return [code, *(hashlib.sha1(s.getvalue().encode()).hexdigest()[:16] for s in (out, err))]


def split(argv: list[str]) -> tuple[str, str]:
    """The manifest's two keys of a call: the command and its file, and the
    rest of its arguments."""
    n = 2 if argv[0] in ("compute", "lines") else 1
    return " ".join(argv[:n]), " ".join(argv[n:])


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        counts = write_inputs(Path(directory))
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            manifest: dict[str, dict[str, list]] = {}
            for argv in calls(counts):
                group, rest = split(argv)
                manifest.setdefault(group, {})[rest] = run(argv)
        finally:
            os.chdir(cwd)
    # One call per line, so a regenerated manifest diffs call by call.
    blocks = [
        f"{json.dumps(group)}: {{\n" + ",\n".join(f" {json.dumps(rest)}: {json.dumps(record)}" for rest, record in entries.items()) + "\n}"
        for group, entries in manifest.items()
    ]
    MANIFEST.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    print(f"{MANIFEST.name}: {sum(map(len, manifest.values()))} calls", file=sys.stderr)


if __name__ == "__main__":
    main()
