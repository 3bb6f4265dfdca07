"""Guards on the package's layout: the independence of the two spectrum
routes, the public names, and the names the benchmark's tracer wraps."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import curvespec
import curvespec.cli
import curvespec.cohomology
import curvespec.formulas
import curvespec.lines
import curvespec.riemann_roch

BENCH = Path(__file__).resolve().parent.parent / "bench"

# What `import curvespec` promises.
PRODUCT = [
    "ArrangementFormatError",
    "ArrangementGraph",
    "Branch",
    "Component",
    "GraphBounds",
    "InvalidArrangementError",
    "SingularPoint",
    "Spectrum",
    "SpectrumParseError",
    "SplitMix64",
    "ValidationReport",
    "format_spectrum",
    "generate_graph",
    "graph_from_dict",
    "graph_to_dict",
    "incidence_graph",
    "load_arrangement",
    "load_lines",
    "normalize_form",
    "parse_spectrum",
    "require_valid",
    "spectrum_binary_linear",
    "spectrum_general",
    "spectrum_hyperplane",
    "spectrum_irreducible_power",
    "spectrum_isolated",
    "spectrum_reduced",
    "spectrum_smooth_components",
    "spectrum_via_riemann_roch",
    "validate",
]
# The tests' per-point reference, its helpers and a removed function.
NOT_EXPORTED = [
    "CohClass",
    "DerivedData",
    "binom",
    "ceil_div",
    "chern_cotangent_log",
    "chern_tangent",
    "derived",
    "dummy_shift",
    "euler_characteristic",
    "todd",
    "twist_class",
]


def curvespec_imports(module):
    """The curvespec submodules a module's source imports from."""
    found = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.update([node.module] if node.module else [alias.name for alias in node.names])
            elif node.module and node.module.startswith("curvespec"):
                found.add(node.module.partition(".")[2] or "curvespec")
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.partition(".")[2] or "curvespec"
                for alias in node.names
                if alias.name.split(".")[0] == "curvespec"
            )
    return found


class TestIndependence:
    """The characteristic-class route and the truly different closed
    displays share no formula code with the general formula."""

    @pytest.mark.parametrize("module", [curvespec.riemann_roch, curvespec.cohomology], ids=lambda m: m.__name__)
    def test_characteristic_class_route_imports_no_formula_code(self, module):
        imported = curvespec_imports(module)
        assert imported <= {"arrangement", "cohomology", "spectrum"}
        assert not imported & {"formulas", "binomial"}

    @pytest.mark.parametrize(
        "name",
        ["spectrum_reduced", "_reduced_runs", "spectrum_irreducible_power", "spectrum_binary_linear", "spectrum_isolated"],
    )
    def test_closed_displays_do_not_call_the_general_formula(self, name):
        tree = ast.parse(Path(curvespec.formulas.__file__).read_text(encoding="utf-8"))
        (function,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
        names = {node.id for node in ast.walk(function) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(function) if isinstance(node, ast.Attribute)}
        assert not names & {"spectrum_of_point_types", "spectrum_general"}

    def test_ingest_imports_no_formula_code(self):
        # Line incidence hands a point-type summary to the routes; it reads
        # and validates through arrangement alone.
        assert curvespec_imports(curvespec.lines) == {"arrangement"}

    def test_commands_import_no_cohomology(self):
        # The ring is the per-point reference the tests check the spectrum
        # route against; no command reads it.
        assert "cohomology" not in curvespec_imports(curvespec.cli)


class TestPublicSurface:
    def test_every_exported_name_resolves(self):
        # A name left in an __all__ after its removal fails here.
        package = importlib.import_module("curvespec")
        exported = set()
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"curvespec.{info.name}")
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)
            exported.update(module.__all__)
        for name in package.__all__:
            assert hasattr(package, name), name
        assert set(package.__all__) <= exported

    def test_the_package_exports_the_product(self):
        assert sorted(curvespec.__all__) == sorted(PRODUCT)

    @pytest.mark.parametrize("name", NOT_EXPORTED)
    def test_the_tests_reference_is_not_exported(self, name):
        # The per-point reference and its helpers stay importable from
        # their modules; the package namespace does not carry them.
        assert not hasattr(curvespec, name)

    def test_the_package_and_its_cli_load_every_wrapped_module(self, tracer):
        # The benchmark imports curvespec and curvespec.cli, then wraps
        # names in these modules; a module only the package namespace
        # imported would be missing once the namespace stops naming it.
        wanted = {module for module, *_ in tracer.FUNCTIONS} | {module for module, *_ in tracer.METHODS}
        src = str(Path(curvespec.__file__).resolve().parent.parent)
        script = "import sys, curvespec, curvespec.cli; print(*sorted(sys.modules))"
        env = {**os.environ, "PYTHONPATH": src}
        loaded = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert {f"curvespec.{module}" for module in wanted} <= set(loaded.stdout.split())


@pytest.fixture
def tracer(monkeypatch):
    """bench/tracer.py, imported with bench/ on sys.path; the bench modules
    it loads are dropped again afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    try:
        yield importlib.import_module("tracer")
    finally:
        for name in set(sys.modules) - before:
            path = getattr(sys.modules[name], "__file__", None)
            if path and Path(path).resolve().parent == BENCH:
                del sys.modules[name]


class TestBenchmarkHooks:
    """Every name the benchmark's tracer wraps exists, so dropping or
    renaming one fails here and not only in the benchmark's own tests."""

    def test_wrapped_functions_resolve(self, tracer):
        assert tracer.FUNCTIONS
        for module, name, *_ in tracer.FUNCTIONS:
            assert callable(getattr(importlib.import_module(f"curvespec.{module}"), name, None)), (module, name)

    def test_wrapped_methods_are_defined_on_their_classes(self, tracer):
        assert tracer.METHODS
        for module, cls_name, method, *_ in tracer.METHODS:
            cls = getattr(importlib.import_module(f"curvespec.{module}"), cls_name)
            assert method in cls.__dict__, (module, cls_name, method)

