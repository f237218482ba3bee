"""Guards on the package as a whole: no empty modules, no exception
class without a raiser, no public function that only tests call, an
exact list of settable values (defaulted parameters and dataclass
fields), input checks only in `errors`, one enumeration of each size of
generator subset, one node loop for the Poisson symbol, fields built only
by its sources and reducers, files written only by one replace helper, no
console script that does not import, and no import of scipy or numpy.ma
on any path."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import tubeharm
from tubeharm import errors

PACKAGE_DIR = Path(tubeharm.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
BENCH_DIR = Path(__file__).resolve().parents[1] / "tubebench"


def _modules():
    return [info.name for info in pkgutil.iter_modules([str(PACKAGE_DIR)])]


@pytest.mark.parametrize("name", _modules())
def test_module_nonempty(name):
    assert (PACKAGE_DIR / f"{name}.py").read_text().strip(), f"{name}.py is empty"


def _raised_names():
    names = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    raised = _raised_names()
    classes = [
        name for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.TubeharmError) and cls is not errors.TubeharmError
    ]
    assert classes
    assert [name for name in classes if name not in raised] == []


def test_public_functions_have_a_non_test_caller():
    # a name (or attribute) anywhere in the package or the benchmark other
    # than the def itself counts as a caller.  The functions listed have
    # none and are kept on purpose: the centred transforms are the tests'
    # reference for the node loop, and the benchmark traces them by name
    # (a string)
    defined = set()
    referenced = set()
    for path in [*PACKAGE_DIR.glob("*.py"), *BENCH_DIR.glob("*.py")]:
        tree = ast.parse(path.read_text())
        if path.parent == PACKAGE_DIR:
            defined |= {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined - referenced == {"fourier_forward", "fourier_inverse"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def test_settable_values():
    # every defaulted function parameter, as "f(name=)", and every
    # defaulted dataclass field, as "Class.name": a value a caller may
    # leave out is an option, and a new one is an edit here
    found = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found |= {f"{node.name}.{item.target.id}" for item in node.body
                          if isinstance(item, ast.AnnAssign) and item.value is not None}
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                positional = [*args.posonlyargs, *args.args]
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found |= {f"{node.name}({a.arg}=)" for a in defaulted}
    assert found == {
        "TwistedRectangleQuery.beta", "TLattice.ratio", "build_field(selector=)",
        "make_bump_psi(nodes_per_axis=)", "lift_field(selector=)",
    }


def test_input_is_checked_only_by_the_errors_helpers():
    # numbers and np.asarray(..., dtype=) belong to require_int,
    # require_real and numeric; rect_contains converts its per-point xp
    # itself: on a 2-vector, numeric took 0.85 us a call and np.asarray
    # 0.11 us (2-core Xeon, numpy 2.4)
    importers, converters = set(), set()
    for path in PACKAGE_DIR.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Import) and "numbers" in [a.name for a in node.names]:
                    importers.add(path.stem)
                elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
                    importers.add(path.stem)
                elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "asarray"
                      and (len(node.args) > 1 or any(k.arg == "dtype" for k in node.keywords))):
                    converters.add((path.stem, getattr(top, "name", None)))
    assert importers == {"errors"}
    assert converters == {("errors", "numeric"), ("cone", "rect_contains")}


def test_poisson_symbol_has_one_node_loop():
    # the decay and the X/T factor are evaluated only inside
    # poisson._node_spectra; a second loop over nodes would call them
    callers = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in ("poisson_decay", "gradient_factor"):
                        callers.add((path.stem, getattr(top, "name", None)))
    assert callers == {("poisson", "_node_spectra")}


def test_subsets_are_enumerated_only_by_the_cone():
    # the n-subsets and the (n-1)-subsets of generators are enumerated
    # once each, by the cached properties of PolyhedralCone; every other
    # function reads those tables
    callers = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            defs = top.body if isinstance(top, ast.ClassDef) else [top]
            for item in defs:
                name = getattr(item, "name", None)
                qualname = f"{top.name}.{name}" if isinstance(top, ast.ClassDef) else name
                for node in ast.walk(item):
                    if isinstance(node, ast.Call) and "combinations" in (
                            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                        callers.add((path.stem, qualname))
    assert callers == {("cone", "PolyhedralCone.subsets"),
                       ("cone", "PolyhedralCone.facet_normals")}


def test_fields_come_from_the_sources_and_the_two_reducers():
    # the step to space belongs to the sources (the inverse FFT to
    # _grid_spectra, the contraction to _lift_spectra and to slice_grid's
    # one sum) and a field is built only by the reducers _materialize and
    # _magnitude_sq, and by read_field: a public function with a node loop
    # of its own would call one of these
    callers = set()
    for stem in ("poisson", "spectral"):
        for top in ast.parse((PACKAGE_DIR / f"{stem}.py").read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in ("OperatorField", "ifftn", "_contract"):
                        callers.add((name, stem, getattr(top, "name", None)))
    assert callers == {
        ("OperatorField", "poisson", "_materialize"),
        ("OperatorField", "poisson", "_magnitude_sq"),
        ("OperatorField", "poisson", "read_field"),
        ("ifftn", "poisson", "_grid_spectra"),
        ("_contract", "spectral", "_lift_spectra"),
        ("_contract", "spectral", "slice_grid"),
    }


def test_files_are_written_only_by_the_replace_helper():
    # a file opened for writing where one exists is truncated and
    # rewritten in place, which ext4 sends to the device on close (grid
    # module docstring); grid._replace_file unlinks it first
    writers = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                    modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
                    if any(not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))
                           for mode in modes):
                        writers.add((path.stem, getattr(top, "name", None)))
    assert writers == {("grid", "_replace_file")}


def test_console_scripts_import():
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def _loaded_after(script: str) -> set:
    """The names in sys.modules after `script` runs in a fresh
    interpreter."""
    script += "import sys\nprint(*sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    return set(out.stdout.split())


def _scipy(loaded: set) -> set:
    return {name for name in loaded if name.partition(".")[0] == "scipy"}


def test_planar_kernel_leaves_scipy_spatial_unimported():
    # scipy.spatial costs about 0.4 s and 38 MiB to import; the kernel
    # triangulates the dual from its own ray-facet incidence, on a planar
    # cone and on cones over a pentagon and a cyclic 3-polytope (points of
    # the moment curve), whose duals have 5 > 3 and 8 > 4 rays
    script = (
        "import numpy as np\n"
        "import tubeharm\n"
        "from tubeharm import cone\n"
        "c = cone.validate_cone([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])\n"
        "cone.cauchy_szego(c, [0.1 + 1.0j, -0.2 + 1.0j])\n"
        "for m, n in [(5, 3), (6, 4)]:\n"
        "    gens = np.vander(np.linspace(-1.0, 1.0, m), n, increasing=True)\n"
        "    c = cone.validate_cone(gens / np.linalg.norm(gens, axis=1, keepdims=True))\n"
        "    assert len(c.dual.rays) > n\n"
        "    cone.cauchy_szego(c, 1j * gens.sum(axis=0))\n"
    )
    assert _scipy(_loaded_after(script)) == set()


def test_poisson_fields_leave_scipy_fft_unimported():
    # no scipy module at all: scipy.fft is faster per transform than
    # numpy.fft, but importing it costs about 27 MiB of peak RSS and
    # 0.37 s, and any import here lands on the benchmark's setup time;
    # numpy.ma, which np.unique on an integer array imports, costs about
    # 1.6 MiB
    script = (
        "import numpy as np\n"
        "import tubeharm\n"
        "from tubeharm import cone, grid, poisson\n"
        "c = cone.validate_cone([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])\n"
        "spec = grid.GridSpec(n=2, sizes=(16, 16), box_half=4.0)\n"
        "f = grid.GridFunction(spec, np.ones(spec.sizes))\n"
        "lat = poisson.TLattice(m=3, t_min=0.5, levels=2)\n"
        "poisson.build_field(f, c, lat)\n"
        "poisson.gradient_magnitude_sq_field(f, c, lat)\n"
    )
    loaded = _loaded_after(script)
    assert _scipy(loaded) == set()
    assert "numpy.ma" not in loaded


def test_spectral_fields_leave_scipy_unimported():
    # the same guard on the direct-summation path
    script = (
        "import tubeharm\n"
        "from tubeharm import cone, grid, poisson, spectral\n"
        "c = cone.validate_cone([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])\n"
        "spec = grid.GridSpec(n=2, sizes=(16, 16), box_half=4.0)\n"
        "stf = spectral.make_bump_psi(c.dual, [1.0, 1.0], 0.4, nodes_per_axis=8)\n"
        "lat = poisson.TLattice(m=3, t_min=0.5, levels=2)\n"
        "spectral.boundary_grid(stf, spec)\n"
        "spectral.lift_field(stf, c, lat, spec)\n"
        "spectral.gradient_magnitude_sq_lift(stf, c, lat, spec)\n"
    )
    assert _scipy(_loaded_after(script)) == set()
