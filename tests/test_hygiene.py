"""Source hygiene: every name a library module imports is used there,
only ``matcore`` reduces matrices, only ``observers`` reads the bias
basis, only ``cli`` reads the export's row block, the CLI restates no
run default of ``SimConfig``, only ``SimRecord.errors_and_V`` computes a
record's errors, only checks of the per-sample view read ``samples`` and
only ``SimRecord.samples`` builds a ``SimSample``, only two functions
build an ``ErrorSample`` and only its norms are cached, no loop calls a
per-time truth callable but one helper's, and each name of the package
root is declared once, in a module's ``__all__``."""

import ast
import dataclasses
import functools
import importlib
import types
from pathlib import Path

import pytest

import lieobs
from lieobs.analysis import ErrorSample
from lieobs.integrate import SimConfig, SimRecord, SimSample

SRC = Path(__file__).resolve().parent.parent / "src" / "lieobs"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing else in it reads.

    A name is read where it appears as a ``Name`` (which includes the root
    of an attribute chain) or as a whole string, as in ``__all__``.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.value for n in ast.walk(tree)
             if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = ('"""Uses math."""\nimport math\nimport numpy as np\nfrom os import path, sep\n\n'
              '__all__ = ["sep"]\nx = np.asarray(path.join("a", "b"))\n')
    assert unused_imports(source) == ["math (line 2)"]


# numpy functions that reduce matrices, and the modules allowed to use
# them: the Frobenius norm, singular values, inverses and inner products
# each have one home in matcore.
REDUCTIONS = {
    "linalg.norm": set(),
    "linalg.svd": {"matcore.py"},
    "linalg.inv": {"matcore.py"},
    "vecdot": {"matcore.py"},
}


def numpy_names(source: str) -> list[tuple[str, int]]:
    """``(name, line)`` of every numpy attribute a module reads or imports,
    spelt from numpy's root: ``np.linalg.norm`` gives ``linalg.norm``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            root, *rest = ast.unparse(node).split(".")
            if root in ("np", "numpy"):
                names.append((".".join(rest), node.lineno))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            prefix = node.module.split(".")[1:]
            names += [(".".join([*prefix, alias.name]), node.lineno) for alias in node.names]
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_matrix_reductions_only_in_matcore(path):
    found = [f"np.{name} (line {line})" for name, line in numpy_names(path.read_text())
             if name in REDUCTIONS and path.name not in REDUCTIONS[name]]
    assert found == []


def test_detects_numpy_names():
    source = ("import numpy as np\nfrom numpy.linalg import svd\n"
              "x = np.linalg.norm(np.eye(2)).sum()\n")
    names = numpy_names(source)
    assert ("linalg.svd", 2) in names and ("linalg.norm", 3) in names


def _through_reshape(node) -> bool:
    """Whether a write to the target ``node`` lands in the result of a
    ``reshape(...)`` call, directly or through views taken of it."""
    if isinstance(node, ast.Call):
        func = node.func
        if getattr(func, "attr", getattr(func, "id", None)) == "reshape":
            return True
        return any(_through_reshape(n) for n in (func, *node.args))
    if isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
        return _through_reshape(node.value)
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(_through_reshape(n) for n in node.elts)
    return False


def reshape_writes(source: str) -> list[int]:
    """Lines of the assignments and augmented assignments that write
    through the result of a ``reshape(...)`` call. ``reshape`` silently
    copies a stack it cannot view, so such a write can be lost."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(_through_reshape(t) for t in targets):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_write_through_reshape(path):
    assert reshape_writes(path.read_text()) == []


def test_detects_a_write_through_reshape():
    source = ("x = a.reshape(4, 9)\n"
              "a.reshape(4, 9)[:, ::4] += 1.0\n"
              "b[0], np.reshape(a, (4, 9)).T[0] = 1.0, 2.0\n"
              "np.einsum('ii->i', a.reshape(3, 3))[...] = 0.0\n"
              "a[...] = c.reshape(a.shape)\n"
              "np.einsum('...ii->...i', a)[...] += 1.0\n")
    assert reshape_writes(source) == [2, 3, 4]


def name_reads(source: str, name: str) -> list[int]:
    """Lines that read or import ``name``: as a plain name, as an attribute
    (``observers._bias_basis``) or in a ``from ... import``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.ImportFrom)
                and any(alias.name == name for alias in node.names)):
            lines.add(node.lineno)
    return sorted(lines)


# The bias coordinates have one owner: the operator builder, which
# derives them from _bias_basis and hands them to its callers.
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "observers.py"),
                         ids=lambda p: p.name)
def test_bias_basis_read_only_in_observers(path):
    assert name_reads(path.read_text(), "_bias_basis") == []


# The export's row block is a memory policy of the one caller that walks
# a record in blocks; the library takes whatever stack it is given.
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "cli.py"),
                         ids=lambda p: p.name)
def test_row_block_read_only_in_cli(path):
    assert name_reads(path.read_text(), "_ROW_BLOCK") == []


# The run defaults have one home, SimConfig: the CLI passes a run field
# only where a config gives it, and a landmark set's construction only
# where its object does. The CLI's one default of its own is the "auto"
# epsilon, and truth, which SimConfig does not default, keeps the CLI's.
RESTATED = ({field.name for field in dataclasses.fields(SimConfig)
             if field.default is not dataclasses.MISSING} - {"lyapunov_epsilon"}) | {"construction"}
CONFIG_READERS = ("_build_sim_config", "_parse_model")


def restated_defaults(source: str, functions, keys) -> list[str]:
    """``key (line N)`` of each ``.get(key, default)`` or
    ``.setdefault(key, default)`` call in the functions named ``functions``
    whose key is one of ``keys``."""
    lines = lines_of_functions(source, functions)
    found = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and node.lineno in lines
             and isinstance(node.func, ast.Attribute) and node.func.attr in ("get", "setdefault")
             and len(node.args) + len(node.keywords) >= 2
             and isinstance(node.args[0], ast.Constant) and node.args[0].value in keys]
    return [f"{node.args[0].value} (line {node.lineno})"
            for node in sorted(found, key=lambda node: node.lineno)]


def test_cli_restates_no_run_default():
    source = (SRC / "cli.py").read_text()
    assert restated_defaults(source, CONFIG_READERS, RESTATED) == []
    for name in CONFIG_READERS:
        assert lines_of_functions(source, (name,)), name
    assert {"horizon", "step", "record_stride", "bounds", "strict_gains"} < RESTATED


def test_detects_a_restated_default():
    source = ("def _build_sim_config(cfg):\n"
              "    h = _read(cfg.get('horizon', 30.0), 'horizon')\n"
              "    eps = cfg.get('lyapunov_epsilon', 'auto')\n"
              "    run.setdefault('strict_gains', False)\n"
              "    b = cfg.get('bounds')\n"
              "    t = cfg.get('truth', 'se3-benchmark')\n"
              "def _parse_model(raw, kind):\n"
              "    return LandmarkSet(S, W, lm.get('construction', default='SWST'))\n"
              "def other(cfg):\n"
              "    return cfg.get('step', 1e-3)\n")
    assert restated_defaults(source, CONFIG_READERS, RESTATED) == [
        "horizon (line 2)", "strict_gains (line 4)", "construction (line 8)"]


# A record's errors and Lyapunov values have one path, SimRecord.errors_and_V,
# which computes them for the rows a caller asks for; the record keeps none.
ERROR_FUNCTIONS = ("compute_errors", "lyapunov_value")


def test_one_error_path():
    reads = []
    for path in MODULES:
        source = path.read_text()
        allowed = set()
        if path.name == "integrate.py":
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.ImportFrom):
                    allowed.add(node.lineno)
                elif isinstance(node, ast.FunctionDef) and node.name == "errors_and_V":
                    allowed.update(range(node.lineno, node.end_lineno + 1))
        reads += [(path.name, name, line) for name in ERROR_FUNCTIONS
                  for line in name_reads(source, name) if line not in allowed]
    assert reads == []
    fields = {field.name for field in dataclasses.fields(SimRecord)}
    for name in ("errors", "V", "_whole"):
        assert name not in fields and not hasattr(SimRecord, name), name


# The per-sample view serves the benchmark's one reader. The library and
# its tests read the columns and errors_and_V; only these checks of the
# view itself read it, and only SimRecord.samples builds a SimSample.
SAMPLES_CHECKS = {"test_integrate.py": ("assert_columns_match_samples",
                                        "test_errors_and_V_computed_once_per_run",
                                        "test_samples_do_not_share_chunk_memory")}
TESTS = sorted((SRC.parent.parent / "tests").glob("*.py"))


def lines_of_functions(source: str, names) -> set[int]:
    """The lines of the functions named ``names``, wherever they are defined."""
    return {line for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name in names
            for line in range(node.lineno, node.end_lineno + 1)}


def calls_of(source: str, name: str) -> list[int]:
    """Lines that call ``name``, plainly or as an attribute."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Call)
                   and (isinstance(node.func, ast.Name) and node.func.id == name
                        or isinstance(node.func, ast.Attribute) and node.func.attr == name)})


def test_per_sample_view_serves_one_reader():
    reads, builds = [], []
    for path in MODULES + TESTS:
        source = path.read_text()
        allowed = lines_of_functions(source, SAMPLES_CHECKS.get(path.name, ()))
        reads += [(path.name, line) for line in name_reads(source, "samples")
                  if line not in allowed]
        allowed = lines_of_functions(source, ("samples",)) if path.name == "integrate.py" else ()
        builds += [(path.name, line) for line in calls_of(source, "SimSample")
                   if line not in allowed]
    assert reads == [] and builds == []
    assert [field.name for field in dataclasses.fields(SimSample)] == ["t", "g", "errors"]
    assert isinstance(vars(SimRecord)["samples"], property)
    assert not any(isinstance(value, functools.cached_property)
                   for value in vars(SimRecord).values())


def test_detects_a_samples_read_and_a_sample_built():
    source = ("rows = record.samples\n"
              "def assert_columns_match_samples(rec):\n"
              "    return rec.samples\n"
              "s = SimSample(t, g, errors)\n"
              "s = lieobs.integrate.SimSample(t, g, errors)\n")
    allowed = lines_of_functions(source, SAMPLES_CHECKS["test_integrate.py"])
    assert [line for line in name_reads(source, "samples") if line not in allowed] == [1]
    assert calls_of(source, "SimSample") == [4, 5]


# An ErrorSample computes each norm once, and the rows of a stack share
# the stack's: only compute_errors and _error_rows build one, so no row
# recomputes its norms, and no other cached_property is in the package.
ERROR_SAMPLE_BUILDERS = {"analysis.py": ("compute_errors", "_error_rows")}
NORMS = ["ErrorSample.err_EA", "ErrorSample.err_eb", "ErrorSample.err_Eg"]


def cached_uses(source: str) -> list[str]:
    """``Class.method`` of each method decorated with ``cached_property``,
    plainly or as ``functools.cached_property``, and ``line N`` of each
    other use of the name but its import."""
    found, decorators = [], set()
    tree = ast.parse(source)
    for cls in ast.walk(tree):
        methods = cls.body if isinstance(cls, ast.ClassDef) else ()
        for fn in (fn for fn in methods if isinstance(fn, ast.FunctionDef)):
            marks = [d.lineno for d in fn.decorator_list
                     if name_reads(ast.unparse(d), "cached_property")]
            found += [f"{cls.name}.{fn.name}"] * len(marks)
            decorators.update(marks)
    imports = {node.lineno for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))}
    return found + [f"line {line}" for line in name_reads(source, "cached_property")
                    if line not in decorators | imports]


def test_error_sample_norms_are_shared_not_recomputed():
    builds, cached = [], []
    for path in MODULES:
        source = path.read_text()
        allowed = lines_of_functions(source, ERROR_SAMPLE_BUILDERS.get(path.name, ()))
        builds += [(path.name, line) for line in calls_of(source, "ErrorSample")
                   if line not in allowed]
        cached += cached_uses(source)
    assert builds == [] and cached == NORMS
    assert [name for name, value in vars(ErrorSample).items()
            if isinstance(value, functools.cached_property)] == [n.split(".")[1] for n in NORMS]


def test_detects_an_error_sample_built_and_a_cache():
    source = ("import functools\nfrom functools import cached_property\n"
              "def compute_errors(kind):\n    return ErrorSample(t, *stacks)\n"
              "def rows(err):\n    return [analysis.ErrorSample(t, *m) for m in err]\n"
              "class ErrorSample:\n    @cached_property\n    def err_EA(self):\n        pass\n"
              "class Record:\n    @functools.cached_property\n    def errors(self):\n"
              "        pass\n"
              "norm = cached_property(frob_norm)\n")
    allowed = lines_of_functions(source, ERROR_SAMPLE_BUILDERS["analysis.py"])
    assert [line for line in calls_of(source, "ErrorSample") if line not in allowed] == [6]
    assert cached_uses(source) == ["ErrorSample.err_EA", "Record.errors", "line 15"]


def test_detects_a_bias_basis_read():
    source = ("from .observers import _bias_basis as basis, gain_floor\n"
              "import lieobs.observers\n"
              "C = lieobs.observers._bias_basis(kind, group)\n"
              "D = basis(kind, group).reshape(-1, 16)\n"
              "E = _bias_basis\n")
    assert name_reads(source, "_bias_basis") == [1, 3, 5]


PER_TIME = ("velocity_of", "F_at", "F_dot_at")
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def per_time_calls_in_loops(source: str) -> list[int]:
    """Lines where a loop or comprehension calls a per-time truth callable
    as a method: ``.velocity_of``, ``.F_at`` or ``.F_dot_at``."""
    lines = set()
    for loop in ast.walk(ast.parse(source)):
        if isinstance(loop, LOOPS):
            lines.update(node.lineno for node in ast.walk(loop)
                         if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                         and node.func.attr in PER_TIME)
    return sorted(lines)


# A per-time callable is called over times in one place, the integrator's
# _each_time, so that taking arrays of times is one change.
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_per_time_callables_looped_only_in_one_helper(path):
    assert per_time_calls_in_loops(path.read_text()) == []


def test_detects_a_per_time_call_in_a_loop():
    source = ("xi = np.stack([truth.velocity_of(float(t)) for t in ts])\n"
              "F0 = model.F_at(0.0)\n"
              "for t in ts:\n"
              "    out.append(model.F_dot_at(t))\n"
              "F = _each_time(model.F_at, ts)\n"
              "G = {t: config.model.F_at(t) for t in ts}\n"
              "while ts:\n"
              "    fn(ts.pop())\n")
    assert per_time_calls_in_loops(source) == [1, 4, 6]


ROOT = SRC.parent.parent
PY_FILES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def parses_on_3_10(source: str) -> bool:
    """Whether ``source`` parses with Python 3.10's grammar, the oldest
    that ``pyproject.toml`` accepts (as far as ``ast``'s
    ``feature_version`` checks it)."""
    try:
        ast.parse(source, feature_version=(3, 10))
    except SyntaxError:
        return False
    return True


@pytest.mark.parametrize("path", PY_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    assert parses_on_3_10(path.read_text())


def test_detects_syntax_newer_than_3_10():
    assert parses_on_3_10("try:\n    pass\nexcept ValueError:\n    pass\n")
    assert not parses_on_3_10("try:\n    pass\nexcept* ValueError:\n    pass\n")


# The package root re-exports its modules' __all__ lists, so each public
# name is declared once, in the module that defines it.
ROOT_MODULES = ("analysis", "errors", "integrate", "kinematics", "liegroup", "matcore",
                "observers")


def test_root_names_are_declared_once_in_a_module_all():
    modules = [importlib.import_module(f"lieobs.{name}") for name in ROOT_MODULES]
    for name in dir(lieobs):
        value = getattr(lieobs, name)
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        homes = [m for m in modules if name in m.__all__]
        assert len(homes) == 1, f"{name} is declared in {len(homes)} __all__ lists"
        assert value is getattr(homes[0], name)
    for module in modules:
        for name in module.__all__:
            assert getattr(lieobs, name) is getattr(module, name)
