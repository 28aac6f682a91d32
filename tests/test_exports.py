"""Every name that a taskinfo module lists in ``__all__`` exists, so a
deleted function cannot leave a dangling export behind, and is reached by
the package, a demo, an acceptance criterion or a benchmark workload, so
no export lives on for its own tests alone; every private
function, method and class is used, so a refactor cannot leave a helper
behind that nothing calls; arrays are frozen in one place only; the CLI
converts no config value outside its reader; and one function calls the
network kernel."""

import ast
import collections
import importlib
import pathlib
import pkgutil
import re

import pytest

import taskinfo

MODULES = ["taskinfo"] + sorted(
    f"taskinfo.{m.name}" for m in pkgutil.iter_modules(taskinfo.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} has no __all__"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


SOURCES = {path: path.read_text()
           for path in sorted(pathlib.Path(taskinfo.__file__).parent.glob("*.py"))}

# what reaches the package from outside it: the demos, the acceptance
# criteria and the benchmark's workloads (not the unit tests)
ROOT = pathlib.Path(__file__).resolve().parent.parent
READERS = [*sorted((ROOT / "demos").glob("*.py")), ROOT / "tests" / "test_acceptance.py",
           ROOT / "perfbench" / "workloads.py"]

# exported, and reached by none of the above, on purpose
UNREACHED = {
    "finite_oracle.mle": "tests use it as a reference",
    "models.forward": "tests use it as a reference",
    "tasks.split_union": "checks the union property: a union splits back "
                         "into its parts",
    "tasks.save_dataset_csv": "writes the dataset format that a file task reads",
    "annealing.save_grid": "writes the grid format that anneal reads",
    "finite_oracle.beta_sufficient_statistics": "a paper quantity, checked "
                                                "against a brute-force reference",
    "finite_oracle.deterministic_complexity": "a paper quantity, checked "
                                              "against a brute-force reference",
    "distance.finetune_correlate": "the transfer test decides whether it stays",
}


def _aliases(tree) -> dict:
    """Each name that an import in tree binds, to the dotted path it
    stands for; a relative import is one of taskinfo's modules. The
    imports of every scope share one dict (a function may import an
    engine itself), so a name that two imports bind to different paths
    is an error: its uses could not be resolved."""
    out = {}

    def bind(name, path):
        if out.setdefault(name, path) != path:
            raise ValueError(f"{name!r} is bound to both {out[name]} and {path}")

    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            for a in n.names:       # `import a.b` binds a, `import a.b as c` a.b
                path = a.name if a.asname else a.name.partition(".")[0]
                bind(a.asname or path, path)
        elif isinstance(n, ast.ImportFrom):
            base = ".".join(filter(None, ["taskinfo"] * (n.level > 0) + [n.module]))
            for a in n.names:
                bind(a.asname or a.name, f"{base}.{a.name}")
    return out


def test_aliases_refuse_a_name_bound_to_two_paths():
    same = "from . import variational as vi\ndef f():\n    from . import variational as vi\n"
    assert _aliases(ast.parse(same)) == {"vi": "taskinfo.variational"}
    clash = "from . import variational as vi\ndef f():\n    from . import models as vi\n"
    with pytest.raises(ValueError, match="'vi' is bound to both"):
        _aliases(ast.parse(clash))


def _references(node, aliases: dict, module: str | None = None) -> set:
    """The dotted path of every name and attribute chain that node reads,
    resolved through ``aliases``; a bare name that no import binds is one
    of ``module``'s own (none outside the package)."""
    def resolve(n):
        if isinstance(n, ast.Name):
            return aliases.get(n.id, module and f"{module}.{n.id}")
        if isinstance(n, ast.Attribute):
            base = resolve(n.value)
            return base and f"{base}.{n.attr}"
        return None

    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name)
                                            and isinstance(n.ctx, ast.Load)):
            path = resolve(n)
            while path:             # a.b.c reads a.b and a too
                found.add(path)
                path = path.rpartition(".")[0]
    return found


def _binds(node, name: str) -> bool:
    """node is the top-level statement that defines name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name == name
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any((a.asname or a.name) == name for a in node.names)
    return any(isinstance(t, ast.Name) and t.id == name
               for t in getattr(node, "targets", [getattr(node, "target", None)]))


def test_every_exported_name_is_reached():
    # a use is resolved through the reader's imports: an attribute of some
    # other object that shares an export's name (g.lagrangian) reaches nothing
    outside = set()
    for path in READERS:
        tree = ast.parse(path.read_text())
        outside |= _references(tree, _aliases(tree))
    # per module: each top-level statement with the paths it reads
    statements = {}
    for path, text in SOURCES.items():
        module = "taskinfo" if path.stem == "__init__" else f"taskinfo.{path.stem}"
        tree = ast.parse(text)
        aliases = _aliases(tree)
        statements[module] = [(node, _references(node, aliases, module))
                              for node in tree.body]
    unreached = []
    for module, body in statements.items():
        others = set().union(*(refs for m, b in statements.items() if m != module
                               for _, refs in b))
        for name in importlib.import_module(module).__all__:
            # a module's own uses count outside the statement defining name
            own = set().union(*(refs for node, refs in body if not _binds(node, name)))
            if f"{module}.{name}" not in outside | others | own:
                unreached.append(f"{module.removeprefix('taskinfo.')}.{name}")
    # every stated exception is still exported and still needed
    assert sorted(unreached) == sorted(UNREACHED)


def _private_definitions():
    for path, text in SOURCES.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                yield f"{path.name}:{node.lineno}", node.name


def test_every_private_definition_is_referenced():
    # a name counts as used when it occurs in the package more often than
    # it is defined there (two methods of one name share their uses)
    defs = list(_private_definitions())
    assert defs
    count = {name: sum(len(re.findall(rf"\b{name}\b", text))
                       for text in SOURCES.values()) for _, name in defs}
    defined = collections.Counter(name for _, name in defs)
    assert [f"{at} {name}" for at, name in defs if count[name] <= defined[name]] == []


def _sites(match) -> set:
    """(file, enclosing top-level definition) of every node of the package
    sources for which match(node) holds."""
    where = set()
    for path, text in SOURCES.items():
        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = scope or node.name
            if match(node):
                where.add((path.name, scope))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)
        visit(ast.parse(text), "")
    return where


def test_arrays_are_frozen_only_by_freeze_and_the_family():
    # a value type copies and freezes through tasks._freeze; only the
    # hypothesis family freezes, in place, the tables it builds itself
    where = _sites(lambda node: isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Attribute) and t.attr == "writeable"
        and isinstance(t.value, ast.Attribute) and t.value.attr == "flags"
        for t in node.targets))
    assert where and where <= {("tasks.py", "_freeze"),
                               ("finite_oracle.py", "HypothesisFamily")}, where


def _raw_config_read(arg) -> bool:
    """arg is spec["key"] or spec.get("key", ...): a config value as JSON gave it."""
    if isinstance(arg, ast.Subscript):
        return isinstance(arg.slice, ast.Constant) and isinstance(arg.slice.value, str)
    return (isinstance(arg, ast.Call) and getattr(arg.func, "attr", None) == "get"
            and bool(arg.args) and isinstance(arg.args[0], ast.Constant)
            and isinstance(arg.args[0].value, str))


def test_cli_converts_no_config_value_outside_its_reader():
    # a config number or list goes through cli._number/_numbers/_list, which
    # name the field and refuse booleans, strings and non-finite numbers; a
    # bare float(spec["key"]) or np.asarray(spec.get("key")) would let one by.
    # A file name goes through cli._file_name: a raw integer would be opened
    # as a file descriptor
    converters = {"float", "int", "tuple", "np.asarray", "np.array",
                  "os.path.exists", "open", "anneal_mod.load_grid",
                  "tasks_mod.load_dataset_csv"}
    tree = ast.parse(SOURCES[pathlib.Path(taskinfo.__file__).parent / "cli.py"])
    lines = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                   and ast.unparse(node.func) in converters
                   and any(_raw_config_read(a) for a in node.args))
    assert lines == []


@pytest.mark.parametrize("kernel", ["_block_loss_and_grad", "_block_constants"])
def test_only_run_blocks_calls_the_network_kernel(kernel):
    # one function knows the kernel's calling convention: models._run_blocks
    # builds each call's constants and binds the calls to its caller's arrays
    where = _sites(lambda node: isinstance(node, ast.Call) and kernel in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))
    assert where == {("models.py", "_run_blocks")}, where
