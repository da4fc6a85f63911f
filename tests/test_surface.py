"""Guards on the package surface: ``src/protoad`` ships only code that runs,
and checks finiteness only where arrays enter it.

The test parses ``src/protoad`` and ``perfbench/`` and lists every function,
class and method defined in ``src/protoad`` whose name is referenced nowhere
in either tree. A module-level name counts as referenced when it is loaded
(outside a function that binds a local of the same name), imported or named
as an attribute or a string; a method or property only as an attribute or
a string. Dunder methods run implicitly and are skipped. Anything else left
unreferenced is dead code or a helper only the tests call, and belongs in
``tests/`` or nowhere, unless it is on the allow-list below.

A second test lists the functions of ``src/protoad`` that call
``mathcore.as_f64`` and requires them to be exactly the entry sites that the
``mathcore`` docstring names, where outside data becomes a program object.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE, BENCH = ROOT / "src" / "protoad", ROOT / "perfbench"

ALLOWED = {
    "data.Dataset.eval_true_class":
        "the ground-truth accessor of Dataset's documented evaluation surface",
    "encoder.EncoderParams.to_vector":
        "the flat parameter vector that gradient checks perturb",
    "encoder.EncoderParams.from_vector":
        "rebuilds a bundle from a perturbed flat vector in gradient checks",
    "pretrain.decompose_loss":
        "the alignment/uniformity split of the contrastive loss, checked against it",
    "pipeline.prototype_count_sweep":
        "the prototype-count experiment driver, called as a library function",
}

ENTRY_SITES = {
    "data.Pool.__post_init__", "data.Dataset.__init__",
    "encoder.EncoderParams.__init__", "encoder.EncoderParams.from_vector",
    "prototypes.PrototypeSet.__post_init__", "augment.ShiftFamily.__init__",
    "evalharness.auroc",
}


def _bound_locally(fn: ast.AST) -> set:
    a = fn.args
    names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
    names |= {x.arg for x in (a.vararg, a.kwarg) if x is not None}
    return names | {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _references(tree: ast.AST):
    """``(names, attributes)`` that ``tree`` refers to; strings count as attributes."""
    names, attrs = set(), set()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local = local | _bound_locally(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.add(node.value)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return names, attrs


def _definitions(tree: ast.AST, module: str):
    """``(qualified name, name, is_method)`` of every def and class in ``tree``."""
    out = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((f"{module}.{prefix}{child.name}", child.name, in_class))
                visit(child, f"{prefix}{child.name}.", isinstance(child, ast.ClassDef))
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return out


def unreferenced_definitions() -> set:
    defs, names, attrs = [], set(), set()
    for path in sorted(PACKAGE.rglob("*.py")) + sorted(BENCH.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        n, a = _references(tree)
        names |= n
        attrs |= a
        if PACKAGE in path.parents:
            defs += _definitions(tree, path.stem)
    return {qualified for qualified, name, is_method in defs
            if not (name.startswith("__") and name.endswith("__"))
            and name not in attrs and (is_method or name not in names)}


def test_package_defines_nothing_that_neither_it_nor_the_bench_references():
    found = unreferenced_definitions()
    assert not found - set(ALLOWED), f"unreferenced, not allowed: {sorted(found - set(ALLOWED))}"
    assert not set(ALLOWED) - found, f"allowed but now referenced or gone: " \
                                     f"{sorted(set(ALLOWED) - found)}"


def as_f64_callers() -> set:
    """Qualified names of the ``src/protoad`` functions that call ``as_f64``."""
    out = set()

    def visit(node, qualified):
        for child in ast.iter_child_nodes(node):
            name = qualified
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qualified}.{child.name}"
            elif isinstance(child, ast.Call):
                f = child.func
                if getattr(f, "id", None) == "as_f64" or getattr(f, "attr", None) == "as_f64":
                    out.add(qualified)
            visit(child, name)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    return out


def test_only_entry_sites_call_as_f64():
    callers = as_f64_callers()
    assert not callers - ENTRY_SITES, f"as_f64 outside an entry site: " \
                                      f"{sorted(callers - ENTRY_SITES)}"
    assert not ENTRY_SITES - callers, f"entry sites that no longer call as_f64: " \
                                      f"{sorted(ENTRY_SITES - callers)}"
