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

A third requires ``RunConfig.resolve_augs`` to be called only from
``pipeline.stage_augs`` and ``evalharness.evaluate_scores`` only from
``pipeline.score_stage``: each stage's recipe has one wiring. Likewise
``pretrain.train_epoch`` alone calls ``loss_shift`` and ``encoder.backward``,
and it and the pre-training probe alone call ``two_views``.

A fourth keeps threads and foreign calls where they are owned: ``threading``
only in ``objective`` (the ensemble's producer thread) and ``blas`` (its hold
lock), ``ctypes`` only in ``blas``. No module imports ``concurrent`` or
``multiprocessing``: the package starts no processes, and grid cells run in turn.
No module imports ``os`` either, so none reads the environment: a command's
configuration comes only from its preset, file, snapshot and flags.

A fifth lets no function or method call ``data.require`` more than once. Each
object passes all of its rules as ``(ok, message)`` pairs to one call, so one
error names every failing rule; a second call would stop at the first.

A sixth keeps one path per driver job in ``pipeline``. The four experiment
drivers alone call ``_check``, once each, before anything trains; besides it
only ``cli.resolve_config``, the CLI's one configuration entry point, and
``pipeline.prepare`` call ``RunConfig.validated``, so no command rewrites a
validated configuration; and ``pipeline.build_splits`` alone calls
``data.build_scenario``, so a grid cell and a command split a pool alike.

A seventh keeps one fit site and one refit site for the prototypes:
``prototypes.fit`` is called only by ``RunConfig.fit_prototypes``, which
splits the set into shift slots, and by ``prototypes.refresh``; and
``prototypes.refresh`` only by ``evalharness.finetune_loop``, where the
refresh follows from the slot count.

An eighth keeps the stage configs to the fields the program sets: every field
of each class in ``STAGE_CONFIGS`` is passed, by keyword or by position, at
some call of that class in ``src/protoad``. A field that no construction site
passes holds its default everywhere and belongs in a module constant.
"""
import ast
import dataclasses
from collections import Counter
from pathlib import Path

from protoad.augment import StrongAugConfig, WeakAugConfig
from protoad.data import ScenarioConfig, SyntheticSpec
from protoad.encoder import EncoderDims
from protoad.evalharness import FinetuneConfig
from protoad.pretrain import PretrainConfig

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

STAGE_CONFIGS = (WeakAugConfig, StrongAugConfig, SyntheticSpec, ScenarioConfig,
                 EncoderDims, PretrainConfig, FinetuneConfig)

IMPORT_OWNERS = {"threading": {"objective", "blas"}, "ctypes": {"blas"},
                 "concurrent": set(), "multiprocessing": set(), "os": set()}


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


def call_counts(callee: str) -> Counter:
    """Per ``src/protoad`` function that calls ``callee``: its qualified name, and
    how many calls of ``callee`` it holds."""
    out = Counter()

    def visit(node, qualified):
        for child in ast.iter_child_nodes(node):
            name = qualified
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qualified}.{child.name}"
            elif isinstance(child, ast.Call):
                f = child.func
                if callee in (getattr(f, "id", None), getattr(f, "attr", None)):
                    out[qualified] += 1
            visit(child, name)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    return out


def callers(callee: str) -> set:
    """Qualified names of the ``src/protoad`` functions that call ``callee``."""
    return set(call_counts(callee))


def test_only_entry_sites_call_as_f64():
    found = callers("as_f64")
    assert not found - ENTRY_SITES, f"as_f64 outside an entry site: " \
                                    f"{sorted(found - ENTRY_SITES)}"
    assert not ENTRY_SITES - found, f"entry sites that no longer call as_f64: " \
                                    f"{sorted(ENTRY_SITES - found)}"


def test_augmentations_and_scoring_each_have_one_caller():
    assert callers("resolve_augs") == {"pipeline.stage_augs"}
    assert callers("evaluate_scores") == {"pipeline.score_stage"}


def test_training_views_loss_and_backward_run_in_the_one_batch_step():
    # The batch step draws its own views; the probe draws its fixed pair once.
    assert callers("two_views") == {"pretrain.train_epoch", "pretrain.pretrain_loop"}
    assert callers("loss_shift") == callers("backward") == {"pretrain.train_epoch"}


def test_every_rule_set_is_one_require_call():
    repeated = {name: n for name, n in call_counts("require").items() if n > 1}
    assert not repeated, f"call require once with every rule: {repeated}"


def test_the_four_drivers_alone_call_the_up_front_check():
    assert callers("_check") == {"pipeline.run_grid", "pipeline.run_pollution_sweep",
                                 "pipeline.run_ablation", "pipeline.prototype_count_sweep"}


def test_configurations_are_validated_only_where_they_enter():
    assert callers("validated") == {"cli.resolve_config", "pipeline.prepare"}


def test_build_splits_is_the_one_split_builder():
    assert callers("build_scenario") == {"pipeline.build_splits"}


def test_prototypes_have_one_fit_site_and_one_refit_site():
    assert callers("fit") == {"config.RunConfig.fit_prototypes", "prototypes.refresh"}
    assert callers("refresh") == {"evalharness.finetune_loop"}


def importers(modules) -> dict:
    """Per top-level module name in ``modules``: the ``src/protoad`` modules importing it."""
    out = {name: set() for name in modules}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] in out:
                    out[name.split(".")[0]].add(path.stem)
    return out


def test_threads_and_foreign_calls_are_imported_only_by_their_owners():
    assert importers(IMPORT_OWNERS) == IMPORT_OWNERS


def passed_fields(cls) -> set:
    """The fields of dataclass ``cls`` that some call of it in ``src/protoad``
    passes, by keyword or by position."""
    order = [f.name for f in dataclasses.fields(cls)]
    out = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call) and cls.__name__ in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                out |= set(order[:len(node.args)])
                out |= {kw.arg for kw in node.keywords}
    return out


def test_every_stage_config_field_is_passed_at_a_construction_site():
    unset = {f"{cls.__name__}.{f.name}" for cls in STAGE_CONFIGS
             for f in dataclasses.fields(cls) if f.name not in passed_fields(cls)}
    assert not unset, f"fields no construction site passes: {sorted(unset)}"
