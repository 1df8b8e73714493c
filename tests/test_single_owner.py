"""One owner per random-draw concept in the package source.

Categorical draws have two owners: ``shifts.categorical`` (numpy
``choice``'s own steps, for ``ShiftDistribution.quantile``, the one inverse
CDF of every shift law's own nodes, the sieve level and the Dirichlet
move's empty atoms) and ``posterior._search`` (the Gibbs
shift and atom draws, through ``_inverse_cdf`` and the smooth prior's block
draw).  Every stick fraction goes through ``priors.stick_weights``; a second
``choice`` or ``beta`` call would fork a stream that the equivalence tests
pin.  The bound-shifted kernel's floor-and-redo has two callers: the log
density and the Gibbs sampler's exact draw.  The shift integral's row
layout, its factor and its basis live in ``mixture``, and the rows have
three builders: the log density, the exact draw and the smooth prior's
block-envelope draw.  Threads and stream splits have one owner,
``model.task_map``, whose per-task children keep an output independent
of the worker count.  Only two functions branch on a shift law's
representation, and only ``shifts`` tabulates a Fourier density.  The
Gibbs level move reads the sweep's sufficient statistic, not the curves.
Every export resolves, so a deletion leaves no stale name behind.
"""

import ast
import importlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "simlab"


def _calls(attr: str, keep=lambda call: True) -> list[tuple[str, str | None, int]]:
    """(file, enclosing function, line) of every ``<expr>.attr(...)`` or
    ``attr(...)`` call that ``keep`` accepts; a method is named ``Class.method``."""
    found = []

    def visit(node, owner, name, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, owner, name, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{cls}.{child.name}" if cls else child.name, name)
                continue
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and attr in (
                getattr(func, "attr", None), getattr(func, "id", None)
            ) and keep(child):
                found.append((name, owner, child.lineno))
            visit(child, owner, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.name)
    return found


def test_no_choice_calls():
    assert _calls("choice") == []


def test_categorical_draw_callers():
    calls = _calls("categorical")
    assert sorted((f, owner) for f, owner, _ in calls) == [
        ("posterior.py", "_DirichletShifts.update"),
        ("priors.py", "sample_f"),
        ("shifts.py", "ShiftDistribution.quantile"),
    ]
    calls = _calls("_search")
    assert sorted((f, owner) for f, owner, _ in calls) == [
        ("posterior.py", "_SmoothShifts.draw"),
        ("posterior.py", "_SmoothShifts.draw"),
        ("posterior.py", "_inverse_cdf"),
    ]


def test_one_measure_per_shift_law():
    # a law is sampled from the nodes it is evaluated on: one inverse CDF, on
    # the base class, and no second tabulation (a CDF of cells, a fixed grid)
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    owners = sorted(
        (name, cls.name)
        for name, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if getattr(node, "name", None) == "quantile"
    )
    assert owners == [("shifts.py", "ShiftDistribution")]
    named = [p.name for p in sorted(SRC.glob("*.py"))
             if "SHIFT_GRID" in p.read_text() or "cdf_values" in p.read_text()]
    assert named == []


def test_beta_only_in_stick_weights():
    # exactly one call: an empty source directory fails here too
    calls = _calls("beta")
    assert [(f, owner) for f, owner, _ in calls] == [("priors.py", "stick_weights")]


def test_bounded_reduce_callers():
    calls = _calls("_bounded_reduce")
    assert sorted((f, owner) for f, owner, _ in calls) == [
        ("mixture.py", "_log_density"),
        ("posterior.py", "_exact_draw"),
    ]


def test_shift_integral_helpers_defined_only_in_mixture():
    names = {"_fourier_basis", "_window", "_draw_factor", "_shifted_rows"}
    defined = sorted(
        (path.name, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in names
    )
    assert defined == [("mixture.py", name) for name in sorted(names)]


def test_shifted_rows_callers():
    calls = _calls("_shifted_rows")
    assert sorted((f, owner) for f, owner, _ in calls) == [
        ("mixture.py", "_log_density"),
        ("posterior.py", "_SmoothShifts.draw"),
        ("posterior.py", "_exact_draw"),
    ]


def test_threads_and_stream_splits_only_in_task_map():
    # simulate splits its integer seed into per-curve SeedSequence children;
    # every Generator is split, and every thread pool started, by task_map
    assert [(f, owner) for f, owner, _ in _calls("ThreadPoolExecutor")] == [
        ("model.py", "task_map")
    ]
    assert sorted((f, owner) for f, owner, _ in _calls("spawn")) == [
        ("model.py", "simulate"),
        ("model.py", "task_map"),
    ]


def test_task_map_callers():
    calls = _calls("task_map")
    assert sorted((f, owner) for f, owner, _ in calls) == [
        ("cli.py", "distance_verification_rows"),
        ("nets.py", "fano_tv_certificate"),
    ]


def test_representation_branches_only_in_tv_density_and_budget_nodes():
    # every other caller goes through the ShiftDistribution methods (the
    # shift integral starts from the law's own nodes, in _law_nodes), and a
    # Fourier density has one tabulation, no conversion to another grid law
    kinds = {"Discrete", "GridDensity", "FourierDensity"}

    def on_kind(call):
        return any(getattr(n, "id", getattr(n, "attr", None)) in kinds
                   for arg in call.args[1:] for n in ast.walk(arg))

    calls = _calls("isinstance", on_kind)
    assert sorted({(f, owner) for f, owner, _ in calls}) == [
        ("mixture.py", "_law_nodes"),
        ("shifts.py", "tv_density"),
    ]
    named = [p.name for p in sorted(SRC.glob("*.py")) if "to_grid" in p.read_text()]
    assert named == []


def test_level_move_reads_neither_curves_nor_assignments():
    # its ratio is closed-form in the sweep's S = sum_j y_j e^{2 pi i k tau_j}
    tree = ast.parse((SRC / "posterior.py").read_text())
    sampler = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "GibbsSampler")
    methods = {node.name: node for node in sampler.body if isinstance(node, ast.FunctionDef)}
    for name in ("update_level", "_level_log_ratio"):
        read = {node.attr for node in ast.walk(methods[name]) if isinstance(node, ast.Attribute)}
        assert read & {"Y", "assignments"} == set(), name
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert defined & {"_pair_loglik_gain", "phases"} == set()


def test_exports_resolve():
    # each module's __all__ names what it defines, and the package imports
    # from its modules only names listed in their __all__
    for path in sorted(SRC.glob("[!_]*.py")):
        module = importlib.import_module(f"simlab.{path.stem}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], path.name
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse((SRC / "__init__.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(imported) > 50
    for module, name in imported:
        assert name in importlib.import_module(f"simlab.{module}").__all__, (module, name)
