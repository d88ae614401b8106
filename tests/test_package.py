"""The package's public API: each module declares its names once, in its own ``__all__``."""

import ast
import inspect

import pytest

import scoreplay
from scoreplay import cli, games, octal, periods

MODULES = [games, octal, periods]

# The names the package exported before the modules declared their own,
# less two that only respelled ``Game(s)`` and the ``_key`` comparison,
# plus the four that the modules raise or document but the package left out.
PACKAGE_NAMES = {
    "BudgetExceededError", "ExpansionLimitError", "FinalScores", "Game", "GrundySolver",
    "LemmaReport", "MoveOutcome", "NotationError", "OctalRules", "Outcome", "PRESETS",
    "PeriodReport", "Position", "RulesError", "ScanInstance", "ScanReport", "ScanRow",
    "ScanSpec", "Score", "UnknownRulesetError", "add", "as_score", "certified_start",
    "certify_period", "check_lemma", "detect_certified_period", "detect_period",
    "final_scores", "format_score", "generate_impartial", "identity_game",
    "is_impartial", "iter_heap_multisets", "legal_moves", "negate", "outcome",
    "parse_game", "parse_position", "parse_rules_document", "parse_scan_spec", "parse_score",
    "reflect", "render_game", "render_position", "render_tree", "resolve_rules_ref",
    "rules_from_name", "run_scan", "scan_instance", "sequence_digest", "standard_nim",
    "subtraction_rules", "translate", "verify_period",
}
ADDED_NAMES = {"RenderSizeError", "MAX_RENDER_CHARS", "MAX_TREE_CHARS", "render_scaled"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_function_and_class_is_declared(module):
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined <= set(module.__all__)
    assert len(set(module.__all__)) == len(module.__all__)
    assert all(hasattr(module, name) for name in module.__all__)


def test_the_package_joins_the_module_lists():
    joined = [name for module in MODULES for name in module.__all__]
    assert scoreplay.__all__ == joined
    assert len(set(joined)) == len(joined)  # each name has one home
    for module in MODULES:
        for name in module.__all__:
            assert getattr(scoreplay, name) is getattr(module, name)


def test_star_import_binds_exactly_the_package_names():
    namespace: dict = {}
    exec("from scoreplay import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(scoreplay.__all__) == PACKAGE_NAMES | ADDED_NAMES


def private_attribute_reads(module) -> list[str]:
    """Every ``x._name`` in a module's source, dunders aside."""
    tree = ast.parse(inspect.getsource(module))
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__")
    ]


@pytest.mark.parametrize("module", [cli, periods], ids=lambda m: m.__name__)
def test_callers_use_only_public_members(module):
    """The CLI and the scans reach the solver through its public methods."""
    assert private_attribute_reads(module) == []
