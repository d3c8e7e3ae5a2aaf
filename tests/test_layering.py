"""The scalar DP evaluators stay behind the paper's reference boundary.

``PrefixSharedDP``, ``FreshDP`` and ``SubsetProbabilityVector`` are the
paper's scalar RC / RC+AR / RC+LR machinery: the figure reproductions
and the oracles read them.  Every other caller reads the columnar kernel
(:mod:`repro.core.kernel`), so the library keeps one production DP.
"""

import ast
from pathlib import Path

import repro

REFERENCE_ONLY = {"PrefixSharedDP", "FreshDP", "SubsetProbabilityVector"}

PACKAGE = Path(repro.__file__).parent

#: Modules (relative to the package) allowed to name the scalar DPs.
ALLOWED = {
    "core/exact.py",
    "core/reordering.py",
    "core/pruning.py",
    "core/basic_case.py",
    "core/subset_probability.py",
}


def reference_names(tree: ast.AST):
    """``(line, name)`` of every import or attribute naming a scalar DP."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in REFERENCE_ONLY:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.Attribute) and node.attr in REFERENCE_ONLY:
            yield node.lineno, node.attr


def test_scalar_dp_evaluators_stay_in_the_reference():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if relative in ALLOWED or relative.startswith("bench/"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{relative}:{line} {name}" for line, name in reference_names(tree)
        ]
    assert not offenders, offenders

