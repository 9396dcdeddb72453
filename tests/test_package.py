"""Every definition in the package has a caller inside the package.

A function, class or method whose name appears nowhere else in
``src/lowdepthqc`` is reached, if at all, only from tests, and a check on
it says nothing about the path a run takes.  The few kept on purpose are
independent references that tests and the benchmark compare the live
code against; each is listed with its reason.  Likewise every gate kind
is named by some module besides ``circuit.py``.  And importing the CLI
loads and builds only what every command needs.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

from lowdepthqc.circuit import Gate

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lowdepthqc"

KEPT_REFERENCES = {
    "gterm_oracle": "dense-matrix value of each estimator circuit",
    "permuted_amps": "undoes the routing permutation to compare lowered "
                     "circuits with their source",
    "equivalent_up_to_phase": "statevector comparison for lowered circuits",
    "kraus": "explicit Kraus family that superop() is checked against",
    "scaled": "error-scaled calibration for the benchmark's noiseless "
              "limit and the noise-monotonicity test",
    "gterm_values": "the Hadamard tests of one binding as whole noiseless "
                    "circuits, that coordinate environments are checked "
                    "against; the benchmark's burgers.gterm probe wraps it",
    "noisy_expectation": "whole-circuit noisy estimate that the split "
                         "noisy estimator and the benchmark's noiseless "
                         "limit are checked against",
}


def _definitions(tree: ast.Module):
    """(name, line) of module-level functions and classes and of the
    methods in module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno


def _uses(tree: ast.Module) -> set[str]:
    """Names read or attributes taken; imports and definitions do not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def test_every_definition_has_a_caller_in_the_package():
    trees = _trees()
    used = set().union(*(_uses(t) for t in trees.values()))
    uncalled = [f"{module}:{line} {name}"
                for module, tree in trees.items()
                for name, line in _definitions(tree)
                if not name.startswith("__")
                and name not in used and name not in KEPT_REFERENCES]
    assert not uncalled, "defined but never used in src/lowdepthqc: " + \
        ", ".join(uncalled)


def test_every_kept_reference_is_defined_and_has_no_caller():
    """An entry of ``KEPT_REFERENCES`` that the package no longer defines,
    or that it now calls, is stale."""
    trees = _trees()
    used = set().union(*(_uses(t) for t in trees.values()))
    defined = {name for tree in trees.values() for name, _ in _definitions(tree)}
    stale = [name for name in KEPT_REFERENCES
             if name not in defined or name in used]
    assert not stale, "stale KEPT_REFERENCES entries: " + ", ".join(stale)


def test_every_gate_kind_is_named_outside_circuit():
    """A kind that only ``circuit.py`` names is one that no circuit builds,
    lowers or emits."""
    named = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "circuit.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and node.value.id == "Gate":
                named.add(node.attr)
    unused = [g.name for g in Gate if g.name not in named]
    assert not unused, "gate kinds named only in circuit.py: " + ", ".join(unused)


def _after_import_cli(expr: str) -> str:
    """``expr`` evaluated in a fresh interpreter that has imported only
    ``lowdepthqc.cli`` (which imports ``transpile`` itself)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code = ("import sys; import lowdepthqc.cli; "
            f"from lowdepthqc import transpile; print({expr})")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_importing_the_cli_leaves_yaml_unloaded():
    """Only ``--config`` reads YAML, so no other command pays its import."""
    assert _after_import_cli("'yaml' in sys.modules") == "False"


def test_importing_the_cli_builds_no_lowering_table():
    """The CX dressings (an SVD) and the tables built from them are made on
    a lowering's first use: a run that never lowers never holds them."""
    tables = ("_cx_dressings", "_post_products", "_entangler", "_swap_block")
    sizes = ", ".join(f"transpile.{t}.cache_info().currsize" for t in tables)
    assert _after_import_cli(f"[{sizes}]") == str([0] * len(tables))
