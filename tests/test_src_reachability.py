"""Every name defined in ``src/repro`` has a caller outside the tests.

The scan parses ``src/repro`` with ``ast`` and collects each top-level
function and class and each non-dunder method of a top-level class.  A
definition is *reached* when some module under ``src/``, ``benchmarks/``
or ``examples/`` names it: a ``Name``, an attribute access or an import.
Two kinds of mention do not count: an ``__init__`` re-export (the
``from ... import`` lines of a package ``__init__``) and an ``__all__``
list.  String mentions do not count either, so a name that only a
``/stats`` key or a docstring spells is not reached.

This matches on names, so it is a floor, not a proof: when two classes
define a method of the same name, a call to either reaches both.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Names kept although nothing outside the tests reaches them, one
#: entry each, with the reason.
ALLOWED = {
    # Test oracles: exact or reference paths the tests compare the
    # served paths against.
    "decode_binary": "oracle for the vectorised binary term encoder",
    "decode_triple": "oracle: the inverse of GraphDictionary.encode_triple",
    "logits_for": "oracle: one position's logits for the sweep's head",
    "log_prob": "oracle: exact MADE log-likelihood of bound instances",
    "set_inference_dtype": "test hook: runs MADE inference in float64",
    # Test hook: memoised datasets are dropped between timing tests.
    "clear_cache": "test hook: drops the dataset registry's memo",
    # Paper §IV "Model choice"; the accuracy ledger gives it a row.
    "ModelPlanner": "paper §IV model choice, kept for the accuracy ledger",
    "total_bytes": "ModelPlanner's plan size, kept with ModelPlanner",
    # Dispatched by http.server by string: "do_" + command, and the
    # base class's own call of log_message.
    "do_GET": "http.server dispatches GET to it by string",
    "log_message": "http.server's request logger, overridden to be quiet",
    # Called by the import system for a name a module lacks (PEP 562):
    # repro.serve exports its names lazily.
    "__getattr__": "repro.serve's lazy exports, called by the import system",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(name, location) of every checked definition under src/repro."""
    found = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = path.relative_to(ROOT)
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                found.append((node.name, f"{where}:{node.lineno}"))
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not _is_dunder(member.name):
                        found.append(
                            (
                                member.name,
                                f"{where}:{member.lineno} ({node.name})",
                            )
                        )
    return found


def _references():
    """Every name mentioned in src/, benchmarks/ and examples/."""
    names = set()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            skipped = set()
            for node in ast.walk(tree):
                reexport = (
                    path.name == "__init__.py"
                    and isinstance(node, ast.ImportFrom)
                )
                dunder_all = isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets
                )
                if reexport or dunder_all:
                    skipped.update(id(n) for n in ast.walk(node))
            for node in ast.walk(tree):
                if id(node) in skipped:
                    continue
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
    return names


def _unreached():
    references = _references()
    return {
        name: where
        for name, where in _definitions()
        if name not in references
    }


def test_every_definition_has_a_caller_outside_tests():
    unreached = {
        name: where
        for name, where in _unreached().items()
        if name not in ALLOWED
    }
    assert not unreached, (
        "defined in src/repro but reached only by tests (delete them, or "
        "add a commented ALLOWED entry): "
        + ", ".join(f"{name} ({where})" for name, where in sorted(
            unreached.items()
        ))
    )


def test_allowlist_is_not_stale():
    defined = {name for name, _ in _definitions()}
    unreached = _unreached()
    stale = sorted(
        name
        for name in ALLOWED
        if name not in defined or name not in unreached
    )
    assert not stale, (
        "ALLOWED entries that are no longer defined, or are now reached "
        f"outside the tests (drop them): {stale}"
    )
