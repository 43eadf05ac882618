"""The package's public names: each module's __all__ is the one list."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import mdl
from mdl import arith, digits, errors, expsum, order, primes, vmvt

MODULES = (arith, digits, errors, expsum, order, primes, vmvt)
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_package_all_joins_the_module_lists():
    joined = [name for module in MODULES for name in module.__all__]
    assert mdl.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_every_package_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mdl, name) is getattr(module, name), (module.__name__, name)


def test_guards_are_package_names():
    guards = {
        "BASE_GUARD", "MODULUS_BIT_GUARD", "BIN_GUARD",
        "SIEVE_GUARD", "ENUMERATION_GUARD", "POWER_BIT_GUARD", "RESIDUE_GUARD",
    }
    assert guards <= set(mdl.__all__)


def test_unit_circle_value_is_an_oracle_only():
    # so is the fractional-part window check, which tests run against digit_block
    texts = [p.read_text(encoding="utf-8") for p in Path(mdl.__file__).parent.glob("*.py")]
    for name in ("unit_circle_value", "fractional_part_check"):
        assert not [text for text in texts if name in text], name


def _numpy_import_places(path: Path) -> list[str]:
    """Where each `import numpy` of a module sits: its loader, a TYPE_CHECKING block or a line."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    places = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and (
            node.test.id == "TYPE_CHECKING"
        ):
            places.update((id(inner), "TYPE_CHECKING") for s in node.body for inner in ast.walk(s))
        elif isinstance(node, ast.FunctionDef) and node.name == "_numpy":
            places.update((id(inner), f"{path.stem}._numpy") for inner in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.partition(".")[0] == "numpy" for name in names):
            found.append(places.get(id(node), f"{path.name}:{node.lineno}"))
    return found


def test_numpy_is_imported_only_by_the_loader():
    # mdl.digits._numpy holds OpenBLAS to one thread; an import elsewhere would skip it
    places = [
        place for path in sorted(Path(mdl.__file__).parent.glob("*.py"))
        for place in _numpy_import_places(path)
    ]
    assert set(places) == {"TYPE_CHECKING", "digits._numpy"}, places
    assert places.count("digits._numpy") == 1


def test_every_name_the_benchmark_wraps_or_probes_resolves():
    # the tracer skips a missing name silently, so a rename would only lose spans
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    stale = {("mdl.cli", "cached_primes"), ("mdl.expsum", "mangoldt_terms")}  # ROADMAP item 1
    names = [(module, attr) for module, attr, *_ in tracer.TARGETS if (module, attr) not in stale]
    names += [  # what perfbench/run.py's probes read
        ("mdl.primes", "PrimeRange"), ("mdl.primes", "primes_up_to"),
        ("mdl.primes", "mangoldt_terms"), ("mdl.digits", "mersenne_residues"),
    ]
    for module, attr in names:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
