"""The package's public names: each module's __all__ is the one list."""

from __future__ import annotations

from pathlib import Path

import mdl
from mdl import arith, digits, errors, expsum, order, primes, vmvt

MODULES = (arith, digits, errors, expsum, order, primes, vmvt)


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
