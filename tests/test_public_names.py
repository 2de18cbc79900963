"""The package's public names: each module's __all__ resolves, and the root
offers only the names that its callers import from it."""
import importlib

import pytest

import rkforge


@pytest.mark.parametrize("module", ["rkforge", "rkforge.tableau", "rkforge.stepcontrol",
                                    "rkforge.codegen", "rkforge.problems", "rkforge.cli"])
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing and len(set(mod.__all__)) == len(mod.__all__)


def test_the_root_keeps_four_names():
    # every other public name is imported from the module that defines it
    assert sorted(rkforge.__all__) == ["parse_method_file", "shipped_method_path",
                                       "shipped_methods", "validate_tableau"]
