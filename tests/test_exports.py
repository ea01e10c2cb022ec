"""The package's export list matches what the package defines."""

import types

import annealdp


def test_all_names_each_public_attribute_once():
    # a stale export or an unexported import fails here, not only under
    # `from annealdp import *`
    assert len(annealdp.__all__) == len(set(annealdp.__all__))
    public = {name for name, value in vars(annealdp).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(annealdp.__all__) == public
