"""The package's public surface: reviewaudit.__all__ lists exactly the
public names that reviewaudit/__init__.py binds."""

from types import ModuleType

import reviewaudit


def test_all_lists_every_public_name_once():
    public = {
        name for name, value in vars(reviewaudit).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(reviewaudit.__all__) == len(set(reviewaudit.__all__))
    assert set(reviewaudit.__all__) == public | {"__version__"}
