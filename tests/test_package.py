"""The package namespace: lazily loaded, yet the same names and objects."""

import importlib

import pytest

import ricci_liouville

SUBMODULES = ("elliptic", "errors", "metric", "pmc", "revolution", "verify")


def defining_module(name):
    """The submodule whose __all__ lists ``name``."""
    owners = [
        sub for sub in SUBMODULES
        if name in importlib.import_module(f"ricci_liouville.{sub}").__all__
    ]
    assert len(owners) == 1, (name, owners)
    return importlib.import_module(f"ricci_liouville.{owners[0]}")


@pytest.mark.parametrize("name", [n for n in ricci_liouville.__all__ if n != "__version__"])
def test_public_name_is_the_submodule_object(name):
    assert getattr(ricci_liouville, name) is getattr(defining_module(name), name)


def test_package_lists_exactly_the_submodule_names():
    # every submodule name, plus the version
    names = set().union(
        *(importlib.import_module(f"ricci_liouville.{sub}").__all__ for sub in SUBMODULES)
    )
    assert sorted(ricci_liouville.__all__) == sorted(names | {"__version__"})


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ricci_liouville import *", namespace)
    for name in ricci_liouville.__all__:
        assert namespace[name] is getattr(ricci_liouville, name)


def test_dir_covers_all():
    assert set(ricci_liouville.__all__) <= set(dir(ricci_liouville))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ricci_liouville.no_such_name
    assert not hasattr(ricci_liouville, "no_such_name")
    assert not hasattr(ricci_liouville, "DEFAULT_EPS_DOM")  # a metric constant, not public

