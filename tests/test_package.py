import extpoincare


def test_all_names_resolve_once():
    assert len(set(extpoincare.__all__)) == len(extpoincare.__all__)
    for name in extpoincare.__all__:
        assert hasattr(extpoincare, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from extpoincare import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(extpoincare.__all__)
