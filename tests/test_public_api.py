import ctrend


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from ctrend import *", namespace)
    assert [name for name in ctrend.__all__ if not hasattr(ctrend, name)] == []
    assert set(ctrend.__all__) <= namespace.keys()
    assert len(set(ctrend.__all__)) == len(ctrend.__all__)
