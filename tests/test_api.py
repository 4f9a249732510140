"""The package namespace is exactly the union of its modules' public names."""
import latquad
from latquad import bench, cbc, kernels, points, wce

MODULES = (points, kernels, wce, cbc, bench)


def test_all_is_the_union_of_the_module_lists():
    listed = [name for mod in MODULES for name in mod.__all__]
    assert len(listed) == len(set(listed)), "a name is listed by two modules"
    assert len(latquad.__all__) == len(set(latquad.__all__))
    assert set(latquad.__all__) == set(listed)


def test_each_name_is_the_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(latquad, name) is getattr(mod, name), (mod.__name__, name)
