"""Record types: keyword construction, immutability, equality, hashing, pickling;
and a dropped import of the package is collected."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import evocover as ec

TRACE = dict(algorithm="gsemo", seed=3, n=4, iterations=10, max_archive=2, best_cost=5,
             best_cover=(1, 0, 1, 0), iters_to_zero_string=0, iters_to_cover=4,
             iters_to_target=None, target_kind="cover", bound_violations=0)
TRIAL = dict(seed=3, iters_to_zero_string=0, iters_to_cover=4, iters_to_target=None,
             max_archive=2, best_cost=5, opt=5, ratio=1.0, censored=False)

# (type, keyword arguments, the fields left to their defaults)
RECORDS = [
    (ec.WeightedGraph, dict(n=2, weights=(1, 5), edges=((0, 1),)), {}),
    (ec.ResidualGraph, dict(original_n=3, kept=(0, 2), edges=((0, 1),)), {}),
    (ec.HalfIntegralLP, dict(value2=2, assign2=(1, 1)), {}),
    (ec.ExactResult, dict(opt_cost=1, witness=(1, 0)), {}),
    (ec.Termination, dict(budget=10, target_ratio=Fraction(5, 4), opt=8),
     dict(any_cover=False, until_zero_string=False)),
    (ec.RunTrace, TRACE, dict(series=None)),
    (ec.TrialRecord, TRIAL, {}),
    (ec.ExperimentConfig, dict(algorithm="demo", trials=2),
     dict(seed_base=0, budget=None, target_ratio=None, epsilon=None, opt=None,
          check_bounds=False, until_zero_string=False, workers=1)),
    (ec.ExperimentResult, dict(records=[ec.TrialRecord(**TRIAL)], summary={"trials": 1}), {}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, kwargs, defaults", RECORDS, ids=IDS)
def test_keyword_construction_with_defaults(cls, kwargs, defaults):
    rec = cls(**kwargs)
    assert rec._asdict() == kwargs | defaults
    assert cls(*rec) == rec


@pytest.mark.parametrize("cls, kwargs, defaults", RECORDS, ids=IDS)
def test_fields_are_read_only(cls, kwargs, defaults):
    rec = cls(**kwargs)
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))


@pytest.mark.parametrize("cls, kwargs, defaults", RECORDS, ids=IDS)
def test_equal_records_compare_and_hash_equal(cls, kwargs, defaults):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and a is not b
    assert a != a._replace(**{a._fields[0]: None})
    if cls is ec.ExperimentResult:
        # a list of records and a dict summary have no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, kwargs, defaults", RECORDS, ids=IDS)
def test_pickle_round_trip(cls, kwargs, defaults):
    rec = cls(**kwargs)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and back == rec


def test_pickled_graph_keeps_its_cached_topology():
    g = ec.gnp(12, 0.3, w_max=5, seed=2)
    g._double_cover, g._arcs  # cache both
    back = pickle.loads(pickle.dumps(g))
    assert back == g
    assert set(vars(back)) == {"_double_cover", "_arcs"}
    assert back._double_cover == g._double_cover
    assert all((x == y).all() for x, y in zip(back._arcs, g._arcs))
    assert back._w64.tolist() == list(g.weights)


def test_no_class_in_the_package_is_a_dataclass():
    modules = [ec] + [importlib.import_module(f"evocover.{m.name}")
                      for m in pkgutil.iter_modules(ec.__path__)]
    classes = [obj for mod in modules for obj in vars(mod).values()
               if inspect.isclass(obj) and obj.__module__ == mod.__name__]
    assert {cls.__name__ for cls, _, _ in RECORDS} <= {c.__name__ for c in classes}
    assert [c for c in classes if dataclasses.is_dataclass(c)] == []


REIMPORT = '''
import gc, sys, weakref
import evocover
old = [weakref.ref(t) for t in (evocover.engine.Individual, evocover.TrialRecord,
                                evocover.WeightedGraph, evocover.lp.DoubleCover,
                                evocover.ExactResult)]
for name in [k for k in sys.modules if k.split(".")[0] == "evocover"]:
    del sys.modules[name]
import evocover
gc.collect()
assert [r() for r in old] == [None] * len(old), "a dropped module copy is still alive"
'''


def test_a_reimported_package_frees_its_old_modules():
    # an annotation that subscripts a typing generic with a module's own
    # class, as in Callable[[int, Individual], None], is cached by typing
    # when evaluated at import, and so keeps the module alive; such
    # annotations are quoted. The benchmark re-imports the package 40 times
    src = str(Path(ec.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r})" + REIMPORT
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
