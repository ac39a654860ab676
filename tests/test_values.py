"""The package's shared values: the immutable value types and the cached
arrays.

Partition, Permutation and RationalFunction are frozen dataclasses, so
pickle, copy and deepcopy rebuild equal values with equal hashes, a
spawned worker process can receive and return them, and assigning or
deleting any attribute raises FrozenInstanceError.  Every array that a
cache hands to more than one caller is read-only, so one stray write
cannot change a later result.
"""

import copy
import multiprocessing
import pickle
from dataclasses import FrozenInstanceError, fields

import pytest

from immom import moments, seminormal
from immom.characters import character_row, character_table
from immom.moments import second_moment
from immom.partitions import Partition
from immom.ratfun import RationalFunction
from immom.sampler import MomentEstimate, _char_data
from immom.symgroup import Permutation, marked_orbits

VALUES = [
    Partition((3, 2)),
    Partition(),
    Permutation.one_line([2, 3, 1]),
    RationalFunction(0),
    second_moment((2, 1)),
    MomentEstimate("immanant", Partition((2, 1)), 4, 2, 64, 7, 0.25 + 0.5j, 0.01),
]
ROUND_TRIPS = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("trip", ROUND_TRIPS)
@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_values_survive_pickle_and_copy(value, trip):
    back = ROUND_TRIPS[trip](value)
    assert type(back) is type(value)
    assert back == value
    assert hash(back) == hash(value)


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_values_refuse_assignment_and_deletion(value):
    for name in [field.name for field in fields(value)] + ["foo"]:
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)


def test_values_cross_a_spawn_pool():
    # a worker that cannot unpickle its task dies and is replaced without
    # end, so the timeout turns that hang into a failure
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        back = pool.map_async(copy.copy, VALUES).get(timeout=60)
    assert back == VALUES


def test_cached_arrays_are_read_only():
    tab = seminormal.tableaux((3, 2, 1))
    perms, chars = _char_data((3, 2))
    arrays = [tab.words, tab.contents, tab.partner, tab.axial, tab.exponents,
              perms, chars, character_row((3, 2)), character_table(4).values,
              *marked_orbits(4, 1), moments._classes(4, 2, 1),
              *seminormal._row_words((3, 2, 1)), *seminormal._row_words((2, 1))]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1
