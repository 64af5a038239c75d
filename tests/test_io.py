import json

import numpy as np
import pytest

from stepgraphon import io
from stepgraphon.core import SignedStepKernel, StepGraphon, grid_version
from stepgraphon.errors import StepGraphonError, ValueOutOfRange
from stepgraphon.measures import DiscreteMeasure
from stepgraphon.metrics import cut_distance
from stepgraphon.multiway import sample_multiway_set
from stepgraphon.named import bipartite_graphon

SIGNED = SignedStepKernel([0.5, 0.5], [[-0.5, 0.5], [0.5, -0.5]])

OBJECTS = [
    StepGraphon([0.25, 0.75], [[0.1, 0.6], [0.6, 0.9]]),
    SIGNED,
    DiscreteMeasure([0.0, 0.5, 1.0], [0.25, 0.5, 0.25]),
    sample_multiway_set(bipartite_graphon(), [0.5, 0.5], count=2, seed=1),
]


@pytest.mark.parametrize("obj", OBJECTS, ids=[type(o).__name__ for o in OBJECTS])
def test_load_round_trip(tmp_path, obj):
    path = tmp_path / "obj.json"
    io.save(obj, path)
    loaded = io.load(path, type(obj))
    assert type(loaded) is type(obj)
    assert loaded.to_dict() == obj.to_dict()


def test_signed_file_loads_signed_as_step_graphon(tmp_path):
    path = tmp_path / "y.json"
    io.save(SIGNED, path)
    loaded = io.load(path, StepGraphon)
    assert type(loaded) is SignedStepKernel
    assert loaded.to_dict() == SIGNED.to_dict()


def test_flagless_signed_file_loads_as_signed_kernel(tmp_path):
    path = tmp_path / "y.json"
    path.write_text(json.dumps({"weights": SIGNED.weights.tolist(),
                                "values": SIGNED.values.tolist()}))
    loaded = io.load(path, SignedStepKernel)
    assert type(loaded) is SignedStepKernel
    assert loaded.to_dict() == SIGNED.to_dict()
    with pytest.raises(ValueOutOfRange):
        io.load(path, StepGraphon)


def test_overflowing_field_is_a_named_error(tmp_path):
    # JSON reads a 400-digit integer exactly, and float() of it raises OverflowError
    path = tmp_path / "g.json"
    path.write_text('{"weights": [1' + "0" * 400 + '], "values": [[0.5]]}')
    with pytest.raises(StepGraphonError, match="not a StepGraphon file: OverflowError"):
        io.load(path, StepGraphon)


@pytest.mark.parametrize("flag", ["false", "true", 1, 0, None])
def test_signed_flag_must_be_a_boolean(tmp_path, flag):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"weights": [1.0], "values": [[0.5]], "signed": flag}))
    with pytest.raises(StepGraphonError, match='"signed" flag'):
        io.load(path, StepGraphon)


def test_save_into_missing_directory_is_a_named_error(tmp_path):
    path = tmp_path / "nodir" / "x.json"
    with pytest.raises(StepGraphonError, match="cannot write"):
        io.save(SIGNED, path)


@pytest.mark.parametrize("k", range(1, 33))
def test_round_trip_keeps_equal_masses_bitwise(tmp_path, k):
    g = StepGraphon(np.full(k, 1.0 / k), np.full((k, k), 0.5))
    path = tmp_path / "g.json"
    io.save(g, path)
    assert io.load(path, StepGraphon).weights.tobytes() == g.weights.tobytes()


def test_loaded_cell_permuted_copy_is_at_distance_zero(tmp_path):
    v = np.random.default_rng(13).random((13, 13))
    U = StepGraphon(np.full(13, 1.0 / 13), np.triu(v) + np.triu(v, 1).T)
    path = tmp_path / "w.json"
    io.save(grid_version(U, 13, np.random.default_rng(14).permutation(13)), path)
    assert cut_distance(U, io.load(path, StepGraphon))[0] == 0.0
