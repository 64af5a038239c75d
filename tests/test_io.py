import json

import numpy as np
import pytest

from stepgraphon import io
from stepgraphon.core import SignedStepKernel, StepFunction1D, StepGraphon, grid_version
from stepgraphon.errors import StepGraphonError, ValueOutOfRange
from stepgraphon.measures import DiscreteMeasure
from stepgraphon.metrics import CutNormResult, cut_distance, cut_norm
from stepgraphon.core import Coupling
from stepgraphon.multiway import sample_multiway_set
from stepgraphon.named import bipartite_graphon
from stepgraphon.order import EnvelopeSample, sample_envelope

SIGNED = SignedStepKernel([0.5, 0.5], [[-0.5, 0.5], [0.5, -0.5]])

OBJECTS = [
    StepGraphon([0.25, 0.75], [[0.1, 0.6], [0.6, 0.9]]),
    SIGNED,
    StepFunction1D([0.0, 0.3, 1.0], [0.2, 0.9]),
    DiscreteMeasure([0.0, 0.5, 1.0], [0.25, 0.5, 0.25]),
    Coupling([[0.25, 0.25], [0.25, 0.25]], [0.5, 0.5], [0.5, 0.5]),
    sample_multiway_set(bipartite_graphon(), [0.5, 0.5], count=2, seed=1),
    sample_envelope(bipartite_graphon(), 4, count=2, depth=1, seed=7),
    cut_norm(SIGNED),
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
    # JSON reads 1e400 as inf, and int(inf) raises OverflowError
    path = tmp_path / "env.json"
    path.write_text('{"resolution": 1e400, "depth": 1, "signatures": [[0.0]]}')
    with pytest.raises(StepGraphonError, match="not a EnvelopeSample file"):
        io.load(path, EnvelopeSample)


NAN, INF = float("nan"), float("inf")
ENVELOPE = {"resolution": 4, "depth": 1, "signatures": [[0.25] * 9]}
CUT_NORM = {"value": 0.25, "witness_S": [1, 0], "witness_T": [0, 1], "mode": "exact"}
GOOD = {EnvelopeSample: ENVELOPE, CutNormResult: CUT_NORM}


@pytest.mark.parametrize("cls, field, value, message", [
    (EnvelopeSample, "resolution", 2.5, "envelope resolution"),
    (EnvelopeSample, "resolution", -3, "envelope resolution"),
    (EnvelopeSample, "depth", 0.5, "envelope depth"),
    (EnvelopeSample, "depth", -1, "envelope depth"),
    (EnvelopeSample, "depth", 2, "envelope signatures"),
    (EnvelopeSample, "depth", 10 ** 9, "envelope signatures"),
    (EnvelopeSample, "signatures", [[1.0, NAN]], "envelope signatures"),
    (EnvelopeSample, "signatures", [[0.0] * 8 + [INF]], "envelope signatures"),
    (EnvelopeSample, "signatures", [0.0] * 9, "envelope signatures"),
    (CutNormResult, "mode", "bogus", "cut-norm mode"),
    (CutNormResult, "value", -5, "cut-norm value"),
    (CutNormResult, "value", NAN, "cut-norm value"),
    (CutNormResult, "witness_S", [3, 7], "cut-norm witnesses"),
    (CutNormResult, "witness_T", [0.5, 1], "cut-norm witnesses"),
    (CutNormResult, "witness_T", [0], "cut-norm witnesses"),
    (CutNormResult, "witness_S", [[1, 0]], "cut-norm witnesses"),
    (EnvelopeSample, "resolution", True, "envelope resolution"),
    (EnvelopeSample, "depth", False, "envelope depth"),
])
def test_reader_rejects_a_bad_field(tmp_path, cls, field, value, message):
    good = GOOD[cls]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(good))
    assert io.load(path, cls).to_dict() == good
    path.write_text(json.dumps({**good, field: value}))
    with pytest.raises(StepGraphonError, match=message):
        io.load(path, cls)


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


@pytest.mark.parametrize("missing", ["row_marginal", "col_marginal"])
def test_coupling_file_needs_both_marginals(tmp_path, missing):
    d = Coupling([[0.5, 0.0], [0.0, 0.5]], [0.5, 0.5], [0.5, 0.5]).to_dict()
    del d[missing]
    path = tmp_path / "coupling.json"
    path.write_text(json.dumps(d))
    with pytest.raises(StepGraphonError, match=f"not a Coupling file: KeyError\\('{missing}'\\)"):
        io.load(path, Coupling)
