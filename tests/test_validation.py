"""Every real-number argument goes through ``model._real``, every real or complex
array through ``model._reals`` and every count array through ``model._counts``:
a wrong type, a ragged nest or a non-finite value raises ValidationError at each
entry point that takes one.  The cases are enumerated,
not sampled, so the test is deterministic."""

import math

import numpy as np
import pytest

from pairstats import (
    ClickDistribution,
    ClickHistogram,
    DetectorResponse,
    EffectiveSource,
    ExperimentConfig,
    JointDistribution,
    MultimodeSource,
    PathWeights,
    ValidationError,
    calibrate,
    contamination_map,
    em_reconstruct,
    generating_fn_value,
    joint_distribution,
    response_matrix,
    suggest_n_max,
    uniform_weights,
)

PARAMS = {"N": 0.5, "eta": 0.5, "eta_prime": 0.5, "M": 2.0}
SRC = EffectiveSource(**PARAMS)
RESP = response_matrix(uniform_weights(2), 2)
HIST = ClickHistogram(np.array([[50, 10, 1], [10, 20, 2], [1, 2, 4]]), 100)

# 1 is a valid value of each argument, so each call fails only on the type
REAL_ARGUMENTS = {
    "N": lambda v: EffectiveSource(**{**PARAMS, "N": v}),
    "eta": lambda v: EffectiveSource(**{**PARAMS, "eta": v}),
    "eta_prime": lambda v: EffectiveSource(**{**PARAMS, "eta_prime": v}),
    "M": lambda v: EffectiveSource(**{**PARAMS, "M": v}),
    "x": lambda v: generating_fn_value(SRC, v, 0.5),
    "y": lambda v: generating_fn_value(SRC, 0.5, v),
    "joint_distribution tail_bound": lambda v: joint_distribution(SRC, 4, tail_bound=v),
    "suggest_n_max tail_bound": lambda v: suggest_n_max(SRC, v),
    "calibration_N": lambda v: ExperimentConfig(SRC, calibration_N=v),
    "tol": lambda v: em_reconstruct(HIST, RESP, RESP, 2, tol=v, max_iter=5),
    "contamination_map M": lambda v: contamination_map([0.5], [1e-4], M=v),
    "tail_mass": lambda v: JointDistribution(np.zeros((1, 1)), 0, v),
    "deficit": lambda v: ClickDistribution(np.zeros((1, 1)), v),
}
WRONG_TYPES = [True, np.True_, "1", None, 1 + 0j, np.complex128(1.0)]
NON_FINITE = [math.nan, math.inf, -math.inf, np.float64(math.nan)]


@pytest.mark.parametrize("value", [1, 1.0, np.float64(1.0), np.int64(1)], ids=repr)
@pytest.mark.parametrize("name", REAL_ARGUMENTS)
def test_valid_real_accepted(name, value):
    REAL_ARGUMENTS[name](value)


@pytest.mark.parametrize(
    ("name", "value"),
    [
        pytest.param(name, value, id=f"{name}-{value!r}")
        for name in REAL_ARGUMENTS
        for value in WRONG_TYPES + NON_FINITE
        if not (value is None and name == "joint_distribution tail_bound")  # None: no bound
    ],
)
def test_wrong_type_or_non_finite_real_rejected(name, value):
    with pytest.raises(ValidationError, match=name.split()[-1]):
        REAL_ARGUMENTS[name](value)


def test_stored_reals_are_floats():
    src = EffectiveSource(N=1, eta=np.float64(0.5), eta_prime=1, M=np.int64(3))
    cfg = ExperimentConfig(src, calibration_N=np.float32(0.5))
    values = [src.N, src.eta, src.eta_prime, src.M, cfg.calibration_N]
    assert all(type(v) is float for v in values)


# each row goes to calibrate, and two of them to ClickHistogram
WRONG_COUNTS = {
    "bool": [True, True],
    "str": ["1", "1"],
    "complex": [1 + 0j, 1 + 0j],
    "object": [None, None],
}


@pytest.mark.parametrize("kind", WRONG_COUNTS)
def test_wrong_count_types_rejected(kind):
    row = WRONG_COUNTS[kind]
    with pytest.raises(ValidationError, match="bin counts"):
        calibrate(row)
    with pytest.raises(ValidationError, match="click counts"):
        ClickHistogram([row, row], 10)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, float])
def test_count_arrays_keep_exact_totals(dtype):
    assert calibrate(np.array([3, 1], dtype=dtype)).total == 4
    hist = ClickHistogram(np.array([[3, 1], [0, 2]], dtype=dtype), 6)
    assert hist.f.dtype == np.int64 and int(hist.f.sum()) == 6


def test_ragged_counts_rejected():
    with pytest.raises(ValidationError, match="bin counts"):
        calibrate([[1, 2], [3]])
    with pytest.raises(ValidationError, match="click counts"):
        ClickHistogram(f=[[1, 2], [3]], pulses=10)


# each call is valid but for the entries of the array named first
WRONG_ARRAYS = [
    ("path weights", lambda: PathWeights(["0.5", "0.5"])),
    ("path weights", lambda: PathWeights([True])),
    ("path weights", lambda: PathWeights([1 + 0j])),
    ("path weights", lambda: PathWeights([[0.5], [0.25, 0.25]])),
    ("eta grid", lambda: contamination_map(["0.5"], [1e-4])),
    ("rate grid", lambda: contamination_map([0.5], ["1e-4"])),
    ("r", lambda: MultimodeSource(r=["0.1"], t=[1.0], t_prime=[1.0])),
    ("r", lambda: MultimodeSource(r=[0.1 + 0j], t=[1.0], t_prime=[1.0])),
    ("t", lambda: MultimodeSource(r=[0.1], t=[True], t_prime=[1.0])),
    ("t_prime", lambda: MultimodeSource(r=[0.1], t=[1.0], t_prime=["1"])),
    ("probs", lambda: JointDistribution([["1"]], 0)),
    ("probs", lambda: JointDistribution([[True]], 0)),
    ("click probabilities", lambda: ClickDistribution([["1"]])),
    ("P", lambda: DetectorResponse([["1"], ["0"]])),
    ("P", lambda: DetectorResponse([[True], [False]])),
]


@pytest.mark.parametrize(("name", "call"), WRONG_ARRAYS, ids=[n for n, _ in WRONG_ARRAYS])
def test_wrong_array_entries_rejected(name, call):
    with pytest.raises(ValidationError, match=f"^{name} must be"):
        call()


def test_numeric_arrays_accepted():
    assert PathWeights(np.array([1, 0], dtype=np.uint8)).w.tolist() == [1.0, 0.0]
    assert contamination_map(np.array([1]), [1e-4]).shape == (1, 1)
    src = MultimodeSource(r=[1], t=np.array([0.5 + 0.5j]), t_prime=[np.float32(1.0)])
    assert src.r.dtype == float and src.t.dtype == complex and src.t_prime.dtype == complex
