"""``tools/ab.py``'s canonical form: two outputs hash alike only when they are equal bit for bit."""

import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest

from uncond.unconditionality import Family, SubsetMaxResult

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ab():
    # the tool pins BLAS threads in the environment as it loads; keep that out of the test process
    with mock.patch.dict(os.environ):
        spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def canon(ab):
    return ab.canon


def digest(canon, x) -> str:
    return hashlib.sha256(json.dumps(canon(x)).encode()).hexdigest()


class Pair(NamedTuple):
    b: float
    a: float


def test_signed_zeros_hash_apart(canon):
    assert digest(canon, -0.0) != digest(canon, 0.0)
    assert digest(canon, np.float64(-0.0)) == digest(canon, -0.0)
    assert digest(canon, [0.1 + 0.2]) != digest(canon, [0.3])


def test_arrays_by_dtype_shape_and_bytes(canon):
    zeros = np.zeros(4)
    assert digest(canon, zeros) == digest(canon, np.zeros(4))
    # the same eight zero bytes per entry, read as another dtype or shape
    assert digest(canon, zeros) != digest(canon, np.zeros(4, dtype=np.int64))
    assert digest(canon, zeros) != digest(canon, np.zeros((2, 2)))
    assert digest(canon, zeros) != digest(canon, -zeros)
    # a strided view hashes as its contiguous copy
    wide = np.arange(8.0)
    assert digest(canon, wide[::2]) == digest(canon, np.array([0.0, 2.0, 4.0, 6.0]))


def test_families_and_named_tuples_field_by_field(canon):
    fam = Family(np.eye(2))
    assert canon(fam)[:2] == ["Family", ["matrix", canon(fam.matrix)]]
    assert digest(canon, fam) == digest(canon, Family(np.eye(2)))
    assert digest(canon, fam) != digest(canon, Family(np.eye(2)[::-1]))
    # in declaration order, which here is not the alphabetical one
    assert canon(Pair(1.0, 2.0)) == ["Pair", ["b", (1.0).hex()], ["a", (2.0).hex()]]
    assert digest(canon, Pair(1.0, 2.0)) != digest(canon, Pair(2.0, 1.0))
    assert digest(canon, Pair(1.0, 2.0)) != digest(canon, (1.0, 2.0))
    sub = SubsetMaxResult(1.5, 3)
    assert canon(sub) == ["SubsetMaxResult", ["value", (1.5).hex()], ["argmax_subset", 3]]


def test_exceptions_by_type_and_text(canon):
    assert digest(canon, ValueError("bad n")) == digest(canon, ValueError("bad n"))
    assert digest(canon, ValueError("bad n")) != digest(canon, TypeError("bad n"))
    assert digest(canon, ValueError("bad n")) != digest(canon, ValueError("bad N"))


class Toy:
    """Two op classes per round: one that both sides compute alike, one whose output the side sets."""

    def __init__(self, U, seed):
        self.U = U

    def round(self, k):
        Op = sys.modules["workloads"].Op
        return [
            Op("shared", lambda: np.arange(k + 2) * 0.5, lambda out: None),
            Op("changed", lambda: self.U.value(k), lambda out: None),
        ]


def _toy_run(ab, head_value, capsys):
    base, head = SimpleNamespace(value=lambda k: k / 3), SimpleNamespace(value=head_value)
    res = ab.run_workload("toy", {"toy": Toy}, (base, head), 0, 2)
    ab.report("toy", res)
    lines = {line.split()[0]: line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:3]}
    return res, lines


def test_classes_hash_apart(ab, capsys):
    # the head changes round 0 (the cold one) by a signed zero, and keeps round 1
    res, lines = _toy_run(ab, lambda k: k / 3 if k else -0.0, capsys)
    assert set(res["classes"]) == {"shared", "changed"}
    shared, changed = res["classes"]["shared"], res["classes"]["changed"]
    assert shared["identical"] and shared["hash_base"] == shared["hash_head"]
    assert not changed["identical"]
    assert changed["hash_base"]["cold"] != changed["hash_head"]["cold"]
    assert changed["hash_base"]["warm"] == changed["hash_head"]["warm"]
    assert not res["identical"]
    assert lines == {"shared": "same", "changed": "DIFFER"}
    # a class hash covers that class's outputs alone, so it differs from the workload's
    assert shared["hash_base"]["cold"] != res["hash_base"]["cold"]


def test_identical_sides_are_the_same_everywhere(ab, capsys):
    res, lines = _toy_run(ab, lambda k: k / 3, capsys)
    assert res["identical"] and all(c["identical"] for c in res["classes"].values())
    assert lines == {"shared": "same", "changed": "same"}

