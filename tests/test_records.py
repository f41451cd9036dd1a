"""The result records are NamedTuples: importing the package and its CLI
pulls in neither ``dataclasses`` nor ``inspect``, and every record keeps
value semantics (immutable, equal by value, hashed by value)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from diagnoscope import connectivity, diagnosis, families, syndrome, tolerance, verification
from diagnoscope.syndrome import AdversaryPolicy, SyndromeError

SRC = Path(__file__).resolve().parent.parent / "src"

RECORDS = {
    connectivity: ("ConnectivityReport", "DisjointPaths", "CommonNeighbors"),
    diagnosis: ("IndistinguishableWitness", "DiagnosisDecision"),
    families: ("GammaSpec", "RecognizedDecomposition", "RecognitionResult"),
    tolerance: ("ToleranceResult", "BoundCondition", "BoundReport", "Theorem"),
    syndrome: ("AdversaryPolicy",),
    verification: ("Budget", "ClaimRow", "FamilyObservation", "CorpusEntry", "VerificationReport", "Claim"),
}
RECORD_TYPES = [getattr(module, name) for module, names in RECORDS.items() for name in names]


def test_cli_import_skips_dataclasses_and_inspect():
    code = "import sys, diagnoscope, diagnoscope.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_every_record_is_listed():
    for module, names in RECORDS.items():
        found = {
            name for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
            and obj.__module__ == module.__name__ and not name.startswith("_")
        }
        assert found == set(names), module.__name__


def sample(cls):
    if cls is AdversaryPolicy:
        return cls("seeded_random", 7)
    return cls(*(f"{cls.__name__}.{name}" for name in cls._fields))


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__name__)
class TestValueSemantics:
    def test_refuses_assignment(self, cls):
        record = sample(cls)
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_equal_by_value(self, cls):
        a, b = sample(cls), sample(cls)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a == tuple(a) and cls._make(a) == a


def test_policy_validates_keywords_too():
    with pytest.raises(SyndromeError):
        AdversaryPolicy(kind="coin_flip")
    with pytest.raises(SyndromeError):
        AdversaryPolicy(kind="seeded_random", seed=None)
    assert AdversaryPolicy(kind="seeded_random", seed=0) == ("seeded_random", 0)
