"""Library objects that hold arrays compare and hash by identity, since
comparing their fields would ask for the truth value of an array; those
that hold only numbers, strings, bytes and tuples compare by value. Every
dataclass of the library is in one of the two lists."""

import dataclasses
import inspect

import numpy as np
import pytest

import bicacomp
from bicacomp import bounds, coding, distributions, search, sources, universal, vq

BY_IDENTITY = [
    coding.PrefixCode, coding.CanonicalCodebook, coding.ParsedContainer,
    distributions.JointDistribution, distributions.SymbolPermutation,
    distributions.MarginalProfile, search.PiecewiseLinearEnvelope, search.SearchResult,
    sources.AliasSampler, universal.PipelineStep, universal.DescentResult,
    universal.CostReport, vq.QuantizerState, vq.LatticeQuantization,
]

# each value beside one that differs from it in a single field
BY_VALUE = [
    (coding.BlockPartition((3, 3)), coding.BlockPartition((2, 4))),
    (vq.Lattice("d4", 4, 0.8), vq.Lattice("d4", 4, 0.9)),
    (coding.BitCost(10.0, 2.5), coding.BitCost(10.0, 2.0)),
    (universal.Baselines(1.0, 2.0, 3.0), universal.Baselines(1.0, 2.0, 4.0)),
    (vq.RateReport(0.1, 2.0, 200.0), vq.RateReport(0.1, 2.0, 100.0)),
    (sources.SourceSpec("zipf", 1, m=64, s=1.2), sources.SourceSpec("zipf", 2, m=64, s=1.2)),
    (bounds.RedundancyRegime.small(8, 64), bounds.RedundancyRegime.small(8, 32)),
    (coding.MarginalEncoding(b"\x01\x02", coding.BitCost(1.0, 2.0)),
     coding.MarginalEncoding(b"\x01\x03", coding.BitCost(1.0, 2.0))),
]


def test_every_library_dataclass_is_classified():
    found = {cls for mod in (bounds, coding, distributions, search, sources, universal, vq)
             for _, cls in inspect.getmembers(mod, inspect.isclass)
             if dataclasses.is_dataclass(cls) and cls.__module__.startswith(bicacomp.__name__)}
    assert found == set(BY_IDENTITY) | {type(v) for v, _ in BY_VALUE}


@pytest.mark.parametrize("cls", BY_IDENTITY, ids=lambda cls: cls.__name__)
def test_array_holders_compare_and_hash_by_identity(cls):
    assert cls.__eq__ is object.__eq__
    assert cls.__hash__ is object.__hash__


def test_two_builds_of_one_code_are_two_objects():
    p = np.array([0.5, 0.25, 0.125, 0.125])
    a, b = coding.huffman_build(p), coding.huffman_build(p)
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2
    joint = distributions.JointDistribution(2, p)
    assert joint != distributions.JointDistribution(2, p)
    assert {joint: 1}[joint] == 1


@pytest.mark.parametrize("value, other", BY_VALUE, ids=lambda v: type(v).__name__)
def test_value_classes_compare_and_hash_by_value(value, other):
    twin = dataclasses.replace(value)
    assert twin is not value
    assert twin == value and hash(twin) == hash(value)
    assert other != value
