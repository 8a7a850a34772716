"""The value classes against the dataclasses they replace.

The reference classes below are the ``dataclass`` definitions the package
used before ``record.Record``, renamed with a ``Ref`` prefix; on drawn
field values both must agree in equality, hash, repr, defaults,
validation, pickling and immutability.
"""

import pickle
import subprocess
import sys
from dataclasses import dataclass, field
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghom.errors import GraphError
from maghom.graphs import DirectedGraph
from maghom.homology import AbelianGroupInvariant
from maghom.invariants import Polynomial, SubgraphNetwork
from maghom.verify import CheckResult


@dataclass(frozen=True)
class RefDirectedGraph:
    n: int
    edges: frozenset
    symmetric: bool = False

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("vertex count must be non-negative")
        for e in self.edges:
            u, v = e
            if not (isinstance(u, int) and isinstance(v, int)):
                raise GraphError(f"non-integer vertex in edge {e!r}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge {e!r} out of range for n={self.n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
        if self.symmetric:
            for u, v in self.edges:
                if (v, u) not in self.edges:
                    raise GraphError(
                        f"symmetric graph is missing the reverse of ({u}, {v})"
                    )

    def __repr__(self):
        tag = "undirected" if self.symmetric else "directed"
        return f"DirectedGraph(n={self.n}, m={len(self.edges)}, {tag})"


@dataclass(frozen=True)
class RefAbelianGroupInvariant:
    rank: int
    torsion: tuple = ()


@dataclass(frozen=True)
class RefPolynomial:
    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)


@dataclass(frozen=True)
class RefSubgraphNetwork:
    n: int
    classes: tuple
    adjacency: tuple


@dataclass
class RefCheckResult:
    name: str
    passed: bool
    seconds: float
    details: list = field(default_factory=list)
    failures: list = field(default_factory=list)


PAIRS = [
    (DirectedGraph, RefDirectedGraph),
    (AbelianGroupInvariant, RefAbelianGroupInvariant),
    (Polynomial, RefPolynomial),
    (SubgraphNetwork, RefSubgraphNetwork),
    (CheckResult, RefCheckResult),
]
FROZEN = PAIRS[:4]

small = st.integers(-1, 3)
ints = st.lists(small, max_size=3).map(tuple)
edge_sets = st.frozensets(st.tuples(small, small), max_size=4)
text = st.sampled_from(["", "cones", "ok: x", "FAIL: y"])
ARGS = {
    DirectedGraph: st.one_of(
        st.tuples(small, edge_sets, st.booleans()),
        edge_sets.map(lambda es: (4, frozenset(es) | {(v, u) for u, v in es}, True)),
    ),
    AbelianGroupInvariant: st.one_of(st.tuples(small), st.tuples(small, ints)),
    Polynomial: st.tuples(st.lists(small, max_size=4).map(tuple)),
    SubgraphNetwork: st.tuples(small, st.tuples(ints, ints), st.tuples(ints)),
    CheckResult: st.one_of(
        st.tuples(text, st.booleans(), st.floats(0, 2)),
        st.tuples(text, st.booleans(), st.floats(0, 2), st.lists(text), st.lists(text)),
    ),
}


def build(cls, args):
    """(instance, None) or (None, the error's type and message)."""
    try:
        return cls(*args), None
    except GraphError as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("new, ref", PAIRS, ids=lambda c: c.__name__)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_value_classes_behave_as_their_dataclasses(new, ref, data):
    args = data.draw(ARGS[new], label="args")
    other = data.draw(ARGS[new], label="other")
    a, error = build(new, args)
    b, ref_error = build(ref, args)
    assert error == ref_error
    if a is None:
        return
    c, _ = build(new, other)
    d, _ = build(ref, other)
    assert repr(a) == repr(b).removeprefix("Ref")
    assert vars(a) == vars(b)  # the defaults, and Polynomial's trim
    assert a == new(*args) and a != b and a != args
    if c is not None:
        assert (a == c) == (b == d)
        assert (a != c) == (b != d)
    assert (new.__hash__ is None) == (ref.__hash__ is None)
    if (new, ref) in FROZEN:
        assert hash(a) == hash(b)
        for name in vars(b):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
    else:
        with pytest.raises(TypeError):
            hash(a)
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is new and copy == a and repr(copy) == repr(a)


def test_check_results_get_fresh_lists():
    a, b = CheckResult("x", True, 0.0), CheckResult("x", True, 0.0)
    assert a.details == a.failures == []
    assert a.details is not b.details and a.details is not a.failures
    a.failures.append("y")
    a.seconds = 1.5
    assert b.failures == [] and a.seconds == 1.5
    given = []
    assert CheckResult("x", True, 0.0, given).details is given


def test_equal_fields_of_two_classes_are_not_equal():
    G = DirectedGraph(0, frozenset())
    network = SubgraphNetwork(0, frozenset(), False)
    assert G._values == network._values
    assert G != network and not G == network


def test_distances_stay_a_cached_property():
    assert isinstance(DirectedGraph.__dict__["distances"], cached_property)
    G = DirectedGraph(3, frozenset({(0, 1), (1, 2)}))
    assert G.distances is G.distances
    assert G.distances[0] == (0, 1, 2)
    copy = pickle.loads(pickle.dumps(G))
    assert copy == G and copy.distances == G.distances


def loaded_by_importing_the_cli(modules):
    """The modules among the given ones that ``import maghom.cli`` loads,
    sorted, in a fresh interpreter."""
    code = f"import maghom.cli, sys; print(sorted({set(modules)!r} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # both cost most of a cold start; this guards them without a timing bound
    assert loaded_by_importing_the_cli({"dataclasses", "inspect"}) == "[]"


def test_importing_the_cli_loads_no_fractions():
    # fractions pulls in decimal and numbers; only page-one coordinates over
    # Q need it, and they import it when they run
    assert loaded_by_importing_the_cli({"fractions", "decimal", "numbers"}) == "[]"
