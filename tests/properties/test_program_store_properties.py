"""Property-based round trips for the program-store serialization.

The program store's correctness rests on one invariant: dumping a
graph to its neutral payload and loading it back — into a *fresh* uid
space — preserves everything the content-addressed store keys on
(structural signatures, BSB fingerprints) and everything the pipeline
reads (adjacency, topological order, op mix, profile metadata), while
sharing **no** uid with the original.  The generators from
:mod:`repro.apps.synthetic` drive that invariant across random
(seed, size, chain-shape) points; seeded loops cover the array-level
generator the same way.  A stored program keeps one tree, the CDFG, so
each synthetic DFG travels the way a compiled one does: on a lowered
CDFG leaf, through :func:`cdfg_from_payload`, and into a BSB through
:func:`leaf_array`.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import synthetic_bsb, synthetic_bsb_array
from repro.bsb.hierarchy import leaf_array
from repro.cdfg.nodes import CdfgLeaf, CdfgSeq, cdfg_from_payload
from repro.engine.store import bsb_fingerprint
from repro.ir.dfg import DFG


def as_leaf(bsb):
    """A lowered, profiled CDFG leaf carrying a synthetic BSB's data."""
    leaf = CdfgLeaf(name=bsb.name)
    leaf.dfg = bsb.dfg
    leaf.exec_count = bsb.profile_count
    leaf.reads = set(bsb.reads)
    leaf.writes = set(bsb.writes)
    return leaf


def hydrate(payload):
    """The leaf-BSB array the program store builds from a CDFG payload."""
    return leaf_array(cdfg_from_payload(payload))


def assert_dfg_clone(original, clone):
    """The full uid-free equivalence the store relies on."""
    assert clone.structural_signature() == original.structural_signature()
    assert len(clone) == len(original)
    original_ops = original.operations()
    clone_ops = clone.operations()
    assert not ({op.uid for op in original_ops}
                & {op.uid for op in clone_ops})
    for old, new in zip(original_ops, clone_ops):
        assert new.optype == old.optype
        assert new.label == old.label
        assert new.value == old.value
    # Adjacency carried over positionally (uids are re-assigned, so
    # compare through each graph's own dense numbering).
    index_old = {op.uid: i for i, op in enumerate(original_ops)}
    index_new = {op.uid: i for i, op in enumerate(clone_ops)}
    for old, new in zip(original_ops, clone_ops):
        assert ([index_old[p.uid] for p in original.predecessors(old)]
                == [index_new[p.uid] for p in clone.predecessors(new)])
        assert ([index_old[s.uid] for s in original.successors(old)]
                == [index_new[s.uid] for s in clone.successors(new)])
    assert ([index_old[op.uid] for op in original.topological_order()]
            == [index_new[op.uid] for op in clone.topological_order()])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       ops=st.integers(min_value=1, max_value=40),
       chain=st.floats(min_value=0.0, max_value=1.0))
def test_synthetic_dfg_round_trip_preserves_signature(seed, ops, chain):
    bsb = synthetic_bsb(ops, seed=seed, name="synth%d" % seed,
                        chain_probability=chain)
    clone = DFG.from_payload(bsb.dfg.to_payload())
    assert_dfg_clone(bsb.dfg, clone)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       ops=st.integers(min_value=1, max_value=25),
       chain=st.floats(min_value=0.0, max_value=1.0),
       profile=st.integers(min_value=0, max_value=500))
def test_synthetic_leaf_round_trip_preserves_fingerprint(
        seed, ops, chain, profile):
    bsb = synthetic_bsb(ops, seed=seed, name="leaf%d" % seed,
                        chain_probability=chain, profile=profile)
    [clone] = hydrate(as_leaf(bsb).to_payload())
    assert clone.uid != bsb.uid
    assert clone.name == bsb.name
    assert clone.profile_count == bsb.profile_count
    assert clone.reads == bsb.reads
    assert clone.writes == bsb.writes
    assert bsb_fingerprint(clone) == bsb_fingerprint(bsb)
    assert_dfg_clone(bsb.dfg, clone.dfg)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       bsb_count=st.integers(min_value=1, max_value=8),
       ops=st.integers(min_value=1, max_value=12))
def test_synthetic_array_round_trip(seed, bsb_count, ops):
    """Whole arrays survive: fingerprints, order and chained dataflow."""
    bsbs = synthetic_bsb_array(bsb_count, ops, seed=seed)
    tree = CdfgSeq([as_leaf(bsb) for bsb in bsbs], name="array")
    clones = hydrate(tree.to_payload())
    assert ([bsb_fingerprint(clone) for clone in clones]
            == [bsb_fingerprint(bsb) for bsb in bsbs])
    for clone, bsb in zip(clones, bsbs):
        assert clone.reads == bsb.reads
        assert clone.writes == bsb.writes


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       ops=st.integers(min_value=1, max_value=30))
def test_payloads_are_plain_json_data(seed, ops):
    """Neutral means neutral: no live objects, no uids, JSON round-trip
    clean — what the store pickles is pure data."""
    bsb = synthetic_bsb(ops, seed=seed, name="json%d" % seed)
    payload = as_leaf(bsb).to_payload()
    [rebuilt] = hydrate(json.loads(json.dumps(payload)))
    assert bsb_fingerprint(rebuilt) == bsb_fingerprint(bsb)


def test_double_round_trip_is_stable():
    """dump(load(dump(x))) == dump(x): the payload is a fixed point,
    so repeated store generations never drift."""
    for seed in range(10):
        bsb = synthetic_bsb(15, seed=seed, name="fix%d" % seed,
                            chain_probability=0.6, profile=seed + 1)
        once = as_leaf(bsb).to_payload()
        twice = cdfg_from_payload(once).to_payload()
        assert twice == once
