"""The neutral uid-free CDFG document (warm-store visualisation).

Three contracts:

* payload -> hydrate -> payload is a fixed point (the store can
  round-trip documents forever without drift);
* hydration re-assigns uids but restores names/structure/counts
  verbatim, so a warm ``cdfg_to_dot`` is byte-identical to cold;
* program documents carry the CDFG as their only tree (leaves hold
  their DFGs), and a store-hydrated program renders it with **zero**
  frontend compiles.
"""

import pytest

from repro.cdfg.builder import compile_source, frontend_compile_count
from repro.cdfg.nodes import (
    HYDRATED_COND,
    HYDRATED_STATEMENT,
    CdfgBranch,
    CdfgLeaf,
    CdfgLoop,
    CdfgSeq,
    CdfgWait,
    cdfg_from_payload,
)
from repro.errors import CdfgError, ReproError
from repro.io.serialize import program_from_dict, program_to_dict
from repro.ir.dfg import DFG
from repro.ir.ops import OpType
from repro.viz.dot import cdfg_to_dot

SOURCE = """
x = 1;
while (x < 5) { x = x + 1; }
if (x == 5) { y = 2; } else { y = 3; }
"""


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE, name="payload")


def lowered(leaf, reads=(), writes=()):
    """A hand-built leaf with the DFG a lowering pass would give it:
    one ADD per statement, and a CMP for a test leaf."""
    leaf.dfg = DFG(name=leaf.name)
    for _ in leaf.statements:
        leaf.dfg.new_operation(OpType.ADD)
    if leaf.cond is not None:
        leaf.dfg.new_operation(OpType.CMP)
    leaf.reads, leaf.writes = set(reads), set(writes)
    return leaf


class TestRoundTrip:
    def test_payload_is_a_fixed_point(self, program):
        document = program.cdfg.to_payload()
        clone = cdfg_from_payload(document)
        assert clone.to_payload() == document
        # And once more: hydrating a hydrated tree's payload is stable.
        assert cdfg_from_payload(clone.to_payload()).to_payload() \
            == document

    def test_fresh_uids_but_verbatim_names(self, program):
        clone = cdfg_from_payload(program.cdfg.to_payload())
        originals = _walk(program.cdfg)
        clones = _walk(clone)
        assert [node.name for node in clones] \
            == [node.name for node in originals]
        assert not ({node.uid for node in clones}
                    & {node.uid for node in originals})

    def test_leaf_placeholders_preserve_counts_and_test_flag(self):
        leaf = lowered(CdfgLeaf(statements=[object(), object()],
                                cond=object(), name="B1"),
                       reads={"a", "n"}, writes={"a"})
        leaf.exec_count = 7
        clone = cdfg_from_payload(leaf.to_payload())
        assert len(clone.statements) == 2
        assert clone.statements == [HYDRATED_STATEMENT] * 2
        assert clone.cond is HYDRATED_COND
        assert clone.exec_count == 7
        assert not clone.is_empty()
        # The leaf's lowering travels with it: DFG, reads and writes.
        assert clone.dfg.to_payload() == leaf.dfg.to_payload()
        assert (clone.reads, clone.writes) == ({"a", "n"}, {"a"})

    def test_every_kind_round_trips(self):
        tree = CdfgSeq([
            lowered(CdfgLeaf(statements=[object()], name="B1")),
            CdfgLoop(lowered(CdfgLeaf(cond=object(), name="T1")),
                     lowered(CdfgLeaf(statements=[object()], name="B2"))),
            CdfgBranch(lowered(CdfgLeaf(cond=object(), name="T2")),
                       lowered(CdfgLeaf(name="B3")),
                       lowered(CdfgLeaf(name="B4"))),
            CdfgBranch(lowered(CdfgLeaf(cond=object(), name="T3")),
                       lowered(CdfgLeaf(name="B5"))),  # no else
            CdfgWait(4),
        ])
        document = tree.to_payload()
        clone = cdfg_from_payload(document)
        assert clone.to_payload() == document
        assert clone.children[3].else_body is None
        assert clone.children[4].cycles == 4

    def test_warm_dot_is_byte_identical(self, program):
        cold = cdfg_to_dot(program.cdfg, name="payload")
        clone = cdfg_from_payload(program.cdfg.to_payload())
        assert cdfg_to_dot(clone, name="payload") == cold


class TestMalformed:
    @pytest.mark.parametrize("junk", [
        None,
        [],
        "dfg",
        {},
        {"kind": "nope", "name": "x"},
        {"kind": "dfg", "name": "x", "statements": -1, "count": 0},
        {"kind": "dfg", "name": "x", "statements": "2", "count": 0},
        {"kind": "dfg", "name": "x", "statements": 1, "count": -2},
        {"kind": "seq", "name": "x"},
        {"kind": "loop", "name": "x", "test": None, "body": None},
        {"kind": "wait", "name": "x", "cycles": -1},
        {"kind": "wait", "name": "x"},
        # A leaf without its lowering: the store's one tree must carry
        # the DFG, reads and writes of every leaf.
        {"kind": "dfg", "name": "x", "statements": 0, "count": 0},
        {"kind": "dfg", "name": "x", "statements": 0, "count": 0,
         "dfg": {"name": "x", "ops": [["??", "", None]], "edges": []},
         "reads": [], "writes": []},
        {"kind": "dfg", "name": "x", "statements": 0, "count": 0,
         "dfg": {"name": "x", "ops": [], "edges": []}},
        {"kind": "dfg", "name": "x", "statements": 0, "count": 0,
         "dfg": {"name": "x", "ops": [], "edges": []},
         "reads": 3, "writes": []},
    ])
    def test_raises_cdfg_error(self, junk):
        with pytest.raises(CdfgError):
            cdfg_from_payload(junk)


class TestProgramDocument:
    def test_program_document_carries_the_cdfg(self, program):
        document = program_to_dict(program)
        assert document["cdfg"] == program.cdfg.to_payload()
        clone = program_from_dict(document)
        assert clone.cdfg is not None
        assert clone.cdfg.to_payload() == program.cdfg.to_payload()
        # The document of the hydrated twin is the original's: the
        # store never drifts on rewrite.
        assert program_to_dict(clone) == document

    def test_document_keeps_only_the_cdfg_tree(self, program):
        document = program_to_dict(program)
        assert "root" not in document
        del document["cdfg"]
        with pytest.raises(ReproError):
            program_from_dict(document)

    def test_malformed_embedded_cdfg_is_damage(self, program):
        document = program_to_dict(program)
        document["cdfg"] = {"kind": "nope", "name": "x"}
        with pytest.raises(ReproError):
            program_from_dict(document)


class TestWarmStoreViz:
    def test_warm_session_renders_cdfg_without_compiling(self, tmp_path):
        from repro.engine.session import Session

        store = str(tmp_path / "store")
        cold = Session(cache_dir=store)
        cold_dot = cdfg_to_dot(cold.program("hal").cdfg, name="hal")
        cold.save_store()

        before = frontend_compile_count()
        warm = Session(cache_dir=store)
        warm_program = warm.program("hal")
        assert frontend_compile_count() == before  # zero compiles
        assert warm.stats.hit_count("compile") == 1
        assert warm_program.cdfg is not None
        assert cdfg_to_dot(warm_program.cdfg, name="hal") == cold_dot


def _walk(node):
    nodes = [node]
    for child in node.children:
        nodes.extend(_walk(child))
    return nodes
