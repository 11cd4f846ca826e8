"""The persistent program store: warm sessions skip the frontend compile.

This is the differential cold-vs-warm parity tier.  Contract under
test: a session hydrated from a ``cache_dir`` written by another
"process" (simulated by fresh sessions — uid counters only move
forward, so hydrated objects land in a disjoint uid space exactly as
they would across a real process boundary) must

* perform **zero** frontend compiles (counter-verified, both at the
  process-wide builder counter and the session's ``compile`` stage),
* produce output bit-identical to the cold run for Table 1 and
  Figure 3 rows,
* degrade to a cold compile — never an error — when the store file or
  a program row is corrupt, and
* fail loudly at flush time when a registered library or BSB was
  mutated after registration (the ROADMAP mutation nuance).
"""

import os
import pickle

import pytest

from repro.apps.registry import application_names, application_source
from repro.bsb.hierarchy import hierarchy_lines
from repro.cdfg.builder import frontend_compile_count
from repro.engine import DesignPoint, Session
from repro.engine.store import (
    PROGRAMS_STAGE,
    CacheStore,
    bsb_fingerprint,
    program_fingerprint,
)
from repro.errors import ReproError, StoreIntegrityError
from repro.hwlib.library import default_library
from repro.io.serialize import program_from_dict, program_to_dict
from repro.ir.ops import OpType
from repro.report.experiments import (
    fig3_sweep,
    render_fig3,
    render_table1,
    table1_rows,
)
from repro.viz.dot import bsb_hierarchy_to_dot

from tests.engine.test_compact import connect, store_path


def program_rows(store_dir):
    """The raw payloads of the stored program rows, oldest first."""
    with connect(store_dir) as db:
        return [payload for (payload,) in db.execute(
            "SELECT payload FROM spills WHERE stage = ? ORDER BY rowid",
            (PROGRAMS_STAGE,))]


def replace_program_payloads(store_dir, payload):
    with connect(store_dir) as db:
        db.execute("UPDATE spills SET payload = ? WHERE stage = ?",
                   (payload, PROGRAMS_STAGE))


class TestProgramFingerprint:
    def test_stable_across_calls(self):
        library = default_library()
        source, inputs = application_source("hal")
        assert (program_fingerprint("hal", source, inputs, library)
                == program_fingerprint("hal", source, inputs,
                                       default_library()))

    def test_source_and_inputs_and_name_matter(self):
        library = default_library()
        source, inputs = application_source("hal")
        base = program_fingerprint("hal", source, inputs, library)
        assert program_fingerprint("hal2", source, inputs,
                                   library) != base
        assert program_fingerprint("hal", source + "\n// edit",
                                   inputs, library) != base
        changed = dict(inputs)
        changed[next(iter(changed))] += 1
        assert program_fingerprint("hal", source, changed,
                                   library) != base

    def test_unknown_app_raises_the_registry_error(self):
        with pytest.raises(ReproError):
            application_source("nope")


class TestProgramRoundTrip:
    def test_real_program_survives_dump_load_reuid(self):
        cold = Session()
        program = cold.program("hal")
        clone = program_from_dict(program_to_dict(program))
        assert clone.name == program.name
        assert clone.source == program.source
        assert clone.source_lines() == program.source_lines()
        assert clone.inputs == program.inputs
        assert clone.final_values == program.final_values
        assert clone.outputs == program.outputs
        assert clone.ast is None
        # The CDFG travels as a neutral document: structure, names and
        # profile counts round-trip; uids are re-assigned on load.
        assert clone.cdfg is not None
        assert clone.cdfg.to_payload() == program.cdfg.to_payload()
        assert clone.cdfg.uid != program.cdfg.uid
        assert len(clone.bsbs) == len(program.bsbs)
        for fresh, original in zip(clone.bsbs, program.bsbs):
            assert fresh.uid != original.uid  # re-assigned, not copied
            assert bsb_fingerprint(fresh) == bsb_fingerprint(original)
            assert (fresh.dfg.structural_signature()
                    == original.dfg.structural_signature())
            ops = {op.uid for op in original.dfg.operations()}
            assert not ops & {op.uid for op in fresh.dfg.operations()}

    def test_malformed_documents_raise_repro_error(self):
        leaf = {"kind": "dfg", "name": "B1", "statements": 1,
                "test": False, "count": 1}
        for junk in (None, [], {"kind": "program"},
                     {"kind": "program", "version": 99},
                     {"kind": "program", "version": 1, "cdfg": {}},
                     {"kind": "program", "version": 1,
                      "cdfg": dict(leaf, reads=[], writes=[],
                                   dfg={"name": "x",
                                        "ops": [["??", "", None]],
                                        "edges": []})},
                     # A leaf without its DFG (the program store's one
                     # tree must carry it): damage, so a cold compile.
                     {"kind": "program", "version": 1,
                      "cdfg": {"kind": "seq", "name": "main",
                               "children": [leaf]}}):
            with pytest.raises(ReproError):
                program_from_dict(junk)

    def test_bad_edge_indices_are_rejected_not_reinterpreted(self):
        """Negative indices must fail (-> cold-compile fallback), not
        silently hydrate a different graph via Python indexing."""
        from repro.errors import CdfgError
        from repro.ir.dfg import DFG

        base = Session().program("straight")
        payload = None
        for bsb in base.bsbs:
            if len(bsb.dfg) >= 2:
                payload = bsb.dfg.to_payload()
                break
        assert payload is not None
        for edges in ([[-1, 0]], [[0, 99]], [["0", 1]], [[0]], 5):
            bad = dict(payload, edges=edges)
            with pytest.raises(CdfgError):
                DFG.from_payload(bad)

    def test_cyclic_payload_is_rejected(self):
        program = Session().program("straight")
        payload = program_to_dict(program)

        def first_leaf(node):
            if node["kind"] == "dfg":
                return node if len(node["dfg"]["ops"]) >= 2 else None
            children = node.get("children") or [
                node.get(key) for key in ("test", "body", "then", "else")]
            for child in children:
                found = None if child is None else first_leaf(child)
                if found is not None:
                    return found
            return None

        leaf = first_leaf(payload["cdfg"])
        leaf["dfg"]["edges"] = [[0, 1], [1, 0]]
        with pytest.raises(ReproError):
            program_from_dict(payload)


@pytest.fixture(scope="module")
def cold_programs(tmp_path_factory):
    """The four apps compiled cold into one store: (store dir, programs)."""
    store_dir = str(tmp_path_factory.mktemp("programs") / "store")
    session = Session(cache_dir=store_dir)
    programs = {app: session.program(app) for app in application_names()}
    session.save_store()
    return store_dir, programs


class TestColdWarmParity:
    @pytest.mark.parametrize("app", application_names())
    def test_hydrated_trees_equal_the_cold_compile(self, cold_programs,
                                                   app):
        """The warm program's stored CDFG renders the cold compile's
        BSB hierarchy, and its leaf-BSB array comes out of the cold
        compile's code: same graphs, same leaves."""
        store_dir, programs = cold_programs
        cold = programs[app]
        warm_session = Session(cache_dir=store_dir)
        before = frontend_compile_count()
        warm = warm_session.program(app)
        assert frontend_compile_count() == before
        assert warm.ast is None
        assert (bsb_hierarchy_to_dot(warm.cdfg, name=app)
                == bsb_hierarchy_to_dot(cold.cdfg, name=app))
        assert hierarchy_lines(warm.cdfg) == hierarchy_lines(cold.cdfg)
        assert ([bsb_fingerprint(bsb) for bsb in warm.bsbs]
                == [bsb_fingerprint(bsb) for bsb in cold.bsbs])
        warm_leaves, cold_leaves = warm.cdfg.leaves(), cold.cdfg.leaves()
        assert len(warm_leaves) == len(cold_leaves)
        for fresh, original in zip(warm_leaves, cold_leaves):
            assert fresh.dfg is not None
            assert fresh.dfg.to_payload() == original.dfg.to_payload()
            assert (fresh.reads, fresh.writes) == (original.reads,
                                                   original.writes)

    def test_table1_rows_bit_identical_with_zero_compiles(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold_session = Session(cache_dir=store_dir)
        cold = table1_rows(names=["straight"], max_evaluations=40,
                           session=cold_session)
        assert cold_session.stats.miss_count("compile") == 1

        warm_session = Session(cache_dir=store_dir)
        before = frontend_compile_count()
        warm = table1_rows(names=["straight"], max_evaluations=40,
                           session=warm_session)
        # The counter proof: the warm path never entered the frontend.
        assert frontend_compile_count() == before
        assert warm_session.stats.miss_count("compile") == 0
        assert warm_session.stats.hit_count("compile") == 1
        # Bit-identical rows — the rendered table includes the stored
        # cpu-seconds, so full string equality is the real contract.
        assert render_table1(warm) == render_table1(cold)
        assert warm[0].allocation == cold[0].allocation
        assert warm[0].best_allocation == cold[0].best_allocation

    def test_fig3_rows_bit_identical_with_zero_compiles(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold_session = Session(cache_dir=store_dir)
        cold = fig3_sweep(name="hal", fractions=[0.3, 0.6],
                          session=cold_session)
        cold_session.save_store()

        warm_session = Session(cache_dir=store_dir)
        before = frontend_compile_count()
        warm = fig3_sweep(name="hal", fractions=[0.3, 0.6],
                          session=warm_session)
        assert frontend_compile_count() == before
        assert warm == cold
        assert render_fig3(warm) == render_fig3(cold)

    def test_parallel_explore_ships_worker_programs_home(self, tmp_path):
        """A cold parallel sweep compiles only in the pool workers —
        their program documents must still reach the store through the
        delta plumbing, so a later serial process is fully warm."""
        store_dir = str(tmp_path / "store")
        spec_area = 9000.0
        points = [DesignPoint(app="hal", area=f * spec_area)
                  for f in (0.5, 0.75)]
        cold_session = Session(cache_dir=store_dir)
        cold = cold_session.explore(points, workers=2)
        assert cold_session.stats.miss_count("compile") >= 1

        warm_session = Session(cache_dir=store_dir)
        before = frontend_compile_count()
        warm = warm_session.explore(points)
        assert frontend_compile_count() == before
        assert [r.speedup for r in warm] == [r.speedup for r in cold]
        assert [r.allocation for r in warm] == [r.allocation
                                                for r in cold]

    def test_storeless_sessions_still_count_compiles(self):
        session = Session()
        session.program("straight")
        assert session.stats.miss_count("compile") == 1
        session.program("straight")  # memo hit: no second compile
        assert session.stats.miss_count("compile") == 1
        assert session.stats.hit_count("program") == 1


class TestProgramShardRobustness:
    def _warm_store(self, store_dir):
        session = Session(cache_dir=store_dir)
        result = session.evaluate_point(DesignPoint(app="hal"))
        session.save_store()
        return result

    def test_corrupt_program_shard_degrades_to_cold_compile(
            self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = self._warm_store(store_dir)
        replace_program_payloads(store_dir, b"not a pickle at all")
        session = Session(cache_dir=store_dir)
        before = frontend_compile_count()
        warm = session.evaluate_point(DesignPoint(app="hal"))
        assert frontend_compile_count() == before + 1  # cold fallback
        assert warm.speedup == cold.speedup
        assert warm.allocation == cold.allocation
        # The fallback compile repairs the store for the next session:
        # a fresh row replaces the damaged one.
        session.save_store()
        (repaired,) = program_rows(store_dir)
        assert len(pickle.loads(repaired)) == 1
        fresh = Session(cache_dir=store_dir)
        before = frontend_compile_count()
        fresh.program("hal")
        assert frontend_compile_count() == before

    def test_damaged_program_entry_degrades_to_cold_compile(
            self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = self._warm_store(store_dir)
        (payload,) = program_rows(store_dir)
        poisoned = {key: {"kind": "garbage"}
                    for key in pickle.loads(payload)}
        replace_program_payloads(store_dir, pickle.dumps(poisoned))
        session = Session(cache_dir=store_dir)
        before = frontend_compile_count()
        warm = session.evaluate_point(DesignPoint(app="hal"))
        assert frontend_compile_count() == before + 1
        assert warm.speedup == cold.speedup
        # The fallback compile's copy replaces the rejected row, so the
        # store heals: no further compile, and one program row.
        session.save_store()
        assert len(program_rows(store_dir)) == 1
        for _ in range(2):
            fresh = Session(cache_dir=store_dir)
            before = frontend_compile_count()
            fresh.program("hal")
            assert frontend_compile_count() == before
            assert fresh.stats.hit_count("compile") == 1
            fresh.save_store()
            assert len(program_rows(store_dir)) == 1

    def test_absorbed_program_replaces_the_stored_row(self, tmp_path):
        # A coordinator that already stores hal absorbs it again from
        # every fresh worker; the store keeps one row per program.
        store_dir = str(tmp_path / "store")
        self._warm_store(store_dir)
        (payload,) = program_rows(store_dir)
        session = Session(cache_dir=store_dir)
        assert session.store.absorb_delta(
            {PROGRAMS_STAGE: pickle.loads(payload)}) == 1
        session.save_store()
        assert len(program_rows(store_dir)) == 1

    def test_truncated_program_shard_recovers(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = self._warm_store(store_dir)
        path = store_path(store_dir)
        size = os.path.getsize(path)
        with open(path, "rb+") as handle:
            handle.truncate(max(1, size // 2))
        session = Session(cache_dir=store_dir)
        warm = session.evaluate_point(DesignPoint(app="hal"))
        assert warm.speedup == cold.speedup


class TestMutationIntegrity:
    def test_mutated_library_fails_loudly_at_flush(self, tmp_path):
        library = default_library()
        session = Session(library=library,
                          cache_dir=str(tmp_path / "store"))
        session.evaluate_point(DesignPoint(app="straight"))
        library.add_single("rogue", OpType.ADD, area=1.0, latency=1)
        with pytest.raises(StoreIntegrityError):
            session.save_store()

    def test_mutated_bsb_fails_loudly_at_flush(self, tmp_path):
        session = Session(cache_dir=str(tmp_path / "store"))
        program = session.program("straight")
        program.bsbs[0].dfg.new_operation(OpType.MUL, label="rogue")
        with pytest.raises(StoreIntegrityError):
            session.save_store()

    def test_unmutated_flush_stays_quiet(self, tmp_path):
        session = Session(cache_dir=str(tmp_path / "store"))
        session.evaluate_point(DesignPoint(app="straight"))
        assert session.save_store() > 0
        store = CacheStore(session.store.root)
        assert PROGRAMS_STAGE in store.info()


class TestCompaction:
    def test_program_entries_participate_in_lru_compaction(
            self, tmp_path):
        store_dir = str(tmp_path / "store")
        session = Session(cache_dir=store_dir)
        session.evaluate_point(DesignPoint(app="straight"))
        session.save_store()
        report = CacheStore(store_dir).compact(max_bytes=0)
        kept, dropped = report["stages"][PROGRAMS_STAGE]
        assert (kept, dropped) == (0, 1)
        assert program_rows(store_dir) == []
        # Compacted-away program: the next session cold-compiles.
        fresh = Session(cache_dir=store_dir)
        before = frontend_compile_count()
        fresh.program("straight")
        assert frontend_compile_count() == before + 1
