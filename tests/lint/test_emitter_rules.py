"""AST emitter lint: determinism, hot-path emission, ISA legality."""

import textwrap

from repro.lint.emitter_rules import (
    default_emitter_paths,
    lint_paths,
    lint_source,
)
from tests.lint.util import rules_of

KPATH = "src/repro/kernels/fake/vector.py"  # triggers hot-path rules


def lint(code: str, path: str = KPATH) -> list[str]:
    return rules_of(lint_source(path, textwrap.dedent(code)))


class TestDeterminism:
    def test_clean_emitter(self):
        assert lint("""
            import numpy as np

            def build(session, workload):
                rng = np.random.default_rng(workload.seed)
                return rng.permutation(8)
        """) == []

    def test_wall_clock_is_flagged(self):
        assert "E001" in lint("""
            import time

            def build(session, workload):
                t0 = time.perf_counter()
                return t0
        """)

    def test_unseeded_rng_is_flagged(self):
        assert "E002" in lint("""
            import numpy as np

            def build(session, workload):
                return np.random.rand(8)
        """)

    def test_bare_default_rng_is_flagged_seeded_is_not(self):
        assert "E002" in lint("""
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert lint("""
            import numpy as np
            rng = np.random.default_rng(7)
        """) == []

    def test_inline_suppression(self):
        assert lint("""
            import time
            t0 = time.time()  # repro-lint: disable=E001
        """) == []
        # suppressing a different rule does not silence it
        assert "E001" in lint("""
            import time
            t0 = time.time()  # repro-lint: disable=E002
        """)

    def test_syntax_error_maps_to_e000(self):
        assert lint("def build(:\n") == ["E000"]


class TestSuppressionAudit:
    def test_used_suppression_silences_and_stays_quiet(self):
        assert lint("""
            import time
            t0 = time.time()  # repro-lint: disable=E001
        """) == []

    def test_unknown_rule_is_w001(self):
        assert lint("""
            import time
            t0 = time.time()  # repro-lint: disable=E999,E001
        """) == ["W001"]

    def test_stale_suppression_is_w002(self):
        assert lint("""
            t0 = 0.0  # repro-lint: disable=E001
        """) == ["W002"]

    def test_disable_all(self):
        assert lint("""
            import time
            t0 = time.time()  # repro-lint: disable=all
        """) == []


class TestHotPath:
    def test_object_emission_in_loop(self):
        code = """
            def build(session, workload):
                trace = session.trace
                for i in range(8):
                    trace.append(make_record(i))
        """
        assert "E003" in lint(code)
        # the same code outside kernels/ is not a hot path
        assert lint(code, path="src/repro/isa/vector_ctx.py") == []

    def test_columnar_emission_is_clean(self):
        assert lint("""
            def build(session, workload):
                trace = session.trace
                for i in range(8):
                    trace.emit_vector(2, 64, 1)
        """) == []


class TestIsaLegality:
    def test_illegal_vl_literal(self):
        assert "E004" in lint("""
            def build(session, workload):
                session.configure(max_vl=300)
        """)
        assert "E004" in lint("""
            def build(session, workload):
                session.configure(max_vl=48)
        """)

    def test_legal_vl_literals(self):
        assert lint("""
            def build(session, workload):
                session.configure(max_vl=256)
                ctx = session.with_max_vl(8)
        """) == []

    def test_csr_state_outside_csr_module(self):
        code = """
            def poke(ctx):
                ctx._max_vl = 64
        """
        assert "E005" in lint(code)
        assert lint(code, path="src/repro/isa/csr.py") == []

    def test_raw_csr_address_literal(self):
        assert "E006" in lint("""
            VLENB = 0xC22 - 0x2
            addr = 0xC20
        """)
        # decimal coincidences stay silent
        assert lint("n_bytes = 3104\n") == []


class TestRepoSweep:
    def test_default_paths_cover_kernels_and_isa(self):
        paths = [p.as_posix() for p in default_emitter_paths()]
        assert any("/kernels/" in p for p in paths)
        assert any("/isa/" in p for p in paths)

    def test_the_real_emitters_are_clean(self):
        assert lint_paths() == []
