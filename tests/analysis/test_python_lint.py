"""Rule-by-rule tests for the Python determinism lint engine."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import REGISTRY, Severity, lint_source
from repro.analysis.python_lint import collect_python_files
from repro.errors import ParameterError


def _lint(text: str, path: str = "src/repro/module.py"):
    return lint_source(path, textwrap.dedent(text))


def _rules(findings):
    return [finding.rule_id for finding in findings]


class TestRegistry:
    def test_lookup_by_id_and_name(self):
        assert REGISTRY.get("RNG001").name == "global-rng"
        assert REGISTRY.get("global-rng").rule_id == "RNG001"

    def test_unknown_rule_raises(self):
        with pytest.raises(ParameterError):
            REGISTRY.get("NOPE999")

    def test_table_lists_both_engines(self):
        table = REGISTRY.table()
        assert "RNG001" in table
        assert "LIB001" in table


class TestRngRules:
    def test_global_seed_flagged(self):
        findings = _lint("import numpy as np\nnp.random.seed(0)\n")
        assert "RNG001" in _rules(findings)

    def test_global_sampling_flagged(self):
        findings = _lint("import numpy as np\nx = np.random.normal(0, 1)\n")
        assert "RNG001" in _rules(findings)

    def test_generator_method_clean(self):
        findings = _lint(
            """
            import numpy as np
            rng = np.random.default_rng(7)
            x = rng.normal(0, 1)
            """
        )
        assert "RNG001" not in _rules(findings)

    def test_seedless_default_rng_flagged(self):
        findings = _lint("import numpy as np\nrng = np.random.default_rng()\n")
        assert "RNG002" in _rules(findings)

    def test_seeded_default_rng_clean(self):
        findings = _lint("import numpy as np\nrng = np.random.default_rng(3)\n")
        assert "RNG002" not in _rules(findings)

    def test_seedless_rng_allowed_in_conftest(self):
        findings = _lint(
            "import numpy as np\nrng = np.random.default_rng()\n",
            path="tests/conftest.py",
        )
        assert "RNG002" not in _rules(findings)

    def test_sampler_without_rng_flagged(self):
        findings = _lint("def delay_sampler(n):\n    return n\n")
        assert "RNG003" in _rules(findings)

    def test_sampler_with_rng_clean(self):
        findings = _lint("def sample(n, rng):\n    return rng.normal(size=n)\n")
        assert "RNG003" not in _rules(findings)


class TestDeterminismRules:
    def test_for_over_set_literal_flagged(self):
        findings = _lint("for x in {1, 2, 3}:\n    print(x)\n")
        assert "DET001" in _rules(findings)

    def test_comprehension_over_set_call_flagged(self):
        findings = _lint("rows = [v for v in set(data)]\n")
        assert "DET001" in _rules(findings)

    def test_sorted_set_clean(self):
        findings = _lint("for x in sorted({1, 2, 3}):\n    print(x)\n")
        assert "DET001" not in _rules(findings)

    def test_wallclock_in_fingerprint_flagged(self):
        findings = _lint(
            """
            import time

            def config_fingerprint(config):
                return hash((config, time.time()))
            """
        )
        assert "DET002" in _rules(findings)

    def test_wallclock_outside_fingerprint_clean(self):
        findings = _lint(
            """
            import time

            def elapsed(start):
                return time.time() - start
            """
        )
        assert "DET002" not in _rules(findings)


class TestNumericalRules:
    def test_bare_except_flagged(self):
        findings = _lint(
            """
            def f():
                try:
                    g()
                except:
                    return None
            """
        )
        assert "NUM001" in _rules(findings)

    def test_except_exception_pass_flagged(self):
        findings = _lint(
            """
            def f():
                try:
                    g()
                except Exception:
                    pass
            """
        )
        assert "NUM001" in _rules(findings)

    def test_named_except_with_handling_clean(self):
        findings = _lint(
            """
            def f():
                try:
                    g()
                except ValueError:
                    return 0.0
            """
        )
        assert "NUM001" not in _rules(findings)

    def test_errstate_all_ignore_flagged(self):
        findings = _lint(
            "import numpy as np\nwith np.errstate(all=\"ignore\"):\n    pass\n"
        )
        assert "NUM002" in _rules(findings)

    def test_errstate_scoped_clean(self):
        findings = _lint(
            "import numpy as np\nwith np.errstate(divide=\"ignore\"):\n    pass\n"
        )
        assert "NUM002" not in _rules(findings)

    def test_unguarded_division_in_stats_flagged(self):
        findings = _lint(
            """
            def normalise(samples):
                total = samples.sum()
                return samples / total
            """,
            path="src/repro/stats/thing.py",
        )
        assert "NUM003" in _rules(findings)

    def test_guarded_division_clean(self):
        findings = _lint(
            """
            def normalise(samples):
                total = samples.sum()
                if total <= 0.0:
                    raise ValueError("degenerate")
                return samples / total
            """,
            path="src/repro/stats/thing.py",
        )
        assert "NUM003" not in _rules(findings)

    def test_division_by_parameter_out_of_scope(self):
        findings = _lint(
            "def scale(x, sigma):\n    return x / sigma\n",
            path="src/repro/stats/thing.py",
        )
        assert "NUM003" not in _rules(findings)

    def test_division_outside_stats_clean(self):
        findings = _lint(
            """
            def normalise(samples):
                total = samples.sum()
                return samples / total
            """,
            path="src/repro/circuits/thing.py",
        )
        assert "NUM003" not in _rules(findings)


class TestParallelRules:
    RUNTIME = "src/repro/runtime/thing.py"

    def test_module_mutable_dict_flagged(self):
        findings = _lint("_CACHE = {}\n", path=self.RUNTIME)
        assert "PAR001" in _rules(findings)

    def test_dunder_metadata_exempt(self):
        findings = _lint('__all__ = ["a", "b"]\n', path=self.RUNTIME)
        assert "PAR001" not in _rules(findings)

    def test_immutable_tuple_clean(self):
        findings = _lint("_KINDS = (1, 2, 3)\n", path=self.RUNTIME)
        assert "PAR001" not in _rules(findings)

    def test_module_state_outside_runtime_clean(self):
        findings = _lint("_CACHE = {}\n", path="src/repro/stats/thing.py")
        assert "PAR001" not in _rules(findings)

    def test_write_mode_open_flagged(self):
        findings = _lint(
            'with open("out.txt", "w") as f:\n    f.write("x")\n'
        )
        assert "PAR002" in _rules(findings)

    def test_write_text_method_flagged(self):
        findings = _lint('path.write_text("x")\n')
        assert "PAR002" in _rules(findings)

    def test_read_open_clean(self):
        findings = _lint('with open("in.txt") as f:\n    f.read()\n')
        assert "PAR002" not in _rules(findings)

    def test_atomic_helper_module_exempt(self):
        findings = _lint(
            'with open("out.txt", "w") as f:\n    f.write("x")\n',
            path="src/repro/runtime/export.py",
        )
        assert "PAR002" not in _rules(findings)

    def test_fsfaults_seam_write_clean(self):
        # Writes routed through the retrying FS seam are the
        # sanctioned path, not a Path.write_bytes bypass.
        findings = _lint(
            'fsfaults.write_bytes(tmp, blob, op="checkpoint.write")\n'
        )
        assert "PAR002" not in _rules(findings)

    def test_path_write_bytes_still_flagged(self):
        findings = _lint('path.write_bytes(b"x")\n')
        assert "PAR002" in _rules(findings)

    def test_global_rebind_in_runtime_flagged(self):
        findings = _lint(
            """
            _ACTIVE = None

            def activate(session):
                global _ACTIVE
                _ACTIVE = session
            """,
            path=self.RUNTIME,
        )
        assert "PAR003" in _rules(findings)

    def test_global_outside_runtime_clean(self):
        findings = _lint(
            """
            _ACTIVE = None

            def activate(session):
                global _ACTIVE
                _ACTIVE = session
            """,
            path="src/repro/stats/thing.py",
        )
        assert "PAR003" not in _rules(findings)


class TestEngineBehaviour:
    def test_syntax_error_raises_parameter_error(self):
        with pytest.raises(ParameterError, match="unparseable"):
            _lint("def broken(:\n")

    def test_findings_carry_line_and_source(self):
        findings = _lint("import numpy as np\nnp.random.seed(0)\n")
        finding = next(f for f in findings if f.rule_id == "RNG001")
        assert finding.line == 2
        assert "np.random.seed(0)" in finding.source
        assert finding.severity is Severity.ERROR

    def test_collect_missing_path_raises(self, tmp_path):
        with pytest.raises(ParameterError, match="no such file"):
            collect_python_files([str(tmp_path / "nope")])

    def test_collect_empty_dir_raises(self, tmp_path):
        with pytest.raises(ParameterError, match="no Python sources"):
            collect_python_files([str(tmp_path)])
