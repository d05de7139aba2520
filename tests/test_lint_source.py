"""Source-checker tests: snippet in, expected S4xx diagnostics out."""

from __future__ import annotations

import textwrap

from repro.lint.source import iter_python_files, lint_file, lint_source_text


def check(snippet: str):
    return lint_source_text(textwrap.dedent(snippet), filename="snippet.py")


def rule_ids(diagnostics):
    return sorted(d.rule for d in diagnostics)


class TestS401Wallclock:
    def test_time_time(self):
        diags = check("""
            import time
            start = time.time()
        """)
        assert rule_ids(diags) == ["S401"]
        assert diags[0].location.line == 3

    def test_aliased_import(self):
        diags = check("""
            import time as clock
            t = clock.monotonic()
        """)
        assert rule_ids(diags) == ["S401"]

    def test_from_import(self):
        diags = check("""
            from time import time
            t = time()
        """)
        assert rule_ids(diags) == ["S401"]

    def test_datetime_now(self):
        diags = check("""
            import datetime
            stamp = datetime.now()
        """)
        assert rule_ids(diags) == ["S401"]

    def test_kernel_now_is_fine(self):
        assert check("now = kernel.now\n") == []

    def test_unrelated_time_attribute(self):
        # someone else's .time() on a non-time module is not flagged
        assert check("""
            import numpy
            t = numpy.time()
        """) == []


class TestS402FloatIntoPs:
    def test_float_literal_assign(self):
        diags = check("delay_ps = 1.5\n")
        assert rule_ids(diags) == ["S402"]

    def test_true_division_assign(self):
        diags = check("period_ps = total / count\n")
        assert rule_ids(diags) == ["S402"]

    def test_augmented_assign(self):
        diags = check("t_ps += dt / 2\n")
        assert rule_ids(diags) == ["S402"]

    def test_keyword_argument(self):
        diags = check("kernel.schedule(time_ps=seconds * 1e12)\n")
        assert rule_ids(diags) == ["S402"]

    def test_round_sanitizes(self):
        assert check("delay_ps = round(total / count)\n") == []

    def test_int_sanitizes_keyword(self):
        assert check("kernel.schedule(time_ps=int(seconds * 1e12))\n") == []

    def test_floor_division_is_fine(self):
        assert check("period_ps = total // count\n") == []

    def test_non_ps_target_is_fine(self):
        assert check("ratio = a / b\n") == []


class TestS403FloatEqPower:
    def test_eq_on_watts(self):
        diags = check("""
            if load_watts == 0:
                pass
        """)
        assert rule_ids(diags) == ["S403"]

    def test_noteq_on_attribute(self):
        diags = check("""
            if self.battery_wh != other.battery_wh:
                pass
        """)
        assert rule_ids(diags) == ["S403"]

    def test_inequality_is_fine(self):
        assert check("ok = load_watts <= 0\n") == []

    def test_non_power_name_is_fine(self):
        assert check("ok = count == 0\n") == []


class TestS404MutableDefault:
    def test_list_literal_default(self):
        diags = check("""
            def f(items=[]):
                return items
        """)
        assert rule_ids(diags) == ["S404"]

    def test_dict_call_default(self):
        diags = check("""
            def f(*, options=dict()):
                return options
        """)
        assert rule_ids(diags) == ["S404"]

    def test_none_default_is_fine(self):
        assert check("""
            def f(items=None):
                return items or []
        """) == []


class TestS405UnitSuffix:
    def test_millisecond_parameter(self):
        diags = check("""
            def wait(timeout_ms):
                pass
        """)
        assert rule_ids(diags) == ["S405"]
        assert diags[0].severity.value == "warning"
        assert "_ps" in (diags[0].hint or "")

    def test_milliwatt_parameter(self):
        diags = check("""
            def budget(limit_mw):
                pass
        """)
        assert rule_ids(diags) == ["S405"]

    def test_private_function_exempt(self):
        assert check("""
            def _wait(timeout_ms):
                pass
        """) == []

    def test_canonical_suffixes_are_fine(self):
        assert check("""
            def run(duration_ps, power_watts, budget_joules):
                pass
        """) == []


class TestS406PsAnnotation:
    def test_ps_param_annotated_float(self):
        diags = check("""
            def schedule(time_ps: float):
                pass
        """)
        assert rule_ids(diags) == ["S406"]

    def test_watts_param_annotated_int(self):
        diags = check("""
            def draw(load_watts: int):
                pass
        """)
        assert rule_ids(diags) == ["S406"]

    def test_ps_function_returning_float(self):
        diags = check("""
            def next_edge_ps(t) -> float:
                return t
        """)
        assert rule_ids(diags) == ["S406"]

    def test_correct_annotations_are_fine(self):
        assert check("""
            def schedule(time_ps: int, load_watts: float) -> int:
                return time_ps
        """) == []


class TestS400SyntaxError:
    def test_broken_module_reports_not_raises(self):
        diags = check("def broken(:\n")
        assert rule_ids(diags) == ["S400"]
        assert diags[0].location.file == "snippet.py"


class TestFileWalking:
    def test_lint_file_and_skip_pycache(self, tmp_path):
        (tmp_path / "mod.py").write_text("delay_ps = 1.5\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "mod.cpython-311.py").write_text("delay_ps = 1.5\n")
        files = list(iter_python_files([tmp_path]))
        assert files == [tmp_path / "mod.py"]
        diags = lint_file(files[0])
        assert rule_ids(diags) == ["S402"]
        assert diags[0].location.file == str(tmp_path / "mod.py")

    def test_diagnostics_sorted_by_line(self):
        diags = check("""
            import time

            def f(items=[]):
                t = time.time()
                return items
        """)
        assert [d.rule for d in diags] == ["S404", "S401"]
        lines = [d.location.line for d in diags]
        assert lines == sorted(lines)


class TestAllowPragma:
    def test_pragma_suppresses_named_rule(self):
        assert check("""
            import time
            t = time.perf_counter()  # lint: allow(S401) host profiler
        """) == []

    def test_pragma_is_per_line(self):
        diags = check("""
            import time
            t0 = time.perf_counter()  # lint: allow(S401)
            t1 = time.perf_counter()
        """)
        assert rule_ids(diags) == ["S401"]
        assert diags[0].location.line == 4

    def test_pragma_names_exact_rule(self):
        # allowing a different rule does not suppress S401
        diags = check("""
            import time
            t = time.time()  # lint: allow(S402)
        """)
        assert rule_ids(diags) == ["S401"]

    def test_pragma_multiple_rules(self):
        diags = check("""
            import time

            def f(items=[], t=time.time()):  # lint: allow(S401, S404)
                return items
        """)
        assert diags == []

    def test_unrelated_finding_on_same_line_still_fires(self):
        diags = check("""
            import time

            def f(items=[], t=time.time()):  # lint: allow(S404)
                return items
        """)
        assert rule_ids(diags) == ["S401"]
