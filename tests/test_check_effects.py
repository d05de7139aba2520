"""Unit tests of the C5xx effect/determinism analysis.

Every shipped rule gets a non-vacuity test: a seeded mutation that MUST
fire it (a checker that never fires proves nothing).  The declaration
and propagation mechanics get their own coverage, and the shipped tree
is asserted clean end-to-end in test_check_gate.py / test_check_cli.py.
"""

from __future__ import annotations

import pytest

from repro.check.effects import (
    analyze_effects_sources,
    declared_effect_kinds,
)
from repro.effects import EFFECT_KINDS, declares_effects, declared_effects


def rules_of(report):
    return {diag.rule for diag in report.diagnostics}


def analyze_one(source):
    return analyze_effects_sources({"exp.py": source})


# --- cache-soundness rules (C501-C507) ---------------------------------------


def test_c501_wallclock_read_in_a_driver_fires():
    report = analyze_one(
        "import time\n"
        "@experiment_driver('fig')\n"
        "def drv():\n"
        "    return time.time()\n"
    )
    assert "C501" in rules_of(report)


def test_c501_fires_through_a_call_chain_with_the_path_recorded():
    report = analyze_one(
        "import time\n"
        "def leaf():\n"
        "    return time.monotonic()\n"
        "def middle():\n"
        "    return leaf()\n"
        "@experiment_driver('fig')\n"
        "def drv():\n"
        "    return middle()\n"
    )
    assert "C501" in rules_of(report)
    (diag,) = [d for d in report.diagnostics if d.rule == "C501"]
    assert "middle -> leaf" in diag.message
    # Reported at the entry's def line, not at the witness.
    assert diag.location.line == 7


def test_c502_global_rng_in_a_cache_runner_fires():
    report = analyze_one(
        "import random\n"
        "def runner():\n"
        "    return random.random()\n"
        "def lookup(cache, key):\n"
        "    return cache.get_or_run(key, runner)\n"
    )
    assert "C502" in rules_of(report)


def test_seeded_rng_instances_are_not_flagged():
    report = analyze_one(
        "import random\n"
        "@experiment_driver('fig')\n"
        "def drv(seed):\n"
        "    rng = random.Random(seed)\n"
        "    return rng.random()\n"
    )
    assert rules_of(report) == set()


def test_c503_environment_read_fires():
    report = analyze_one(
        "import os\n"
        "@experiment_driver('fig')\n"
        "def drv():\n"
        "    return os.getenv('THREADS')\n"
    )
    assert "C503" in rules_of(report)


def test_c504_filesystem_access_fires():
    report = analyze_one(
        "@experiment_driver('fig')\n"
        "def drv():\n"
        "    with open('data.txt') as stream:\n"
        "        return stream.read()\n"
    )
    assert "C504" in rules_of(report)


def test_c505_network_access_fires():
    report = analyze_one(
        "from urllib.request import urlopen\n"
        "@experiment_driver('fig')\n"
        "def drv():\n"
        "    return urlopen('http://example.com').read()\n"
    )
    assert "C505" in rules_of(report)


def test_c506_module_state_mutation_under_a_driver_fires():
    report = analyze_one(
        "COUNT = 0\n"
        "@experiment_driver('fig')\n"
        "def drv():\n"
        "    global COUNT\n"
        "    COUNT = COUNT + 1\n"
        "    return COUNT\n"
    )
    assert "C506" in rules_of(report)


def test_c506_module_container_mutation_fires():
    report = analyze_one(
        "RESULTS = []\n"
        "@experiment_driver('fig')\n"
        "def drv(value):\n"
        "    RESULTS.append(value)\n"
        "    return RESULTS\n"
    )
    assert "C506" in rules_of(report)


@pytest.mark.parametrize(
    "imports, decorator",
    [
        ("import functools\n", "@functools.lru_cache(maxsize=4)"),
        ("from functools import lru_cache\n", "@lru_cache"),
        ("import functools as ft\n", "@ft.cache"),
    ],
)
def test_c506_undeclared_decorator_memo_fires(imports, decorator):
    report = analyze_one(
        imports
        + f"{decorator}\n"
        "def image(label):\n"
        "    return label * 2\n"
        "@experiment_driver('fig')\n"
        "def drv(label):\n"
        "    return image(label)\n"
    )
    (diag,) = [d for d in report.diagnostics if d.rule == "C506"]
    assert "memo holds module-level state" in diag.message
    assert "via image" in diag.message


def test_declared_decorator_memo_is_absorbed():
    report = analyze_one(
        "from functools import lru_cache\n"
        "@declares_effects('module-state')\n"
        "@lru_cache(maxsize=4)\n"
        "def image(label):\n"
        "    return label * 2\n"
        "@experiment_driver('fig')\n"
        "def drv(label):\n"
        "    return image(label)\n"
    )
    assert rules_of(report) == set()


def test_c507_identity_dependence_fires():
    report = analyze_one(
        "@experiment_driver('fig')\n"
        "def drv(config):\n"
        "    return id(config)\n"
    )
    assert "C507" in rules_of(report)


# --- parallel-safety rules (C511-C514) ---------------------------------------


def test_c511_worker_rebinding_a_global_fires():
    report = analyze_one(
        "STATE = None\n"
        "def worker(value):\n"
        "    global STATE\n"
        "    STATE = value\n"
        "    return value\n"
        "def run(values):\n"
        "    return sweep(values, worker)\n"
    )
    assert "C511" in rules_of(report)


def test_c512_lambda_worker_fires_at_the_call_site():
    report = analyze_one(
        "def run(values):\n"
        "    return sweep(values, lambda v: v * 2)\n"
    )
    (diag,) = [d for d in report.diagnostics if d.rule == "C512"]
    assert diag.location.line == 2


def test_c512_nested_function_worker_fires():
    report = analyze_one(
        "def run(values):\n"
        "    def point(v):\n"
        "        return v * 2\n"
        "    return sweep(values, point)\n"
    )
    assert "C512" in rules_of(report)


def test_c513_worker_accumulating_into_a_module_container_fires():
    report = analyze_one(
        "RESULTS = []\n"
        "def worker(value):\n"
        "    RESULTS.append(value)\n"
        "    return value\n"
        "def run(values, pool):\n"
        "    return list(pool.map(worker, values))\n"
    )
    assert "C513" in rules_of(report)


def test_c513_worker_reaching_a_decorator_memo_fires():
    report = analyze_one(
        "from functools import cache\n"
        "@cache\n"
        "def image(label):\n"
        "    return label * 2\n"
        "def worker(label):\n"
        "    return image(label)\n"
        "def run(labels):\n"
        "    return sweep(labels, worker)\n"
    )
    assert "C513" in rules_of(report)


def test_c514_worker_drawing_from_the_global_rng_fires():
    report = analyze_one(
        "import random\n"
        "def worker(value):\n"
        "    return value + random.random()\n"
        "def run(values):\n"
        "    return sweep(values, worker)\n"
    )
    assert "C514" in rules_of(report)


def test_partial_wrapped_workers_are_unwrapped():
    report = analyze_one(
        "import time\n"
        "from functools import partial\n"
        "def worker(scale, value):\n"
        "    return time.time() * scale * value\n"
        "def run(values):\n"
        "    return sweep(values, partial(worker, 2.0))\n"
    )
    assert "C501" in rules_of(report)


def test_callable_instance_workers_gate_the_dunder_call():
    report = analyze_one(
        "import os\n"
        "class Timed:\n"
        "    def __call__(self, value):\n"
        "        return value, os.getpid()\n"
        "def run(values, pool):\n"
        "    return list(pool.map(Timed(), values))\n"
    )
    assert "C507" in rules_of(report)


# --- determinism rules (C521+) -----------------------------------------------


def test_c521_set_iteration_escaping_into_a_result_fires():
    report = analyze_one(
        "@experiment_driver('fig')\n"
        "def drv(a, b):\n"
        "    return [x for x in {a, b, 3}]\n"
    )
    assert "C521" in rules_of(report)


def test_sorted_set_iteration_is_clean():
    report = analyze_one(
        "@experiment_driver('fig')\n"
        "def drv(a, b):\n"
        "    return sorted(x for x in {a, b, 3})\n"
    )
    assert rules_of(report) == set()


def test_c522_float_accumulation_over_a_set_fires():
    report = analyze_one(
        "@experiment_driver('fig')\n"
        "def drv(a, b):\n"
        "    return sum({a, b, 0.5})\n"
    )
    assert "C522" in rules_of(report)


# --- the declared-effects boundary -------------------------------------------


def test_declared_kind_is_absorbed_at_the_boundary():
    report = analyze_one(
        "import time\n"
        "@declares_effects('time')\n"
        "def stamp():\n"
        "    return time.time()\n"
        "@experiment_driver('fig')\n"
        "def drv():\n"
        "    stamp()\n"
        "    return 1\n"
    )
    assert rules_of(report) == set()


def test_declaration_is_narrow_other_kinds_still_flow():
    report = analyze_one(
        "import time, os\n"
        "@declares_effects('time')\n"
        "def stamp():\n"
        "    os.getenv('HOME')\n"
        "    return time.time()\n"
        "@experiment_driver('fig')\n"
        "def drv():\n"
        "    stamp()\n"
        "    return 1\n"
    )
    assert rules_of(report) == {"C503"}


def test_declaration_on_the_entry_itself_absorbs():
    report = analyze_one(
        "import time\n"
        "@declares_effects('time')\n"
        "@experiment_driver('fig')\n"
        "def drv():\n"
        "    return time.time()\n"
    )
    assert rules_of(report) == set()


def test_pragma_on_the_entry_def_line_suppresses():
    report = analyze_one(
        "import time\n"
        "@experiment_driver('fig')\n"
        "def drv():  # lint: allow(C501)\n"
        "    return time.time()\n"
    )
    assert rules_of(report) == set()


def test_declared_effect_kinds_reads_only_string_literals():
    import ast

    tree = ast.parse(
        "@declares_effects('time', 'env')\n"
        "@declares_effects(variable)\n"
        "def fn():\n"
        "    pass\n"
    )
    assert declared_effect_kinds(tree.body[0]) == ("time", "env")


# --- the runtime decorator ---------------------------------------------------


def test_runtime_decorator_attaches_and_validates():
    @declares_effects("time", "identity")
    def stamp():
        return 0

    assert declared_effects(stamp) == ("time", "identity")
    assert declared_effects(len) == ()
    with pytest.raises(ValueError):
        declares_effects("wallclock")
    with pytest.raises(ValueError):
        declares_effects()


def test_every_effect_kind_is_declarable():
    for kind in EFFECT_KINDS:
        @declares_effects(kind)
        def fn():
            return None
        assert declared_effects(fn) == (kind,)


# --- scoping and resolution --------------------------------------------------


def test_calls_through_parameters_do_not_resolve_by_name():
    # ``experiment`` is a parameter of run(); the same-named module-level
    # function elsewhere must not leak its effects into run's callers.
    report = analyze_one(
        "import time\n"
        "def experiment():\n"
        "    return time.time()\n"
        "def run(experiment):\n"
        "    return experiment()\n"
        "@experiment_driver('fig')\n"
        "def drv():\n"
        "    return run(None)\n"
    )
    assert rules_of(report) == set()


def test_worker_parameters_are_not_resolved_by_name():
    report = analyze_one(
        "import time\n"
        "def experiment():\n"
        "    return time.time()\n"
        "def run(values, experiment):\n"
        "    return sweep(values, experiment)\n"
    )
    assert rules_of(report) == set()


def test_cache_runner_via_lambda_body_is_gated():
    report = analyze_one(
        "import time\n"
        "def simulate(config):\n"
        "    return time.time()\n"
        "def lookup(cache, key, config):\n"
        "    return cache.get_or_run(key, lambda: simulate(config))\n"
    )
    assert "C501" in rules_of(report)


def test_summary_shape_lists_entries_and_declarations():
    report = analyze_one(
        "import time\n"
        "@declares_effects('time')\n"
        "def stamp():\n"
        "    return time.time()\n"
        "@experiment_driver('fig')\n"
        "def drv():\n"
        "    stamp()\n"
        "    return 1\n"
    )
    summary = report.summary
    assert summary["converged"] is True
    (entry,) = summary["entry_points"]
    assert entry["qualname"] == "drv"
    assert entry["kind"] == "driver"
    assert entry["clean"] is True
    (declared,) = summary["declared"]
    assert declared["qualname"] == "stamp"
    assert declared["effects"] == ["time"]


def test_effects_propagate_across_modules():
    report = analyze_effects_sources(
        {
            "instrument.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "driver.py": (
                "@experiment_driver('fig')\n"
                "def drv():\n"
                "    return stamp()\n"
            ),
        }
    )
    assert "C501" in rules_of(report)
