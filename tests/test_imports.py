"""Import boundaries: each entry point loads only what it runs.

Every case that asks what an import loads runs in a fresh interpreter,
because this process has long since imported the whole package.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro.parallel
from repro._lazy import lazy_exports
from repro.parallel import sweep
from repro.serve import api

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Every package whose init exports its names lazily.
LAZY_PACKAGES = ("repro", "repro.core", "repro.engine", "repro.farm",
                 "repro.obs", "repro.parallel", "repro.serve",
                 "repro.workloads")


def run_fresh(code: str):
    """Run ``code`` in a new interpreter; returns the JSON value of the
    last line it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                 if p])
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         env=env, check=True, capture_output=True,
                         text=True, timeout=120).stdout
    return json.loads(out.strip().splitlines()[-1])


def loaded_by(statement: str, forbidden) -> list:
    """The modules in or under ``forbidden`` that ``statement`` loads."""
    return run_fresh(f"""
        import json, sys
        {statement}
        forbidden = {tuple(forbidden)!r}
        print(json.dumps(sorted(
            name for name in sys.modules
            if any(name == f or name.startswith(f + ".")
                   for f in forbidden))))
        """)


@pytest.mark.parametrize("statement", [
    "import repro.serve.client",
    "from repro.serve import ServeClient, PointQuery",
], ids=["client-module", "package-names"])
def test_serve_client_loads_no_simulator_farm_or_event_loop(statement):
    assert loaded_by(statement, ("repro.core.prototype", "repro.farm",
                                 "repro.partition", "asyncio",
                                 "multiprocessing")) == []


def test_cli_loads_no_simulator():
    assert loaded_by("import repro.cli", (
        "repro.core.prototype", "repro.cost", "repro.fpga",
        "repro.workloads", "repro.cpu", "repro.farm")) == []


def test_server_loads_only_the_kernel_stats():
    """The server's registry and archive reader need ``engine.stats``
    alone, so serving warm answers loads no simulation kernel."""
    assert loaded_by("import repro.serve.service", ("repro.engine",)) \
        == ["repro.engine", "repro.engine.stats"]


def test_parallel_loads_neither_farm_nor_prototype():
    assert loaded_by("import repro.parallel",
                     ("repro.farm", "repro.core.prototype")) == []


@pytest.mark.parametrize("obs", [{}, None], ids=["obs", "no-obs"])
def test_farm_jobs_import_nothing_after_planning(obs):
    """The fork rule: a farm worker forked after planning compiles
    nothing the job runs, since the point functions' modules import
    every dependency at module level."""
    added = run_fresh(f"""
        import json, sys
        from repro.farm import build_suite_plan

        entries = [{{"suite": "fig7"}},
                   {{"suite": "fig8", "thread_counts": [2, 4]}},
                   {{"suite": "fig9", "threads": 2}}]
        plans = [build_suite_plan(dict(entry, config="2x1x2", obs={obs!r}))
                 for entry in entries]
        before = set(sys.modules)
        for plan in plans:
            for job in plan.jobs:
                job.fn(job.payload)
        print(json.dumps(sorted(name for name in set(sys.modules) - before
                                if name.startswith("repro"))))
        """)
    assert added == []


def test_every_exported_name_resolves_and_is_listed():
    missing = run_fresh(f"""
        import importlib, json
        missing = []
        for name in {LAZY_PACKAGES!r}:
            package = importlib.import_module(name)
            listed = dir(package)
            for export in package.__all__:
                if export not in listed:
                    missing.append(f"{{name}}.{{export}} not in dir()")
                getattr(package, export)
        print(json.dumps(missing))
        """)
    assert missing == []


class TestLazyExports:
    def test_a_name_resolves_once_and_is_cached(self):
        namespace = {"__name__": "repro.serve"}
        getattr_, dir_ = lazy_exports(namespace, {".api": ("PointQuery",)})
        assert "PointQuery" in dir_()
        assert getattr_("PointQuery") is api.PointQuery
        assert namespace["PointQuery"] is api.PointQuery

    def test_an_unknown_name_is_an_attribute_error(self):
        _getattr, _dir = lazy_exports({"__name__": "repro.serve"}, {})
        with pytest.raises(AttributeError, match="no attribute 'nothing'"):
            _getattr("nothing")

    def test_a_submodule_still_imports_by_name(self):
        from repro.obs import diff
        assert diff.__name__ == "repro.obs.diff"

    def test_a_patched_name_wins_until_removed(self, monkeypatch):
        """The end-to-end tracer's pattern: patch the package attribute,
        then delete it; the next lookup resolves the module's value."""
        monkeypatch.delitem(vars(repro.parallel), "run_sweep",
                            raising=False)

        def patched():
            pass

        repro.parallel.run_sweep = patched
        assert repro.parallel.run_sweep is patched
        del repro.parallel.run_sweep
        assert repro.parallel.run_sweep is sweep.run_sweep
