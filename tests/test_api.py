"""Tests for the ``repro.api`` facade and the bare top-level package."""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api as api

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

PACKAGES_WITH_ALL = sorted(
    name
    for name in ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    if hasattr(importlib.import_module(name), "__all__")
)


class TestFacade:
    def test_all_matches_export_table(self):
        assert api.__all__ == sorted(api._EXPORTS)

    def test_every_export_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            api.nope

    def test_dir_lists_exports(self):
        listed = dir(api)
        for name in api.__all__:
            assert name in listed

    def test_observe_export_is_the_module(self):
        from repro import observe

        assert api.observe is observe

    def test_resolves_to_the_owning_modules(self):
        from repro.core.guardband import thermal_aware_guardband
        from repro.runner import run_sweep
        from repro.store import open_store

        assert api.thermal_aware_guardband is thermal_aware_guardband
        assert api.run_sweep is run_sweep
        assert api.open_store is open_store

    def test_import_is_lazy(self):
        # A fresh interpreter importing repro.api must not pull in the
        # heavyweight engine/flow modules until an attribute is touched.
        code = (
            "import sys; import repro.api; "
            "assert 'repro.runner' not in sys.modules, 'runner loaded'; "
            "assert 'repro.cad.flow' not in sys.modules, 'flow loaded'; "
            "import repro.api as a; a.run_sweep; "
            "assert 'repro.runner' in sys.modules"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True, env={"PYTHONPATH": SRC_DIR, "PATH": ""},
        )

    def test_api_surface_rule_is_clean(self):
        # Every facade export must also appear in the TYPE_CHECKING block.
        from repro.analysis import run_analysis
        from repro.analysis.rules.api_surface import ApiSurfaceRule

        report = run_analysis(
            root=Path(SRC_DIR) / "repro", rules=[ApiSurfaceRule()]
        )
        findings = [f.format() for f in report.findings
                    if f.rule_id == ApiSurfaceRule.rule_id]
        assert findings == []


@pytest.mark.parametrize("package", PACKAGES_WITH_ALL)
def test_package_all_resolves(package):
    # The api-surface lint checks only repro.api; a stale name left in a
    # subpackage's __all__ breaks ``from <package> import *`` instead.
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


class TestTopLevelDeprecation:
    def test_legacy_reexports_removed(self):
        with pytest.raises(AttributeError, match="no attribute 'run_flow'"):
            repro.run_flow

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.not_a_thing

    def test_version_bumped(self):
        assert repro.__version__ >= "1.3.0"
