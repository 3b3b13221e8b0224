"""The package's public names.

Tools that instrument the package look up every name in `phasewave.__all__`,
so a name left there after its object is gone breaks them at import time.
"""

from pathlib import Path

import phasewave

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in phasewave.__all__ if not hasattr(phasewave, name)]
    assert missing == []
    assert len(set(phasewave.__all__)) == len(phasewave.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from phasewave import *", namespace)
    assert set(phasewave.__all__) <= namespace.keys()


def test_route_functions_are_exported():
    # Each independent route of the determinant and of alpha0 is its own
    # public function; spans recorded around calls are named after them.
    routes = {"det_raw", "det_closed", "alpha0_closed", "alpha0_abstract", "alpha0_fd"}
    assert routes <= set(phasewave.__all__)


def test_readme_library_sketch_runs():
    # The README's Python block is the documented use of the public names;
    # it must run as written, so a removed or renamed name shows here.
    sketch = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    code = sketch.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(code, namespace)
    res = namespace["res"]
    assert res.breaking_tau is None
    assert res.diagnostics[-1].tau == 2.0
