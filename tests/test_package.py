import contextlib
import inspect
import io
import os
import subprocess
import sys
from pathlib import Path

import hyperconv


def test_every_exported_name_resolves():
    missing = [name for name in hyperconv.__all__ if not hasattr(hyperconv, name)]
    assert missing == []
    assert len(set(hyperconv.__all__)) == len(hyperconv.__all__)


def test_every_exported_function_and_class_has_a_docstring():
    # the names themselves, not their members
    exported = [getattr(hyperconv, name) for name in hyperconv.__all__]
    undocumented = [obj.__name__ for obj in exported
                    if (inspect.isfunction(obj) or inspect.isclass(obj))
                    and not (obj.__doc__ or "").strip()]
    assert undocumented == []


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    section = readme.split("## Library", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert 0.0 <= float(out.getvalue()) <= 1.0


def test_import_loads_no_scipy_subpackage_but_sparse():
    # a fresh interpreter, since this one may have imported more for other
    # tests; packages only, as `import scipy` itself loads the module scipy.version
    probe = (
        "import sys, hyperconv, hyperconv.cli\n"
        "print(sorted(name for name, module in sys.modules.items()\n"
        "    if name.count('.') == 1 and name.startswith('scipy.')\n"
        "    and not name.startswith('scipy._') and hasattr(module, '__path__')))"
    )
    src = str(Path(hyperconv.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    assert out.strip() == "['scipy.sparse']"
