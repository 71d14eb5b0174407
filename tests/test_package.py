import contextlib
import io
from pathlib import Path

import hyperconv


def test_every_exported_name_resolves():
    missing = [name for name in hyperconv.__all__ if not hasattr(hyperconv, name)]
    assert missing == []
    assert len(set(hyperconv.__all__)) == len(hyperconv.__all__)


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    section = readme.split("## Library", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert 0.0 <= float(out.getvalue()) <= 1.0
