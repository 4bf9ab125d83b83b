import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    # The README's "Library sketch" names public API: run it as written, so
    # a renamed or removed name fails here rather than in a reader's hands.
    text = README.read_text()
    sketch = re.search(r"## Library sketch\s+```python\n(.*?)```", text, re.S)
    assert sketch
    names = {}
    exec(compile(sketch.group(1), f"{README}:Library sketch", "exec"), names)
    assert 0.0 < names["best"].efficiency <= 1.0
    assert names["gauss"].efficiency <= names["best"].efficiency + 1e-9
    assert all(isinstance(names[k], float) for k in ("eta_closed", "eta_numeric"))
