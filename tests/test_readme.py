"""The README's Library example prints the values its comments show."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_block_values():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    checked = []
    for line in block.strip().splitlines():
        code, _, comment = line.partition("#")
        shown = re.search(r"(-?\d\.(\d+)e-?\d+)\s*$", comment)
        if shown is None:
            exec(code, namespace)
            continue
        # round the computed value to the significant digits the comment shows
        digits = len(shown.group(2))
        value = eval(code, namespace)
        assert f"{value:.{digits}e}" == f"{float(shown.group(1)):.{digits}e}", line
        checked.append(shown.group(1))
    assert checked == [
        "-4.9255e-5", "2.4750e-5", "-2.4505e-5", "1.8e-22", "-4.925e-5", "5.025e-5", "-4.9257e-5", "9.95e-4",
    ]
