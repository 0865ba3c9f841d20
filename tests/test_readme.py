"""README's library tour runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    tour = README.read_text().split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
