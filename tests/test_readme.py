"""The README's library tour runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    start = tour.index("```python\n") + len("```python\n")
    code = tour[start:tour.index("```", start)]
    namespace: dict = {}
    exec(compile(code, "README.md (Library tour)", "exec"), namespace)
    assert namespace["lde"].values.shape == (2, 2, 4)  # times, partitions of {1, 2}, types
