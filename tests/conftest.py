import pytest

from kheights.graphs import Graph

#: one-line verdicts collected by the acceptance tests and echoed after
#: the run (never captured, so they always appear in the log)
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def path3() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def cycle4() -> Graph:
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def small_graphs(max_n: int = 5):
    """Fixed generator set of small connected graphs for oracles."""
    specs = [
        (1, []),
        (2, [(0, 1)]),
        (3, [(0, 1), (1, 2)]),
        (3, [(0, 1), (1, 2), (0, 2)]),
        (4, [(0, 1), (1, 2), (2, 3)]),
        (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        (4, [(0, 1), (0, 2), (0, 3)]),
        (4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]),
    ]
    return [Graph.from_edges(n, e) for n, e in specs if n <= max_n]


def rng_fields(rng) -> tuple:
    """Every field of a Philox generator's state, for equality checks."""
    s = rng.bit_generator.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(),
            s["buffer"].tolist(), s["buffer_pos"], s["has_uint32"],
            s["uinteger"])
