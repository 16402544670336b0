import re

from tests.mutants import MUTANTS, ROOT


def test_each_mutant_snippet_occurs_exactly_once_and_its_tests_exist():
    # the full mutation run is `python tests/mutants.py`; this only keeps its list current
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.path).read_text().count(m.snippet) == 1, m.name
        for node in m.nodes:
            path, test = re.fullmatch(r"(.+)::(\w+)(?:\[.*\])?", node).groups()
            assert f"def {test}(" in (ROOT / path).read_text(), node
