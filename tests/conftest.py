import pytest

from corpus import complexes_upto_5, random_complexes_67

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def corpus5():
    return complexes_upto_5()


@pytest.fixture(scope="session")
def corpus67():
    return random_complexes_67()


@pytest.fixture(scope="session")
def corpus_all(corpus5, corpus67):
    return corpus5 + corpus67


@pytest.fixture(scope="session")
def scm_flags5(corpus5):
    """Oracle sequential-CM verdict for each corpus complex, computed once."""
    from bwkit import scm_oracle

    return [scm_oracle(c) for c in corpus5]


@pytest.fixture(scope="session")
def scm_flags_all(corpus_all):
    from bwkit import scm_oracle

    return [scm_oracle(c) for c in corpus_all]


@pytest.fixture
def stability_decisions(monkeypatch):
    """The ideals whose strong stability is decided while the test runs, in
    order: calls of is_strongly_stable, through any module that imports it,
    on an ideal that holds no verdict yet."""
    from bwkit import cli, groebner, monomial

    decided = []
    real = monomial.is_strongly_stable

    def counted(q):
        if getattr(q, "_stable", None) is None:
            decided.append(q)
        return real(q)

    for module in (monomial, groebner, cli):
        monkeypatch.setattr(module, "is_strongly_stable", counted)
    return decided


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
