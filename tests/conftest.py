"""Shared fixtures: the bundled bet contract and a small three-party tree."""

import sys
import warnings
from fractions import Fraction

import pytest

from graftsim.contract import (
    ContractTree,
    Edge,
    NodeTemplate,
    PayoutShare,
    SecretDecl,
    validate_tree,
)
from graftsim.harness import bundled_data_dir, load_scenario

# When a ``@given`` test fails, the hypothesis pytest plugin's report hook
# imports ``hypothesis.extra._patching`` to suggest a patch, and that module
# imports ``libcst``, whose import raises a ``DeprecationWarning``.  Under
# ``-W error`` the warning escapes the hook as an INTERNALERROR that ends the
# session, hiding every later result.  Importing the module here once, with
# only that import's deprecation warnings ignored, leaves the report hook
# nothing to warn about; every warning raised by a test is still an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: the hook returns quietly
        pass


def build_three_party() -> ContractTree:
    """Three participants, six nodes, one of every edge requirement.

        T0 ── T1   (after 5)
           ── T2   (auth B, reveal SA)  ── T4  (auth A, B)
           │                            ── T5  (after 10)
           ── T3   (auth C)
    """
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    nodes = {
        0: NodeTemplate(0, "T0", children=(1, 2, 3)),
        1: NodeTemplate(1, "T1", edge=Edge(wait=5),
                        outputs=(PayoutShare("A", third), PayoutShare("B", third),
                                 PayoutShare("C", third))),
        2: NodeTemplate(2, "T2", edge=Edge(auth=frozenset({"B"}), reveals=("SA",)),
                        children=(4, 5)),
        3: NodeTemplate(3, "T3", edge=Edge(auth=frozenset({"C"})),
                        outputs=(PayoutShare("C", Fraction(1)),)),
        4: NodeTemplate(4, "T4", edge=Edge(auth=frozenset({"A", "B"})),
                        outputs=(PayoutShare("A", half), PayoutShare("B", half))),
        5: NodeTemplate(5, "T5", edge=Edge(wait=10),
                        outputs=(PayoutShare("A", Fraction(1)),)),
    }
    tree = ContractTree(
        participants=("A", "B", "C"),
        deposits={"A": 10, "B": 10, "C": 10},
        fee=1, root=0, nodes=nodes,
        secrets=(SecretDecl("SA", "A"),))
    assert validate_tree(tree) == []
    return tree


@pytest.fixture
def three_party() -> ContractTree:
    return build_three_party()


@pytest.fixture(scope="session")
def bo3_tree() -> ContractTree:
    return load_scenario(bundled_data_dir() / "bo3_happy.scn").tree


def scenario(name):
    return load_scenario(bundled_data_dir() / f"{name}.scn")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance checklist after the test summary of every run."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
