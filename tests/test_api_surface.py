"""Guard against test-only API: every public function and method of
src/sprayflow has a reader in the package, or an entry below."""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "sprayflow").glob("*.py"))

# public API that only the tests read, each with the reason it stays
TEST_ONLY = {
    "exponent.Covering.big_r": "R_i of the paper's covering; acceptance criterion 8 gates R_i - r_i",
    "exponent.Covering.partition_of_unity": "the log-Hoelder localisation; criterion 8 reads it",
    "grid.Grid.contains": "verification helper the tests share",
    "kinetic.sample_initial": "a preset's sample from a seed; the run builds through config.build_preset",
    "orlicz.modular_distance": "modular convergence; ROADMAP item 8 gives it a program reader",
    "pressure.residual": "verification helper the tests share",
    "pressure.LocalityReport.monotone": "verification helper the tests share",
    "snapshots.table_to_particles": "the inverse of the snapshot particle table",
}


def _name_tokens():
    """(file name, line) of every NAME token in the package, by name."""
    where = {}
    for path in PACKAGE:
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME:
                where.setdefault(tok.string, set()).add((path.name, tok.start[0]))
    return where


def _public_defs(path):
    """(qualified name, def line) of the public module functions and methods."""
    tree = ast.parse(path.read_text())
    defs = [("", node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            defs += [(cls.name + ".", node) for node in cls.body
                     if isinstance(node, ast.FunctionDef)]
    return [(f"{path.stem}.{owner}{node.name}", node.name, node.lineno)
            for owner, node in defs if not node.name.startswith("_")]


def test_public_api_has_a_program_reader():
    where = _name_tokens()
    unread = {
        qualname
        for path in PACKAGE
        for qualname, name, line in _public_defs(path)
        if not where.get(name, set()) - {(path.name, line)}
    }
    assert unread == set(TEST_ONLY)
