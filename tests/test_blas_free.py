"""No BLAS or LAPACK call in src/kvlut beyond a short, commented allow-list.

numpy's BLAS and LAPACK may pick their kernels by CPU at start-up, so a
matrix product, a 1-D norm or a linear solve can give other bits on another
x86 CPU.  Every such call that can reach a reported number is listed below;
the list is meant only to shrink.  An axis-wise np.linalg.norm is a numpy
reduction, not BLAS, and is not counted.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import kvlut
import kvlut.read_path as read_path

# (module, innermost function, call) -> how many such calls it makes today.
ALLOWED = Counter({
    # The Newton step's tridiagonal Jacobian, solved by LAPACK gesv.
    ("codebook", "_newton_refine", "np.linalg.solve"): 1,
    # The oracle's stacked (1, d) @ (d, 1) dot products, one per key.
    ("reference", "score_sequence_reference", "@"): 1,
    # The 1-D norm that normalizes a synthetic layer's direction.
    ("evalkit", "generate_keys", "np.linalg.norm"): 1,
    # queries @ keys.T for the exact scores, and a @ e for a cosine.
    ("evalkit", "evaluate_pipeline", "@"): 2,
    # The 1-D norms of a and e in that cosine.
    ("evalkit", "evaluate_pipeline", "np.linalg.norm"): 2,
})

# numpy functions that call BLAS whatever their arguments' shapes.
BLAS_FUNCTIONS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def _dotted(node):
    # "np.linalg.norm" for the expression np.linalg.norm, else None.
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _kind(node):
    # The BLAS or LAPACK call node makes, or None.
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Call):
        name = _dotted(node.func) or ""
        head, _, tail = name.partition(".")
        if head in ("np", "numpy") and tail.startswith("linalg."):
            axis_norm = tail == "linalg.norm" and any(k.arg == "axis" for k in node.keywords)
            return None if axis_norm else name
        if head in ("np", "numpy") and tail in BLAS_FUNCTIONS:
            return name
        if isinstance(node.func, ast.Attribute) and node.func.attr == "dot":
            return ".dot"
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
        names = {a.name for a in node.names}
        if node.module == "numpy.linalg" or names & (BLAS_FUNCTIONS | {"linalg"}):
            return f"from {node.module} import"
    if isinstance(node, ast.Import) and any(a.name == "numpy.linalg" for a in node.names):
        return "import numpy.linalg"
    return None


def _blas_calls(module, source):
    """(module, innermost function, call) counts for each BLAS or LAPACK use."""
    found = Counter()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        kind = _kind(node)
        if kind is not None:
            found[(module, func, kind)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


def test_src_makes_only_the_allowed_blas_and_lapack_calls():
    found = Counter()
    for path in sorted(Path(kvlut.__file__).parent.glob("*.py")):
        found += _blas_calls(path.stem, path.read_text())
    assert found == ALLOWED


@pytest.mark.parametrize("line", [
    "x = a @ b",
    "a @= b",
    "x = np.dot(a, b)",
    "x = np.matmul(a, b)",
    "x = np.einsum('i,i', a, b)",
    "x = numpy.inner(a, b)",
    "x = np.linalg.norm(v)",
    "x = np.linalg.norm(v, ord=2)",
    "x = np.linalg.qr(a)",
    "x = a.dot(b)",
    "from numpy.linalg import solve",
    "from numpy import einsum",
    "import numpy.linalg",
])
def test_blas_scan_catches_a_call_added_to_the_read_path(line):
    source = Path(read_path.__file__).read_text() + "\n" + line + "\n"
    assert sum(_blas_calls("read_path", source).values()) == 1, line


def test_blas_scan_passes_an_axis_wise_norm():
    source = "def f(v):\n    return np.linalg.norm(v, axis=1)\n"
    assert _blas_calls("read_path", source) == Counter()
