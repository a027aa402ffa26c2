"""Named code catalog and the descriptor expression language used by the
command line: catalog constructors plus the combinators product(...),
product_additive(...), additive(...), and dual(..., kind).
"""
from __future__ import annotations

import ast
import json
import re
from pathlib import Path

from .code import AdditiveCode, Code, LinearCode
from .cyclic import cyclic_from_roots, rs_code
from .galois import GF, FieldSpec
from .matrix import InnerProductKind, Matrix, from_text
from .product import product


def projective_point_matrix(spec: FieldSpec, r: int) -> Matrix:
    """r x n matrix whose columns run over the projective points of
    GF(q)^r: all nonzero vectors with leading coordinate 1, in
    lexicographic order.  n = (q^r - 1) / (q - 1)."""
    q = spec.q
    cols = []
    for idx in range(q**r):
        vec = []
        v = idx
        for _ in range(r):
            vec.append(v % q)
            v //= q
        vec.reverse()
        first = next((x for x in vec if x), None)
        if first == 1:
            cols.append(vec)
    rows = [[col[i] for col in cols] for i in range(r)]
    return Matrix(spec, rows, ncols=len(cols))


def simplex(r: int, q: int) -> LinearCode:
    """Simplex code [ (q^r-1)/(q-1), r, q^(r-1) ]: every nonzero word has
    the same weight."""
    if r < 1:
        raise ValueError("redundancy must be >= 1")
    spec = GF(q)
    return LinearCode(projective_point_matrix(spec, r))


def hamming(r: int, q: int) -> LinearCode:
    """Hamming code: kernel of the projective point matrix, distance 3."""
    if r < 2:
        raise ValueError("Hamming codes need redundancy >= 2")
    spec = GF(q)
    return LinearCode(projective_point_matrix(spec, r).kernel())


def hamming_dual(r: int, q: int) -> LinearCode:
    """Euclidean dual of the Hamming code, which is the simplex code."""
    return simplex(r, q)


def quaternary_hamming_dual_5() -> LinearCode:
    """The [5, 2, 4] code over GF(4): Hermitian dual of the length-5
    quaternary Hamming code; Hermitian self-orthogonal."""
    return hamming(2, 4).dual(InnerProductKind.HERMITIAN)


_CATALOG_HELP = (
    "simplex(r, q), hamming(r, q), hamming_dual(r, q), quaternary_hamming_dual_5, "
    "rs(q, delta), cyclic(q, n, root_exponents...), and the combinators "
    "product(a, b), product_additive(a, b), additive(a), dual(a, kind); the euclidean "
    "dual(a) of an rs or cyclic code is cyclic too"
)


class DescriptorError(ValueError):
    pass


# name -> (constructor, how many leading arguments must be codes)
_CONSTRUCTORS = {
    "simplex": (simplex, 0),
    "hamming": (hamming, 0),
    "hamming_dual": (hamming_dual, 0),
    "rs": (rs_code, 0),
    "cyclic": (lambda q, n, *roots: cyclic_from_roots(q, n, roots), 0),
    "product": (product, 2),
    "product_additive": (product, 2),  # the same product, kept as a descriptor name
    "additive": (AdditiveCode.from_linear, 1),
    "dual": (Code.dual, 1),
}
_NAMES = {"quaternary_hamming_dual_5": quaternary_hamming_dual_5,
          **{str(kind): (lambda kind=kind: kind) for kind in InnerProductKind}}


def _resolve(node: ast.expr, source: str):
    """The value of one node of a parsed descriptor: a decimal integer, a
    catalog name, or a catalog constructor called with positional
    arguments, each resolved in turn."""
    if isinstance(node, ast.Constant) and type(node.value) is int \
            and ast.get_source_segment(source, node).isdigit():
        return node.value
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]()
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _CONSTRUCTORS and not node.keywords):
        raise DescriptorError(f"{ast.get_source_segment(source, node)!r} is not a catalog name, "
                              f"call or decimal integer; catalog: {_CATALOG_HELP}")
    name = node.func.id
    build, ncodes = _CONSTRUCTORS[name]
    args = [_resolve(arg, source) for arg in node.args]
    for arg in args[:ncodes]:
        if not isinstance(arg, Code):
            raise DescriptorError(f"bad arguments for {name}: {arg} is not a code")
    try:
        return build(*args)
    except (TypeError, ValueError) as exc:
        raise DescriptorError(f"bad arguments for {name}: {exc}") from exc


def parse_descriptor(text: str):
    """Resolve a descriptor, one Python call expression over the catalog
    names, to a code object.  Names are case-insensitive and a ``-`` inside
    a name reads as ``_``; integers are decimal.  The text is parsed by
    ``ast`` and walked, never evaluated."""
    # the language's alphabet: comments, strings, other operators and
    # non-ASCII names never reach the parser
    bad = re.search(r"[^A-Za-z0-9_,()\s-]", text)
    if bad:
        raise DescriptorError(f"bad descriptor near {text[bad.start():]!r}")
    source = re.sub(r"[A-Za-z_][A-Za-z0-9_-]*", lambda m: m[0].replace("-", "_"),
                    " ".join(text.split())).lower()
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        if exc.msg == "too many nested parentheses":
            raise DescriptorError("descriptor nested too deeply") from None
        raise DescriptorError(f"bad descriptor {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):  # the parser's own stack on long chains
        raise DescriptorError("descriptor nested too deeply") from None
    result = _resolve(tree.body, source)
    if not isinstance(result, Code):
        raise DescriptorError(f"descriptor {text!r} does not resolve to a code")
    return result


def parse_cyclic(text: str) -> LinearCode:
    """Resolve a descriptor to a code that keeps its zeros: rs(q, delta),
    cyclic(q, n, roots...) or the Euclidean dual(...) of either."""
    result = parse_descriptor(text)
    if result.zeros is None:
        raise DescriptorError("spectrum needs rs, cyclic or the euclidean dual of one as factors")
    return result


def code_from_json(payload: dict, base_dir: Path | None = None):
    """Code descriptor JSON: field, kind (linear | additive), and a
    generator given inline or as a matrix-file reference."""
    if not isinstance(payload, dict) or not {"field", "generator"} <= payload.keys():
        raise DescriptorError("descriptor JSON must be an object with field and generator keys")
    q, gen, n, kind = (payload["field"], payload["generator"], payload.get("length"),
                       payload.get("kind", "linear"))
    if type(q) is not int or type(n) not in (int, type(None)):
        raise DescriptorError(f"descriptor JSON field and length must be integers: {q!r}, {n!r}")
    spec = GF(q)
    if isinstance(gen, str):
        path = Path(gen)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        matrix = from_text(path.read_text())
        if matrix.spec != spec:
            raise DescriptorError(f"matrix file field GF({matrix.spec.q}) != descriptor field GF({q})")
    elif isinstance(gen, list) and all(isinstance(row, list) for row in gen):
        width = len(gen[0]) if n is None and gen else n
        for i, row in enumerate(gen):
            if len(row) != width:
                raise DescriptorError(f"descriptor JSON generator row {i} has {len(row)} "
                                      f"entries, expected {width}")
        matrix = Matrix(spec, gen, ncols=n)
    else:
        raise DescriptorError("descriptor JSON generator must be a matrix file path or a list of rows")
    if kind == "linear":
        return LinearCode(matrix)
    if kind == "additive":
        return AdditiveCode(spec, matrix.array, n=matrix.ncols)
    raise DescriptorError(f"unknown code kind {kind!r}")


def load_code_json(path: str | Path):
    path = Path(path)
    return code_from_json(json.loads(path.read_text()), base_dir=path.parent)
