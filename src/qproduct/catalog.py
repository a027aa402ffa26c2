"""Named code catalog and the descriptor expression language used by the
command line: catalog constructors plus the combinators product(...),
product_additive(...), additive(...), and dual(..., kind).
"""
from __future__ import annotations

import json
import re
from pathlib import Path

from .code import AdditiveCode, Code, LinearCode
from .cyclic import CyclicCode, cyclic_from_roots, rs_code
from .galois import GF, FieldSpec
from .matrix import InnerProductKind, Matrix, from_text
from .product import product, product_additive


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
    return LinearCode(projective_point_matrix(spec, r), claimed_distance=q ** (r - 1))


def hamming(r: int, q: int) -> LinearCode:
    """Hamming code: kernel of the projective point matrix, distance 3."""
    if r < 2:
        raise ValueError("Hamming codes need redundancy >= 2")
    spec = GF(q)
    return LinearCode(projective_point_matrix(spec, r).kernel(), claimed_distance=3)


def hamming_dual(r: int, q: int) -> LinearCode:
    """Euclidean dual of the Hamming code, which is the simplex code."""
    return simplex(r, q)


def quaternary_hamming_dual_5() -> LinearCode:
    """The [5, 2, 4] code over GF(4): Hermitian dual of the length-5
    quaternary Hamming code; Hermitian self-orthogonal."""
    code = hamming(2, 4).dual(InnerProductKind.HERMITIAN)
    code.claimed_distance = 4
    return code


_CATALOG_HELP = (
    "simplex(r, q), hamming(r, q), hamming_dual(r, q), quaternary_hamming_dual_5, "
    "rs(q, delta), cyclic(q, n, root_exponents...), and the combinators "
    "product(a, b), product_additive(a, b), additive(a), dual(a, kind)"
)


class DescriptorError(ValueError):
    pass


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9-]*|\d+|[(),])")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise DescriptorError(f"bad descriptor near {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def _parse(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise DescriptorError("unexpected end of descriptor")
    tok = tokens[pos]
    if tok.isdigit():
        return int(tok), pos + 1
    if not re.match(r"[A-Za-z_]", tok):
        raise DescriptorError(f"unexpected token {tok!r}")
    name = tok
    pos += 1
    if pos < len(tokens) and tokens[pos] == "(":
        args = []
        pos += 1
        if tokens[pos] != ")":
            while True:
                arg, pos = _parse(tokens, pos)
                args.append(arg)
                if tokens[pos] == ",":
                    pos += 1
                    continue
                break
        if tokens[pos] != ")":
            raise DescriptorError(f"expected ')' at {tokens[pos]!r}")
        return (name, args), pos + 1
    return (name, None), pos


def _resolve(node):
    if isinstance(node, int):
        return node
    name, args = node
    name = name.replace("-", "_").lower()
    if args is None:
        if name == "quaternary_hamming_dual_5":
            return quaternary_hamming_dual_5()
        try:
            return InnerProductKind(name)
        except ValueError:
            raise DescriptorError(f"unknown name {name!r}; catalog: {_CATALOG_HELP}") from None
    vals = [_code_of(_resolve(a)) for a in args]
    try:
        if name == "simplex":
            return simplex(*vals)
        if name == "hamming":
            return hamming(*vals)
        if name == "hamming_dual":
            return hamming_dual(*vals)
        if name == "rs":
            return rs_code(*vals)
        if name == "cyclic":
            q, n, *roots = vals
            return cyclic_from_roots(q, n, roots)
        if name == "product":
            return product(*vals)
        if name == "product_additive":
            return product_additive(*vals)
        if name == "additive":
            (code,) = vals
            return AdditiveCode.from_linear(code)
        if name == "dual":
            code, *kind = vals
            return code.dual(*kind)
    except DescriptorError:
        raise
    except (TypeError, ValueError) as exc:
        raise DescriptorError(f"bad arguments for {name}: {exc}") from exc
    raise DescriptorError(f"unknown constructor {name!r}; catalog: {_CATALOG_HELP}")


def _code_of(value):
    """The code of an rs(...) or cyclic(...) descriptor; anything else as is."""
    return value.code if isinstance(value, CyclicCode) else value


def _parse_text(text: str):
    tokens = _tokenize(text)
    if not tokens:
        raise DescriptorError("empty descriptor")
    try:
        node, pos = _parse(tokens, 0)
    except IndexError:
        raise DescriptorError(f"unbalanced parentheses in {text!r}") from None
    if pos != len(tokens):
        raise DescriptorError(f"trailing input after descriptor: {tokens[pos:]}")
    return node


def _resolve_text(text: str):
    try:
        return _resolve(_parse_text(text))
    except RecursionError:  # _parse and _resolve recurse once per level
        raise DescriptorError("descriptor nested too deeply") from None


def parse_descriptor(text: str):
    """Resolve a descriptor expression to a code object."""
    result = _code_of(_resolve_text(text))
    if not isinstance(result, Code):
        raise DescriptorError(f"descriptor {text!r} does not resolve to a code")
    return result


def parse_cyclic(text: str) -> CyclicCode:
    """Resolve an rs(q, delta) or cyclic(q, n, roots...) descriptor to its
    cyclic code, zeros included."""
    result = _resolve_text(text)
    if not isinstance(result, CyclicCode):
        raise DescriptorError("spectrum needs rs(q, delta) or cyclic(q, n, roots...) factors")
    return result


def code_from_json(payload: dict, base_dir: Path | None = None):
    """Code descriptor JSON: field, kind (linear | additive), and a
    generator given inline or as a matrix-file reference."""
    try:
        q = int(payload["field"])
        kind = payload.get("kind", "linear")
        gen = payload["generator"]
    except KeyError as exc:
        raise DescriptorError(f"descriptor JSON missing key: {exc}") from exc
    spec = GF(q)
    if isinstance(gen, str):
        path = Path(gen)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        matrix = from_text(path.read_text())
        if matrix.spec != spec:
            raise DescriptorError(f"matrix file field GF({matrix.spec.q}) != descriptor field GF({q})")
    else:
        n = payload.get("length")
        matrix = Matrix(spec, gen, ncols=n)
    if kind == "linear":
        return LinearCode(matrix)
    if kind == "additive":
        return AdditiveCode(spec, matrix.array, n=matrix.ncols)
    raise DescriptorError(f"unknown code kind {kind!r}")


def load_code_json(path: str | Path):
    path = Path(path)
    return code_from_json(json.loads(path.read_text()), base_dir=path.parent)
