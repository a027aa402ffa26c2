"""qproduct: self-orthogonal product codes over small finite fields and the
quantum block / tail-biting convolutional codes derived from them, with
independent minimum-distance certification."""

from .galois import GF, FieldSpec
from .matrix import InnerProductKind, Matrix

__version__ = "0.1.0"

__all__ = [
    "GF",
    "FieldSpec",
    "InnerProductKind",
    "Matrix",
    "__version__",
]
