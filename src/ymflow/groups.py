"""Compact matrix Lie groups U(1), SU(N), U(N) and their Lie algebras.

Algebra elements are skew-Hermitian matrices (traceless for SU(N)) carried
as plain complex ndarrays.  The inner product throughout is the real
Frobenius pairing ``<X, Y> = Re Tr(X* Y)``, which is automatically real for
skew-Hermitian pairs.  All functions accept stacked inputs with arbitrary
leading axes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupSpec",
    "U1",
    "SU2",
    "standard_basis",
    "structure_constants",
    "bracket",
    "exp_map",
    "frobenius_inner",
    "unitarize",
    "unitarity_defect",
]

_KINDS = ("u1", "su", "u")


@dataclass(frozen=True)
class GroupSpec:
    """Which compact matrix group a field takes values in.

    kind is one of 'u1', 'su', 'u'; matrix_dim is the size N of the
    defining representation (forced to 1 for 'u1').
    """

    kind: str
    matrix_dim: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == "u1" and self.matrix_dim != 1:
            raise ValueError("u1 has matrix dimension 1")
        if self.matrix_dim < 1:
            raise ValueError("matrix dimension must be positive")
        if self.kind == "su" and self.matrix_dim < 2:
            raise ValueError("su(N) needs N >= 2")

    @property
    def algebra_dim(self) -> int:
        n = self.matrix_dim
        if self.kind == "u1":
            return 1
        if self.kind == "su":
            return n * n - 1
        return n * n

    @property
    def is_abelian(self) -> bool:
        return self.matrix_dim == 1

    def label(self) -> str:
        if self.kind == "u1":
            return "u1"
        return f"{self.kind}{self.matrix_dim}"

    @staticmethod
    def from_label(label: str) -> GroupSpec:
        label = label.strip().lower()
        for kind in ("su", "u"):
            if label.startswith(kind) and label[len(kind):].isdigit():
                n = int(label[len(kind):])
                if kind == "u" and n == 1:
                    return U1
                return GroupSpec(kind, n)
        raise ValueError(f"cannot parse group label {label!r}")


U1 = GroupSpec("u1", 1)
SU2 = GroupSpec("su", 2)


@functools.lru_cache(maxsize=None)
def standard_basis(spec: GroupSpec) -> np.ndarray:
    """Deterministic orthonormal basis of the Lie algebra, shape (d, N, N).

    Ordering: for SU(N)/U(N), off-diagonal pairs (p < q, lexicographic) as
    i(E_pq+E_qp)/sqrt(2) then (E_pq-E_qp)/sqrt(2); next the traceless
    diagonals i*diag(1,..,1,-k,0,..)/sqrt(k(k+1)); finally i*I/sqrt(N) for
    groups containing the central circle.  For U(1) the single element is
    the 1x1 matrix [i].
    """
    n = spec.matrix_dim
    elems = []
    if spec.kind != "u1":
        # Off-diagonal pairs in lexicographic (p, q) order, symmetric-type
        # before antisymmetric-type; then the traceless diagonal family.
        for p in range(n):
            for q in range(p + 1, n):
                e_pq = np.zeros((n, n), dtype=complex)
                e_qp = np.zeros((n, n), dtype=complex)
                e_pq[p, q] = 1.0
                e_qp[q, p] = 1.0
                elems.append(1j * (e_pq + e_qp) / np.sqrt(2.0))
                elems.append((e_pq - e_qp) / np.sqrt(2.0))
        for k in range(1, n):
            d = np.zeros(n, dtype=complex)
            d[:k] = 1.0
            d[k] = -k
            elems.append(1j * np.diag(d) / np.sqrt(k * (k + 1.0)))
    if spec.kind in ("u1", "u"):
        elems.append(1j * np.eye(n, dtype=complex) / np.sqrt(n))
    basis = np.stack(elems)
    if basis.shape[0] != spec.algebra_dim:
        raise AssertionError("basis construction out of sync with algebra_dim")
    basis.setflags(write=False)
    return basis


def structure_constants(spec: GroupSpec) -> np.ndarray:
    """Real tensor f with [X^a, X^b] = sum_c f[a, b, c] X^c."""
    basis = standard_basis(spec)
    d = spec.algebra_dim
    f = np.zeros((d, d, d))
    for a in range(d):
        for b in range(d):
            br = basis[a] @ basis[b] - basis[b] @ basis[a]
            for c in range(d):
                f[a, b, c] = frobenius_inner(basis[c], br)
    return f


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix commutator XY - YX."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape[-2:] != y.shape[-2:]:
        raise ValueError("bracket arguments must share matrix dimension")
    return x @ y - y @ x


def frobenius_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray | float:
    """Re Tr(X* Y); real Frobenius pairing, exact on skew-Hermitian pairs."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape[-2:] != y.shape[-2:]:
        raise ValueError("inner product arguments must share matrix dimension")
    out = np.einsum("...ij,...ij->...", x.conj(), y).real
    return float(out) if out.ndim == 0 else out


# [13/13] Pade numerator coefficients, highest degree last.
_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 4.25


def exp_map(x: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a fixed [13/13]
    Pade approximant; vectorized over leading axes.

    The squaring count is chosen from the largest 1-norm in the batch so
    the whole batch follows one code path (deterministic, branch-free).
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    if x.shape[-2] != n:
        raise ValueError("exp_map needs square matrices")
    # max column-sum (1-norm) over the whole batch
    norm = float(np.max(np.abs(x).sum(axis=-2))) if x.size else 0.0
    squarings = 0
    if norm > _PADE13_THETA:
        squarings = int(np.ceil(np.log2(norm / _PADE13_THETA)))
        x = x / (2.0 ** squarings)
    b = _PADE13_B
    ident = np.broadcast_to(np.eye(n, dtype=complex), x.shape)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x2 @ x4
    u = x @ (
        x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
        + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident
    )
    v = (
        x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
        + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident
    )
    out = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        out = out @ out
    return out


def unitarize(m: np.ndarray, spec: GroupSpec) -> np.ndarray:
    """Nearest unitary via polar decomposition; for SU(N) the determinant
    phase is divided out so the result lands back in the group."""
    m = np.asarray(m, dtype=complex)
    u, _, vh = np.linalg.svd(m)
    out = u @ vh
    if spec.kind == "su":
        n = spec.matrix_dim
        det = np.linalg.det(out)
        out = out * np.exp(-1j * np.angle(det) / n)[..., None, None]
    return out


def unitarity_defect(m: np.ndarray) -> float:
    m = np.asarray(m)
    n = m.shape[-1]
    gram = np.conj(np.swapaxes(m, -1, -2)) @ m
    return float(np.max(np.abs(gram - np.eye(n))))
