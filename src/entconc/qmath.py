"""Dense complex linear-algebra kernel for few-qubit density matrices.

Everything here works on plain ``numpy`` arrays; :class:`DensityMatrix` is a
validated carrier that remembers the subsystem split.  All matrices in this
package are 2x2 up to 8x8, so the cost of a state is numpy call overhead,
not arithmetic, and each state does its work once:

- validate on construction: every :class:`DensityMatrix` checks dimension,
  trace, Hermiticity and positivity when it is built, and never again;
- decompose once: the positivity check runs one ``eigh`` and the state keeps
  its descending ``(w, V)`` as ``eig``.  :func:`herm_eigen` and
  :func:`psd_sqrt` given a :class:`DensityMatrix` reuse it, so a state is
  never diagonalized twice;
- ``mat`` is an owned, read-only copy of the input, so the kept
  decomposition cannot go stale.  Derive a new matrix and construct a new
  :class:`DensityMatrix` instead of writing into ``mat``.

Stack contract: the checks exist once, in :func:`_validate`, which takes a
``(k, d, d)`` stack and runs each check once over the whole stack.
A single state is its k = 1 case (``DensityMatrix.__post_init__``).  A stack
that fails is checked again one state at a time, so it raises exactly the
error, type and message, that its first bad state raises on its own.
:func:`psd_sqrt` takes such a stack's ``(w, V)`` as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    InvariantViolation,
    NotHermitianError,
    NotPSDError,
    ZeroProbabilityError,
)

# Invariant checks use ATOL, reconstruction checks use RTOL (both absolute).
ATOL = 1e-10
RTOL = 1e-9


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two square matrices."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"kron: first factor not square, shape {a.shape}")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionError(f"kron: second factor not square, shape {b.shape}")
    # The broadcast product np.kron builds, without its generic axis handling.
    d = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(d, d)


def partial_trace(rho: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``dims`` gives the local dimension of each subsystem in tensor order;
    ``keep`` is a set of subsystem indices to retain (order preserved as in
    ``dims``).  Satisfies Tr[(X_keep x I) rho] = Tr[X_keep ptrace(rho)].
    """
    rho = np.asarray(rho, dtype=complex)
    n = len(dims)
    d = math.prod(dims)
    if rho.shape != (d, d):
        raise DimensionError(f"partial_trace: shape {rho.shape} vs dims {dims}")
    keep = tuple(sorted(set(keep)))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise DimensionError(f"partial_trace: invalid keep set {keep} for {n} subsystems")
    tensor = rho.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    # Trace the dropped subsystems one at a time, highest axis first.
    for i in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=i, axis2=i + tensor.ndim // 2)
    dk = math.prod(dims[i] for i in keep)
    return tensor.reshape(dk, dk)


def _is_hermitian(m: np.ndarray) -> bool:
    """Hermiticity of a matrix or of every matrix in a stack: all entries
    finite, and |m - m^H| <= ATOL + 1e-5 |m^H| entrywise.  On finite input
    this is exactly ``np.allclose(m, m^H, atol=ATOL)``'s accept set."""
    if not np.isfinite(m).all():
        return False
    mh = m.conj().swapaxes(-1, -2)
    return bool((np.abs(m - mh) <= ATOL + 1e-5 * np.abs(mh)).all())


def herm_eigen(m: np.ndarray | DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, V)`` with columns of ``V`` the eigenvectors, so that
    ``V @ diag(w) @ V.conj().T`` reconstructs ``m``.  A
    :class:`DensityMatrix` returns the decomposition it was validated with.
    """
    if isinstance(m, DensityMatrix):
        return m.eig
    m = np.asarray(m, dtype=complex)
    if not _is_hermitian(m):
        with np.errstate(invalid="ignore"):
            dev = np.abs(m - m.conj().T).max()
        raise NotHermitianError(f"herm_eigen: deviation {dev:.3e}")
    # eigh sorts ascending, so descending order is its reversal.
    w, v = np.linalg.eigh(m)
    return w[::-1], v[:, ::-1]


def psd_sqrt(m: np.ndarray | DensityMatrix | tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Hermitian square root of a PSD matrix, of a :class:`DensityMatrix`
    (from its kept decomposition), or of a stack given as the descending
    ``(w, V)`` that :func:`_validate` returns.

    Eigenvalues in [-ATOL, 0) are clamped to zero; anything more negative is
    rejected.
    """
    w, v = m if isinstance(m, tuple) else herm_eigen(m)
    if w.min() < -ATOL:
        raise NotPSDError(f"psd_sqrt: eigenvalue {w.min():.3e}")
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _validate(mats: np.ndarray, dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Check a ``(k, d, d)`` stack of density matrices over subsystems
    ``dims`` and return its descending eigendecomposition ``(w, V)``, of
    shapes ``(k, d)`` and ``(k, d, d)``.

    Each check (dimension, trace, Hermiticity, positivity) runs once over the
    whole stack, not once per state.  If the stack fails, its states are
    checked one at a time, so the first bad state raises what its own
    constructor raises.
    """
    d = math.prod(dims)
    if mats.shape[1:] != (d, d):
        # Every state in the stack has this shape.
        raise DimensionError(f"DensityMatrix: shape {mats.shape[1:]} vs dims {dims}")
    tr = mats.trace(axis1=1, axis2=2)
    # A NaN trace passes here, as in a scalar compare; the Hermiticity
    # test rejects it.
    trace_ok = not abs(tr - 1.0).max() > ATOL
    hermitian = trace_ok and _is_hermitian(mats)
    if hermitian:
        # eigh sorts ascending, so descending order is its reversal.
        w, v = np.linalg.eigh(mats)
        w, v = w[:, ::-1], v[:, :, ::-1]
        if not w[:, -1].min() < -ATOL:
            return w, v
    if len(mats) > 1:
        for m in mats:
            _validate(m[None], dims)
    if not trace_ok:
        raise InvariantViolation(f"DensityMatrix: trace {tr[0]:.12f} != 1")
    if not hermitian:
        raise NotHermitianError("DensityMatrix: not Hermitian")
    raise NotPSDError(f"DensityMatrix: eigenvalue {w[0, -1]:.3e}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix over a list of qubit/qudit subsystems.

    ``mat`` is a read-only copy of the input; ``eig`` is its descending
    eigendecomposition ``(w, V)``, computed once by validation.  Equality
    and hashing are by identity: two states compare equal only if they are
    the same object, so states can be used in sets and as dict keys.
    """

    mat: np.ndarray
    dims: tuple[int, ...] = field(default=(2, 2))
    eig: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        w, v = _validate(mat[None], self.dims)
        w, v = w[0], v[0]
        w.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "eig", (w, v))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def ptrace(self, keep: tuple[int, ...]) -> "DensityMatrix":
        keep = tuple(sorted(set(keep)))
        out = partial_trace(self.mat, self.dims, keep)
        return DensityMatrix(out, tuple(self.dims[i] for i in keep))

    def eigenvalues(self) -> np.ndarray:
        w, _ = herm_eigen(self)
        return w

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        return DensityMatrix(kron(self.mat, other.mat), self.dims + other.dims)


def normalize(unnorm: np.ndarray, dims: tuple[int, ...]) -> tuple[DensityMatrix, float]:
    """Split an unnormalized positive operator into (state, weight)."""
    weight = float(np.trace(unnorm).real)
    # Relative cutoff: a PSD operator with any appreciable entry has a trace
    # of the same order, so only a genuinely vanishing operator is rejected.
    scale = float(np.abs(unnorm).max())
    if scale == 0.0 or weight <= ATOL * scale:
        raise ZeroProbabilityError("normalize: zero-measure operator")
    return DensityMatrix(unnorm / weight, dims), weight


def random_psd(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit-trace PSD matrix built as G†G / tr."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g.conj().T @ g
    return m / np.trace(m).real


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
