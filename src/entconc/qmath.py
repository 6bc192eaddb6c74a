"""Dense complex linear-algebra kernel for few-qubit density matrices.

Everything here works on plain ``numpy`` arrays; :class:`DensityMatrix` is a
validated carrier that remembers the subsystem split.  All matrices in this
package are 2x2 up to 8x8, so the cost of a state is numpy call overhead,
not arithmetic, and each state does its work once:

- validate on construction: every :class:`DensityMatrix` checks dimension,
  trace, Hermiticity and positivity when it is built, and never again;
- ``mat`` is a read-only copy of the input (a state built in a stack holds
  its own slice of one new array), so a validated state stays valid.  Derive
  a new matrix and construct a new :class:`DensityMatrix` instead of writing
  into ``mat``.  A state keeps no decomposition: the positivity check needs
  eigenvalues only, and the few readers that need eigenvectors
  (:func:`psd_sqrt`) decompose their own input.

Stack contract: the checks exist once, in :func:`_validate`, which takes a
``(k, d, d)`` stack and runs each check once over the whole stack.
A single state is its k = 1 case (``DensityMatrix.__post_init__``).  A stack
that fails is checked again one state at a time, so it raises exactly the
error, type and message, that its first bad state raises on its own.

States are built from stacks too.  :func:`normalize_stack` is two steps:
``_quotients`` tests each of k unnormalized operators for zero measure, and
``_settle`` validates the k quotients with one :func:`_validate` call; each
state keeps its slice of the quotient.  :func:`normalize` is its k = 1 case,
and the constructor sets up its one state the same way (``_settle``), so
every state is validated exactly once.  A failing stack raises what a loop
over its operators raises at the first bad one.
:func:`ptrace_stack` builds k marginals the same way (``ptrace``, k = 1).
The coupling driver settles all its coupled and all its measured quotients
after its last coupling (``_settle_stages``), with the same first-error rule.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
_TINY = float(np.finfo(float).tiny)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two square matrices; a ``(k, d, d)`` first factor
    gives the k products, each bitwise the one its matrix gives alone."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"kron: first factor not square, shape {a.shape}")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionError(f"kron: second factor not square, shape {b.shape}")
    # The broadcast product np.kron builds, without its generic axis handling.
    d = a.shape[-1] * b.shape[0]
    return (a[..., :, None, :, None] * b[None, :, None, :]).reshape(*a.shape[:-2], d, d)


def partial_trace(rho: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``rho`` is one ``(d, d)`` matrix or a ``(k, d, d)`` stack of them.
    ``dims`` gives the local dimension of each subsystem in tensor order;
    ``keep`` is a set of subsystem indices to retain (order preserved as in
    ``dims``).  Satisfies Tr[(X_keep x I) rho] = Tr[X_keep ptrace(rho)].
    """
    rho = np.asarray(rho, dtype=complex)
    n = len(dims)
    d = math.prod(dims)
    lead = rho.shape[:-2]
    if rho.shape[-2:] != (d, d) or len(lead) > 1:
        raise DimensionError(f"partial_trace: shape {rho.shape} vs dims {dims}")
    keep = tuple(sorted(set(keep)))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise DimensionError(f"partial_trace: invalid keep set {keep} for {n} subsystems")
    tensor = rho.reshape(lead + dims + dims)
    traced = [i for i in range(n) if i not in keep]
    # Trace the dropped subsystems one at a time, highest axis first.
    for i in sorted(traced, reverse=True):
        half = (tensor.ndim - len(lead)) // 2
        tensor = np.trace(tensor, axis1=len(lead) + i, axis2=len(lead) + i + half)
    dk = math.prod(dims[i] for i in keep)
    return tensor.reshape(lead + (dk, dk))


# Entries whose real and imaginary parts are at most this large cannot
# overflow m - m^H: each difference has modulus under 2 sqrt(2) 2^1022.
_SAFE = 2.0**1022


def _is_hermitian(m: np.ndarray) -> bool:
    """Hermiticity of a matrix or of every matrix in a stack: all entries
    finite, and |m - m^H| <= ATOL + 1e-5 |m^H| entrywise.  On finite input
    this is exactly ``np.allclose(m, m^H, atol=ATOL)``'s accept set.  No
    input raises a floating-point warning."""
    # The largest real or imaginary part; NaN or inf if an entry is not finite.
    top = float(np.abs(np.ascontiguousarray(m, dtype=complex).view(float)).max(initial=0.0))
    if top <= _SAFE:
        return _is_close_to_adjoint(m)
    if not math.isfinite(top):
        return False
    # m - m^H may overflow to inf here, which the test rejects.
    with np.errstate(over="ignore"):
        return _is_close_to_adjoint(m)


def _is_close_to_adjoint(m: np.ndarray) -> bool:
    """The entrywise test of :func:`_is_hermitian`, for finite ``m``."""
    mh = m.conj().swapaxes(-1, -2)
    return bool((np.abs(m - mh) <= ATOL + 1e-5 * np.abs(mh)).all())


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a ``(d, d)`` matrix or of each matrix in a
    ``(k, d, d)`` stack, from one ``eigh`` with its eigenpairs in descending
    order.

    Eigenvalues in [-ATOL, 0) are clamped to zero; anything more negative is
    rejected.
    """
    # eigh sorts ascending, so descending order is its reversal.
    w, v = np.linalg.eigh(m)
    w, v = w[..., ::-1], v[..., ::-1]
    if w.min() < -ATOL:
        raise NotPSDError(f"psd_sqrt: eigenvalue {w.min():.3e}")
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _validate(mats: np.ndarray, dims: tuple[int, ...]) -> None:
    """Check a ``(k, d, d)`` stack of density matrices over subsystems ``dims``.

    Each check (dimension, trace, Hermiticity, positivity) runs once over the
    whole stack, not once per state.  If the stack fails, its states are
    checked one at a time, so the first bad state raises what its own
    constructor raises.
    """
    d = math.prod(dims)
    if mats.shape[1:] != (d, d):
        # Every state in the stack has this shape.
        raise DimensionError(f"DensityMatrix: shape {mats.shape[1:]} vs dims {dims}")
    # Python sums and math.hypot raise no floating-point warning, so a
    # trace that overflows (inf) or adds +inf and -inf (NaN) is rejected
    # below with no numpy noise and no errstate guard.  Like a numpy
    # reduction, the sum starts from +0j.
    tr = [sum(diag, 0j) for diag in mats.diagonal(0, 1, 2).tolist()]
    # A NaN trace passes here, as in a scalar compare; the Hermiticity
    # test rejects it.
    trace_ok = not any(math.hypot(t.real - 1.0, t.imag) > ATOL for t in tr)
    hermitian = trace_ok and _is_hermitian(mats)
    if hermitian:
        # eigvalsh sorts ascending: column 0 holds each least eigenvalue.
        w = np.linalg.eigvalsh(mats)[:, 0]
        # Each least eigenvalue on its own: a NaN passes, as in a scalar
        # compare, without hiding a negative one elsewhere in the stack.
        if not any(x < -ATOL for x in w.tolist()):
            return
    if len(mats) > 1:
        for m in mats:
            _validate(m[None], dims)
    if not trace_ok:
        raise InvariantViolation(f"DensityMatrix: trace {tr[0]:.12f} != 1")
    if not hermitian:
        raise NotHermitianError("DensityMatrix: not Hermitian")
    raise NotPSDError(f"DensityMatrix: eigenvalue {w[0]:.3e}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix over a list of qubit/qudit subsystems.

    ``mat`` is a read-only copy of the input.  Equality and hashing are by
    identity: two states compare equal only if they are the same object, so
    states can be used in sets and as dict keys.
    """

    mat: np.ndarray
    dims: tuple[int, ...] = field(default=(2, 2))

    def __post_init__(self):
        _settle([self], np.array(self.mat, dtype=complex)[None], tuple(map(int, self.dims)))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def ptrace(self, keep: tuple[int, ...]) -> "DensityMatrix":
        """The ``keep`` marginal: :func:`ptrace_stack` with k = 1."""
        return ptrace_stack([self], keep)[0]


def _settle(states: list[DensityMatrix], mats: np.ndarray, dims: tuple[int, ...]):
    """Validate the new ``(k, d, d)`` stack ``mats`` with one :func:`_validate`
    call, and give state i its read-only fields: ``mats[i]`` and ``dims``.
    Every state, built alone or in a stack, is validated here once."""
    mats.flags.writeable = False
    _validate(mats, dims)
    for i, rho in enumerate(states):
        object.__setattr__(rho, "mat", mats[i])
        object.__setattr__(rho, "dims", dims)


def _settle_stages(stages: list[tuple[np.ndarray, tuple[int, ...]]]) -> list[list[DensityMatrix]]:
    """The states of a run's ``(k, d, d)`` stages, listed with their dims in run
    order, from one :func:`_settle` call per dims.  If one fails, the stages are
    validated again in run order: a run raises what its first bad stage raises."""
    states = [[object.__new__(DensityMatrix) for _ in mats] for mats, _ in stages]
    try:
        for dims in dict.fromkeys(d for _, d in stages):
            group = [i for i, (_, d) in enumerate(stages) if d == dims]
            mats = np.concatenate([stages[i][0] for i in group])
            _settle([rho for i in group for rho in states[i]], mats, dims)
    except (DimensionError, InvariantViolation):
        for mats, dims in stages:
            _validate(mats, dims)
        raise
    return states


def normalize_stack(
    unnorm: np.ndarray, dims: tuple[int, ...]
) -> tuple[list[DensityMatrix], list[float]]:
    """Split a ``(k, d, d)`` stack of unnormalized positive operators into
    its k states and their weights (the traces), as k :func:`normalize`
    calls would, with one validation for the stack.  A failing stack raises
    (or warns) what that loop would at its first bad operator."""
    mats, weights = _quotients(unnorm, dims)
    states = [object.__new__(DensityMatrix) for _ in weights]
    _settle(states, mats, tuple(map(int, dims)))
    return states, weights


def _quotients(unnorm: np.ndarray, dims: tuple[int, ...]) -> tuple[np.ndarray, list[float]]:
    """:func:`normalize_stack` up to validation: the quotients and weights."""
    traces = unnorm.trace(0, -2, -1).real
    weights = traces.tolist()
    # Relative cutoff: a PSD operator with any appreciable entry has a trace
    # of the same order, so only a genuinely vanishing operator is rejected.
    # Complex division by w multiplies by 1/w, which overflows for a
    # subnormal w: such a weight is zero measure too.
    scales = np.abs(unnorm).max((-2, -1)).tolist()
    # k counts the operators before the first one with zero measure or a
    # NaN weight or entry (NaN fails both comparisons).
    k = 0
    for w, s in zip(weights, scales):
        if not (w >= _TINY and w > ATOL * s):
            break
        k += 1
    # The quotient is a new array, so the states built on it own it.
    mats = (unnorm[:k] / traces[:k, None, None]).astype(complex, copy=False)
    if k < len(weights):
        _validate(mats, dims)
        w, s = weights[k], scales[k]
        if not (w < _TINY or w <= ATOL * s):
            # NaN: divided on its own, numpy warns as it would in a loop of
            # normalize calls, and the constructor rejects the NaN state.
            DensityMatrix(unnorm[k] / traces[k], dims)
        raise ZeroProbabilityError("normalize: zero-measure operator")
    return mats, weights


def normalize(unnorm: np.ndarray, dims: tuple[int, ...]) -> tuple[DensityMatrix, float]:
    """Split an unnormalized positive operator into (state, weight):
    :func:`normalize_stack` with k = 1."""
    (rho,), (weight,) = normalize_stack(unnorm[None], dims)
    return rho, weight


def ptrace_stack(states: Sequence[DensityMatrix], keep: tuple[int, ...]) -> list[DensityMatrix]:
    """The ``keep`` marginal of each state, traced as one stack and validated
    with one :func:`_validate` call; each is bitwise the marginal its state
    gives alone.  Every state must have the first one's dims.  A failing
    stack raises what its first bad marginal raises alone."""
    if not states:
        return []
    dims = states[0].dims
    for rho in states:
        if rho.dims != dims:
            raise DimensionError(f"ptrace_stack: dims {rho.dims} vs {dims}")
    keep = tuple(sorted(set(keep)))
    # partial_trace returns a new array, so the marginals own it.
    mats = partial_trace(np.array([rho.mat for rho in states]), dims, keep)
    marginals = [object.__new__(DensityMatrix) for _ in states]
    _settle(marginals, mats, tuple(dims[i] for i in keep))
    return marginals
