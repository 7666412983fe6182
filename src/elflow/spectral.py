"""FFT-based field algebra on the periodic box.

Transforms, differentiation, Poisson inversion, divergence-free projection,
Riesz-transform pressure and 2/3-rule dealiasing. All operations are pure
functions of their inputs and exact for band-limited data; products of
fields are the caller's responsibility to dealias.

Every transform goes through ``to_spectral``/``to_physical``. Both make
the passes of ``scipy.fft.rfftn``/``irfftn``, in its order, one axis at a
time, on scipy's compiled pocketfft kernel, and give its bits in 2D and
3D. The kernel is loaded from its file on the first transform: elflow
never imports ``scipy.fft``, whose import also pulls in ``scipy.special``.
``to_physical`` makes the inverse's passes in the spectrum it is given and
leaves it undefined, so it allocates only its result; a caller that reads
the spectrum again inverts a copy.

The full and the banded transforms are the same passes: the full ones take
every line, and with ``band=True`` they skip the lines that hold only
off-band values. ``to_spectral(..., band=True)`` returns the dealiased
spectrum, and ``to_physical(..., band=True)`` inverts one that is zero off
the mask; both give the full transforms' bits in band. The solvers keep
their state in the 2/3 band, and callers pass ``band=True`` where the code
guarantees it: the state of an RK step, its stages and every dealiased
product. ``pack(grid, hat)`` copies the in-band coefficients of a spectrum
to a dense array (``band_index(grid)`` indexes them), so a spectrum that is
zero off the mask is held in 28% of its entries at 3D n=32 and 45% at 2D
n=64.

The array-level helpers (suffix ``_hat``) operate on spectral arrays whose
last ``dim`` axes follow the rfftn layout; leading axes are treated as
component axes. Field-level operations wrap them behind ``Field``.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
from pathlib import Path

import numpy as np

from .errors import FieldCompatibilityError
from .fields import Field
from .grid import Grid, tables

__all__ = [
    "to_spectral", "to_physical",
    "gradient", "divergence", "curl", "laplacian",
    "inverse_laplacian", "leray_project", "riesz_pressure", "dealias",
    "resample", "hessian", "second_derivs",
]

# The kernel runs on one thread, its default: a second worker gave no gain at
# desk scale. No call passes this value; the benchmark's host record prints it.
_WORKERS = 1


@functools.cache
def _pocketfft():
    """scipy's compiled ``pypocketfft``, loaded from its file without
    importing ``scipy.fft``. That import also loads ``scipy.special`` and
    costs about 26 MiB of RSS and 0.35 s (2-core Xeon); the kernel is all
    a transform uses, and it gives ``scipy.fft``'s bits."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("the transforms need scipy, which is not installed")
    folder = Path(scipy.origin).parent / "fft" / "_pocketfft"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"pypocketfft{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(
                "scipy.fft._pocketfft.pypocketfft", path)
            kernel = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(kernel)
            return kernel
    from importlib.metadata import version
    raise ImportError(f"the transforms need scipy's compiled pocketfft: scipy "
                      f"{version('scipy')} has no pypocketfft extension in {folder}")


# A transform makes scipy's passes in scipy's order, each one transform call
# on strided views of the lines it takes, with no copy of them. The inverse
# scales once by 1/n^dim at the end: a scaling per pass rounds differently
# unless n is a power of two. The full transforms take every line. The
# banded ones take only the lines that hold in-band values; the forward
# sets the others to zero, and the inverse finds them zero in its input.
# Along a full axis the 2/3 mask keeps the indices 0..n//3 and
# n-n//3..n-1 (the two ``keep`` slices), along the halved last axis
# 0..n//3 (``last``).

def _lines(grid: Grid, band: bool) -> tuple:
    """(keep, drop, last, last_drop): the slices of a full axis and of the
    halved last axis whose lines the passes take, and the slices they set
    to zero. With ``band=False`` every line is kept and none is dropped."""
    if not band:
        return (slice(None),), slice(0, 0), slice(None), slice(0, 0)
    n, c = grid.n, grid.cutoff
    return ((slice(0, c + 1), slice(n - c, n)), slice(c + 1, n - c),
            slice(0, c + 1), slice(c + 1, None))


@functools.lru_cache(maxsize=32)
def band_index(grid: Grid) -> tuple:
    """Index of the in-band coefficients of a spectrum: ``hat[band_index(grid)]``
    has the trailing shape (2c+1, [2c+1,] c+1), c = n//3, each full axis in the
    order of the banded ``keep`` slices. Assigning through it writes them back."""
    keep, _, last, _ = _lines(grid, True)
    full = np.concatenate([np.arange(grid.n)[rows] for rows in keep])
    full.setflags(write=False)
    return (Ellipsis, *np.ix_(*[full] * (grid.dim - 1)), last)


def pack(grid: Grid, hat: np.ndarray) -> np.ndarray:
    """The in-band coefficients of ``hat`` as a new dense array."""
    return hat[band_index(grid)]


def to_spectral(grid: Grid, values: np.ndarray, *, band: bool = False) -> np.ndarray:
    """rfftn over the trailing ``dim`` axes; leading axes are components.
    With ``band=True`` it returns the dealiased spectrum: exactly zero off
    the 2/3 mask and, in band, the bits of the full transform.

    The passes: the last axis on every line, then the first grid axis on the
    kept last-axis indices, then (3D) axis -2 on the lines kept along both
    other axes."""
    keep, drop, last, last_drop = _lines(grid, band)
    kernel, nd = _pocketfft(), values.ndim
    hat = kernel.r2c(values, axes=[nd - 1], forward=True, inorm=0)
    lines = hat[..., last]
    kernel.c2c(lines, axes=[nd - grid.dim], forward=True, inorm=0, out=lines)
    if grid.dim == 3:
        for rows in keep:
            lines = hat[..., rows, :, last]
            kernel.c2c(lines, axes=[nd - 2], forward=True, inorm=0, out=lines)
        hat[..., drop, :, :] = 0.0
    hat[..., drop, :] = 0.0
    hat[..., last_drop] = 0.0
    return hat


def to_physical(grid: Grid, hat: np.ndarray, *, band: bool = False,
                out=None) -> np.ndarray:
    """irfftn over the trailing ``dim`` axes. Every pass is made in ``hat``,
    which is left undefined: pass a copy of a spectrum that is read again.
    ``band=True`` promises that ``hat`` is zero off the 2/3 mask, so the
    passes skip the lines the mask zeroes; the result is the full inverse's.
    The result is written into ``out`` when it is given.

    The passes: axis -3 (3D) on the lines kept along both other axes, then
    axis -2 on the kept last-axis indices, then the last axis on every line
    into the result."""
    keep, _, last, _ = _lines(grid, band)
    kernel, nd = _pocketfft(), hat.ndim
    if grid.dim == 3:
        for cols in keep:
            lines = hat[..., cols, last]
            kernel.c2c(lines, axes=[nd - 3], forward=False, inorm=0, out=lines)
    lines = hat[..., last]
    kernel.c2c(lines, axes=[nd - 2], forward=False, inorm=0, out=lines)
    out = kernel.c2r(hat, axes=[nd - 1], lastsize=grid.n, forward=False, inorm=0, out=out)
    out *= 1.0 / grid.n**grid.dim
    return out


# -- array-level operators ---------------------------------------------------

def deriv_hat(grid: Grid, hat: np.ndarray, axis: int) -> np.ndarray:
    return tables(grid).ik[axis] * hat


def grad_hat(grid: Grid, shat: np.ndarray) -> np.ndarray:
    """Gradient of a (stack of) spectral scalar(s); prepends the derivative axis."""
    ik = tables(grid).ik
    out = np.empty((grid.dim, *shat.shape), dtype=complex)
    for a in range(grid.dim):
        np.multiply(ik[a], shat, out=out[a])
    return out


def lap_hat(grid: Grid, hat: np.ndarray) -> np.ndarray:
    return -tables(grid).k2 * hat


def second_derivs(grid: Grid, hat: np.ndarray, *, band: bool = False):
    """Yield (k, j, block) for k <= j, block[...] = d_j d_k f, from the
    spectrum of f (leading axes are components): one inverse transform per
    block, so the full second-derivative tensor is never held. ``band`` is
    passed to ``to_physical``."""
    wn = tables(grid).k
    for k in range(grid.dim):
        for j in range(k, grid.dim):
            yield k, j, to_physical(grid, -(wn[j] * wn[k]) * hat, band=band)


def div_hat(grid: Grid, vhat: np.ndarray) -> np.ndarray:
    ik = tables(grid).ik
    out = ik[0] * vhat[0]
    for a in range(1, grid.dim):
        out += ik[a] * vhat[a]
    return out


def leray_hat(grid: Grid, vhat: np.ndarray) -> np.ndarray:
    """Remove the gradient part: v_hat - k (k . v_hat) / |k|^2.

    Built entirely from the derivative wavenumbers so it is an exact
    projection; modes carrying only Nyquist indices pass through untouched.
    """
    tab = tables(grid)
    kdotv = tab.k[0] * vhat[0]
    for a in range(1, grid.dim):
        kdotv += tab.k[a] * vhat[a]
    kdotv *= tab.inv_k2_deriv
    out = np.array(vhat, dtype=complex, copy=True)
    for a in range(grid.dim):
        out[a] -= tab.k[a] * kdotv
    return out


def _zero_mode(grid: Grid) -> tuple:
    return (Ellipsis,) + (0,) * grid.dim


def poisson_hat(grid: Grid, shat: np.ndarray) -> np.ndarray:
    """Zero-mean solution of laplacian(n) = s in spectral space."""
    tab = tables(grid)
    out = -shat * tab.inv_k2
    out[_zero_mode(grid)] = 0.0
    return out


# -- field-level operations ---------------------------------------------------

def _spectral_op(f: Field, op_hat) -> Field:
    """The field whose spectrum is ``op_hat(grid, spectrum of f)``."""
    grid = f.grid
    return Field(grid, to_physical(grid, op_hat(grid, to_spectral(grid, f.data))))


def gradient(f: Field) -> Field:
    """Spectral gradient of a field of any rank; prepends the derivative
    axis, so the entry (i, m) of a vector's gradient is d_i v_m. Exact for
    band-limited input, each component zero-mean."""
    return _spectral_op(f, grad_hat)


def divergence(v: Field) -> Field:
    return _spectral_op(v, div_hat)


def curl(v: Field):
    """Curl: a vector field in 3D, the scalar d_1 v_2 - d_2 v_1 in 2D."""
    grid = v.grid
    vhat = to_spectral(grid, v.data)
    k = tables(grid).k
    if grid.dim == 2:
        what = 1j * (k[0] * vhat[1] - k[1] * vhat[0])
        return Field(grid, to_physical(grid, what))
    out = np.stack([
        1j * (k[1] * vhat[2] - k[2] * vhat[1]),
        1j * (k[2] * vhat[0] - k[0] * vhat[2]),
        1j * (k[0] * vhat[1] - k[1] * vhat[0]),
    ])
    return Field(grid, to_physical(grid, out))


def laplacian(f: Field) -> Field:
    return _spectral_op(f, lap_hat)


def inverse_laplacian(s: Field) -> Field:
    """Unique zero-mean solution of laplacian(n) = s; input must be zero-mean."""
    rms = float(np.sqrt(np.mean(s.data**2)))
    m = float(np.mean(s.data))
    if abs(m) > 1e-10 * max(rms, 1e-300):
        raise FieldCompatibilityError(
            f"inverse_laplacian needs zero-mean input: mean={m:.3e}, rms={rms:.3e}"
        )
    return _spectral_op(s, poisson_hat)


def leray_project(v: Field) -> Field:
    """Orthogonal projection onto divergence-free fields (means preserved)."""
    return _spectral_op(v, leray_hat)


def quadratic_pressure_hat(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Spectral R_i R_j(u^i u^j): the zero-mean quadratic pressure part.

    The products u_i u_j are dealiased before differentiation.
    """
    tab = tables(grid)
    out = np.zeros(tab.kshape, dtype=complex)
    for i in range(grid.dim):
        for j in range(i, grid.dim):
            qhat = to_spectral(grid, u[i] * u[j], band=True)
            weight = 1.0 if i == j else 2.0
            out += -weight * tab.k[i] * tab.k[j] * qhat
    out *= tab.inv_k2_deriv
    out[_zero_mode(grid)] = 0.0
    return out


def riesz_pressure(u: Field, c: float = 0.0) -> Field:
    """Pressure R_i R_j(u^i u^j) + c of a divergence-free velocity."""
    grid = u.grid
    values = to_physical(grid, quadratic_pressure_hat(grid, u.data)) + c
    return Field(grid, values)


def dealias(field: Field) -> Field:
    """2/3-rule truncation: modes with any |index| above n//3 are zeroed."""
    grid = field.grid
    hat = to_spectral(grid, field.data, band=True)
    return Field(grid, to_physical(grid, hat, band=True))


def hessian(s: Field) -> Field:
    """Matrix of second derivatives d_j d_k s (symmetric)."""
    grid = s.grid
    out = np.empty((grid.dim, grid.dim, *grid.shape))
    for k, j, block in second_derivs(grid, to_spectral(grid, s.data)):
        out[k, j] = out[j, k] = block
        del block   # not held while the next block is made
    return Field(grid, out)


def resample(field: Field, n_new: int) -> Field:
    """Re-sample a field on a grid with ``n_new`` points per axis.

    Spectral zero-padding (or truncation) of the modes with every
    |index| < min(n, n_new)/2, exact for band-limited fields.
    """
    grid = field.grid
    fine = Grid(grid.dim, n_new, grid.length)
    hat = to_spectral(grid, field.data)
    half = min(grid.n, n_new) // 2
    take = np.r_[0:half, grid.n - half + 1:grid.n]
    put = np.r_[0:half, n_new - half + 1:n_new]
    new_hat = np.zeros(hat.shape[: hat.ndim - grid.dim] + fine.shape[:-1]
                       + (n_new // 2 + 1,), dtype=complex)
    idx_take = np.ix_(*[take] * (grid.dim - 1), np.arange(half))
    idx_put = np.ix_(*[put] * (grid.dim - 1), np.arange(half))
    new_hat[(Ellipsis, *idx_put)] = hat[(Ellipsis, *idx_take)]
    new_hat *= (n_new / grid.n) ** grid.dim
    return Field(fine, to_physical(fine, new_hat))
