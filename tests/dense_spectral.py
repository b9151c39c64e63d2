"""Dense references for `SpectralData` and `Projection`: the merged N x N
eigenvector matrix, func(h) = V diag func(E) V* over it, the N x N matrix
of a projection, which the library never forms, and the real-space Chern
number read off that matrix."""

import numpy as np

from iwalab import operators


def sector_eigenvectors(v, size):
    """All `size` eigenvector columns of a sector's v, an eigenvector
    matrix or the `ChiralFactors` of a chiral block."""
    return operators._eigenvector_columns(v, 0, size)


def merged_eigenvectors(sd):
    """The N x N matrix whose column i is the eigenvector of
    sd.eigenvalues[i]: the columns G v of the sectors, merged in the
    stable order of their eigenvalues (v itself for a whole solve)."""
    if len(sd.sectors) == 1:
        _, w, v = sd.sectors[0]
        return sector_eigenvectors(v, w.size)
    w = np.concatenate([wb for _, wb, _ in sd.sectors])
    order = np.argsort(w, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(w.size)
    v = np.empty((w.size, w.size), dtype=complex)
    start = 0
    for g, wb, vb in sd.sectors:
        v[:, column[start:start + wb.size]] = g @ sector_eigenvectors(vb, wb.size)
        start += wb.size
    return v


def spectral_apply(sd, func):
    """The ndarray func(H) = V diag(func(E)) V* over the merged
    eigenvectors, summed over those whose weight func(E) is nonzero."""
    fvals = np.asarray(func(sd.eigenvalues))
    v = merged_eigenvectors(sd)
    keep = fvals != 0
    if not keep.all():
        v, fvals = v[:, keep], fvals[keep]
    return (v * fvals) @ v.conj().T


def projection_matrix(P):
    """The N x N ndarray of the projection P: F F* over the columns F = G v
    of its frames, or 1 - F F* for a complement."""
    f = np.hstack([g @ v for g, v in P.frames])
    m = f @ f.conj().T
    return np.eye(P.window.size) - m if P.complement else m


def chern_realspace_full(P, margin=6):
    """Reference real-space Chern number: the commutator [D1 P, D2 P] of
    the dense projection on the interior columns, and the diagonal of P
    times it there."""
    pm = projection_matrix(P)
    x1, x2 = P.window.positions().astype(float).T
    d1 = 1j * (x1[:, None] - x1[None, :]) * pm
    d2 = 1j * (x2[:, None] - x2[None, :]) * pm
    mask = P.window.interior_mask(margin)
    comm = d1 @ d2[:, mask]
    comm -= d2 @ d1[:, mask]
    diag = np.einsum("ik,ki->i", pm[mask], comm)      # diag(P @ comm)
    return float((2j * np.pi * diag.mean()).real)
