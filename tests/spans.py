"""Test helpers on subspaces: equality, intersection and sum."""

from sblq.linalg import Subspace, hstack, image_basis, kernel_basis


def same_span(u: Subspace, v: Subspace) -> bool:
    return u.ambient_dim == v.ambient_dim and u.dim == v.dim and u.contains(v)


def _check_ambient(u: Subspace, v: Subspace) -> None:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """u ∩ v via the null space of [B_u | -B_v]."""
    _check_ambient(u, v)
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(u.ambient_dim)
    ker = kernel_basis(hstack(u.basis, -v.basis))
    if ker.dim == 0:
        return Subspace.zero(u.ambient_dim)
    top = ker.basis.submatrix(range(u.dim), range(ker.dim))
    return image_basis(u.basis @ top)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_ambient(u, v)
    return image_basis(hstack(u.basis, v.basis))
