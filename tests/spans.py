"""Test helper: equality of subspaces, by dimension and containment."""

from sblq.linalg import Subspace


def same_span(u: Subspace, v: Subspace) -> bool:
    return u.ambient_dim == v.ambient_dim and u.dim == v.dim and u.contains(v)
