import math
from collections import Counter

import numpy as np
import pytest

from schrodg.mesh import FacetKind, SpaceTimeDomain, build_cartesian_mesh

SIDES = ("below", "above", "left", "right")


def facet_groups(mesh):
    """(kind, slab, FacetArrays) for every kind and slab that has facets."""
    return [(kind, slab, fa) for kind in FacetKind for slab in range(mesh.n_slabs)
            if (fa := mesh.facet_arrays(kind, slab)) is not None]


def kind_counts(mesh):
    counts = Counter()
    for kind, _, fa in facet_groups(mesh):
        counts[kind] += len(fa.owner)
    return counts


def incidences(mesh, eid):
    """(kind, side) for every facet of element ``eid``; side is the slot holding eid."""
    return [(kind, side) for kind, _, fa in facet_groups(mesh) for side in SIDES
            for e in getattr(fa, side) if e == eid]


def test_domain_validation():
    with pytest.raises(ValueError):
        SpaceTimeDomain(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        SpaceTimeDomain(0.0, 1.0, 0.0)


def test_single_element_taxonomy():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 1, 1)
    assert mesh.n_elements == 1
    counts = kind_counts(mesh)
    assert counts == {FacetKind.INITIAL: 1, FacetKind.FINAL: 1, FacetKind.DIRICHLET: 2}
    kinds = sorted(kind.value for kind, _ in incidences(mesh, 0))
    assert kinds == ["dirichlet", "dirichlet", "final", "initial"]


def test_2x3_counts_by_enumeration():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 2, 3)
    assert mesh.n_elements == 6
    counts = kind_counts(mesh)
    assert counts[FacetKind.SPACE_INTERIOR] == 4   # 2 per interface x 2 interfaces
    assert counts[FacetKind.TIME_INTERIOR] == 3    # at x = 0.5, one per slab
    assert counts[FacetKind.DIRICHLET] == 6
    assert counts[FacetKind.INITIAL] == 2
    assert counts[FacetKind.FINAL] == 2
    for slab in range(mesh.n_slabs):
        for fixed in mesh.facet_arrays(FacetKind.TIME_INTERIOR, slab).fixed:
            assert fixed == pytest.approx(0.5)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_experiment_mesh_family_spacing(j):
    n = 10 * 2 ** j
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), n, n)
    for h_x, h_t in mesh.element_arrays.h:
        assert math.isclose(h_x, 0.1 * 2.0 ** (-j), rel_tol=1e-15)
        assert math.isclose(h_t, 0.1 * 2.0 ** (-j), rel_tol=1e-15)


def test_every_element_has_four_facets():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 3, 4)
    for eid in range(mesh.n_elements):
        assert len(incidences(mesh, eid)) == 4


def test_roles_time_like_left():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 2, 1)
    roles = dict(incidences(mesh, 0))
    assert roles[FacetKind.TIME_INTERIOR] == "left"
    roles1 = dict(incidences(mesh, 1))
    assert roles1[FacetKind.TIME_INTERIOR] == "right"


def test_roles_space_like_above():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 1, 2)
    top_elem = mesh.slab_elements[1][0]
    bottom = [side for kind, side in incidences(mesh, top_elem)
              if kind is FacetKind.SPACE_INTERIOR]
    assert bottom == ["above"]


def test_invalid_inputs():
    dom = SpaceTimeDomain(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_cartesian_mesh(dom, 0, 1)
    with pytest.raises(ValueError):
        build_cartesian_mesh(dom, 1, 0)


def test_areas_tile_domain():
    dom = SpaceTimeDomain(-0.5, 2.0, 0.7)
    mesh = build_cartesian_mesh(dom, 7, 5)
    total = sum(el.h_x * el.h_t for el in mesh.elements)
    area = dom.width * dom.t_final
    assert abs(total - area) <= 1e-13 * area


def test_neighbor_counts():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 3, 3)
    for kind, _, fa in facet_groups(mesh):
        expected = 2 if kind in (FacetKind.SPACE_INTERIOR, FacetKind.TIME_INTERIOR) else 1
        n_neighbors = sum((getattr(fa, side) >= 0).astype(int) for side in SIDES)
        assert np.all(n_neighbors == expected)


def test_stabilization_values_exact():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 4, 3)
    h_x = mesh.element_arrays.h[:, 0]
    for kind, _, fa in facet_groups(mesh):
        if kind is FacetKind.DIRICHLET:  # h_Fx is the owner's width
            assert np.all(fa.alpha * h_x[fa.owner] == 1.0)
            assert np.all(fa.beta == 0.0)
        elif kind is FacetKind.TIME_INTERIOR:  # h_Fx = beta
            assert np.all(fa.alpha * fa.beta == 1.0)
            h1, h2 = h_x[fa.left], h_x[fa.right]
            assert np.all((np.minimum(h1, h2) <= fa.beta) & (fa.beta <= np.maximum(h1, h2)))


def test_horizontal_partition_property():
    # space-like interior + initial + final cover each horizontal line exactly once
    dom = SpaceTimeDomain(0.0, 1.0, 1.0)
    nx, nt = 4, 3
    mesh = build_cartesian_mesh(dom, nx, nt)
    by_level = {}
    for kind, _, fa in facet_groups(mesh):
        if kind.is_horizontal:
            for lo, hi, fixed in zip(fa.lo, fa.hi, fa.fixed):
                by_level.setdefault(round(float(fixed), 12), []).append((lo, hi))
    assert len(by_level) == nt + 1
    for level, spans in by_level.items():
        assert len(spans) == nx
        total = sum(hi - lo for lo, hi in spans)
        assert total == pytest.approx(dom.width, rel=1e-13)
        spans = sorted(spans)
        for a, b in zip(spans, spans[1:]):
            assert a[1] == pytest.approx(b[0])  # no overlap, no gap


def test_lqu_uniform_is_one():
    # local quasi-uniformity: the largest width ratio of two elements sharing a facet
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 5, 4)
    h_x = mesh.element_arrays.h[:, 0]
    lqu = 1.0
    for kind, _, fa in facet_groups(mesh):
        a, b = (fa.below, fa.above) if kind.is_horizontal else (fa.left, fa.right)
        shared = (a >= 0) & (b >= 0)
        ratio = h_x[a[shared]] / h_x[b[shared]]
        lqu = max(lqu, np.max(np.maximum(ratio, 1.0 / ratio), initial=1.0))
    assert lqu == pytest.approx(1.0)


def test_exact_spacing_gives_one_element_size():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 80, 80)
    assert {(el.h_x, el.h_t) for el in mesh.elements} == {(1.0 / 80, 1.0 / 80)}
    assert mesh.is_uniform


def test_is_uniform_is_derived_from_element_sizes():
    from tests.conftest import perturbed_mesh

    assert not perturbed_mesh().is_uniform


def test_size_groups_index_every_element():
    from tests.conftest import perturbed_mesh

    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 0.5), 4, 2)
    sizes, group = mesh.size_groups
    assert sizes == [(0.25, 0.25)] and group.tolist() == [0] * 8
    # element 5 has a 30% larger h_x: the second of two sizes, and the only one there
    sizes, group = perturbed_mesh().size_groups
    assert sizes == [(0.25, 0.25), (0.325, 0.25)]
    assert np.flatnonzero(group).tolist() == [5] and len(group) == 16


def test_facet_arrays_cover_every_facet_once():
    nx, nt = 3, 4
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), nx, nt)
    seen = Counter()
    neighbors = set()
    for kind, slab, fa in facet_groups(mesh):
        assert all(mesh.elements[e].slab == slab for e in fa.owner)
        seen[kind] += len(fa.owner)
        neighbors.update((kind, *ids) for ids in zip(*(getattr(fa, s) for s in SIDES)))
    assert seen == {FacetKind.SPACE_INTERIOR: nx * (nt - 1), FacetKind.FINAL: nx,
                    FacetKind.INITIAL: nx, FacetKind.TIME_INTERIOR: (nx - 1) * nt,
                    FacetKind.DIRICHLET: 2 * nt}
    assert len(neighbors) == sum(seen.values())
    X, T, W = mesh.facet_arrays(FacetKind.TIME_INTERIOR, 2).quadrature(5)
    assert X.shape == T.shape == W.shape == (2, 5)
    assert np.allclose(X, [[1 / 3], [2 / 3]]) and np.all((0.5 < T) & (T < 0.75))
    assert np.allclose(W.sum(axis=1), 0.25)


@pytest.mark.parametrize("nx, nt", [(3, 5), (1, 1)])
def test_facet_arrays_of_a_slab_range_are_views_of_the_kind(nx, nt):
    # each kind is stored once; a range of slabs reads its rows with no copy, and they
    # are the facets of those slabs one after the other
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), nx, nt)
    slabs = range(1, nt - 1) if nt > 2 else range(nt)
    for kind in FacetKind:
        fa = mesh.facet_arrays(kind, slabs)
        groups = [g for s in slabs if (g := mesh.facet_arrays(kind, s)) is not None]
        if fa is None:
            assert not groups
            continue
        for name in ("owner", "below", "above", "left", "right", "lo", "fixed", "beta"):
            assert np.shares_memory(getattr(fa, name), getattr(mesh.facets[kind], name))
            assert np.array_equal(getattr(fa, name),
                                  np.concatenate([getattr(g, name) for g in groups]))
        for slot, offset in fa.offset.items():
            assert np.array_equal(np.broadcast_to(offset, fa.owner.shape), np.concatenate(
                [np.broadcast_to(g.offset[slot], g.owner.shape) for g in groups]))
