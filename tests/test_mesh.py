import json
import math
from collections import Counter

import numpy as np
import pytest

from schrodg.mesh import (FacetKind, FacetRole, SpaceTimeDomain, build_cartesian_mesh,
                          facets_of, local_quasi_uniformity, mesh_summary,
                          mesh_summary_json)


def kind_counts(mesh):
    return Counter(f.kind for f in mesh.facets)


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
    kinds = sorted(f.kind.value for f, _ in facets_of(mesh, 0))
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
    for f in mesh.facets:
        if f.kind is FacetKind.TIME_INTERIOR:
            assert f.fixed == pytest.approx(0.5)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_experiment_mesh_family_spacing(j):
    n = 10 * 2 ** j
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), n, n)
    s = mesh_summary(mesh)
    assert math.isclose(s["h_x"], 0.1 * 2.0 ** (-j), rel_tol=1e-15)
    assert math.isclose(s["h_t"], 0.1 * 2.0 ** (-j), rel_tol=1e-15)


def test_every_element_has_four_facets():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 3, 4)
    for el in mesh.elements:
        assert len(facets_of(mesh, el.id)) == 4


def test_roles_time_like_left():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 2, 1)
    roles = {f.kind: role for f, role in facets_of(mesh, 0)}
    assert roles[FacetKind.TIME_INTERIOR] is FacetRole.LEFT
    roles1 = {f.kind: role for f, role in facets_of(mesh, 1)}
    assert roles1[FacetKind.TIME_INTERIOR] is FacetRole.RIGHT


def test_roles_space_like_above():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 1, 2)
    top_elem = mesh.slab_elements[1][0]
    bottom = [role for f, role in facets_of(mesh, top_elem)
              if f.kind is FacetKind.SPACE_INTERIOR]
    assert bottom == [FacetRole.ABOVE]


def test_invalid_inputs():
    dom = SpaceTimeDomain(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_cartesian_mesh(dom, 0, 1)
    with pytest.raises(ValueError):
        build_cartesian_mesh(dom, 1, 0)
    mesh = build_cartesian_mesh(dom, 2, 2)
    with pytest.raises(ValueError):
        facets_of(mesh, 99)


def test_areas_tile_domain():
    dom = SpaceTimeDomain(-0.5, 2.0, 0.7)
    mesh = build_cartesian_mesh(dom, 7, 5)
    total = sum(el.h_x * el.h_t for el in mesh.elements)
    assert abs(total - dom.area) <= 1e-13 * dom.area


def test_neighbor_counts():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 3, 3)
    for f in mesh.facets:
        expected = 2 if f.kind in (FacetKind.SPACE_INTERIOR, FacetKind.TIME_INTERIOR) else 1
        assert len(f.neighbors) == expected


def test_stabilization_values_exact():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 4, 3)
    for f in mesh.facets:
        if f.kind is FacetKind.DIRICHLET:
            assert f.alpha * f.h_F_x == 1.0
            assert f.h_F_x == mesh.elements[f.owner].h_x
        elif f.kind is FacetKind.TIME_INTERIOR:
            assert f.alpha * f.h_F_x == 1.0
            assert f.beta == f.h_F_x
            h1 = mesh.elements[f.left].h_x
            h2 = mesh.elements[f.right].h_x
            assert min(h1, h2) <= f.h_F_x <= max(h1, h2)


def test_horizontal_partition_property():
    # space-like interior + initial + final cover each horizontal line exactly once
    dom = SpaceTimeDomain(0.0, 1.0, 1.0)
    nx, nt = 4, 3
    mesh = build_cartesian_mesh(dom, nx, nt)
    by_level = {}
    for f in mesh.facets:
        if f.kind.is_horizontal:
            by_level.setdefault(round(f.fixed, 12), []).append(f)
    assert len(by_level) == nt + 1
    for level, facets in by_level.items():
        assert len(facets) == nx
        total = sum(f.length for f in facets)
        assert total == pytest.approx(dom.width, rel=1e-13)
        spans = sorted(f.span for f in facets)
        for a, b in zip(spans, spans[1:]):
            assert a[1] == pytest.approx(b[0])  # no overlap, no gap


def test_lqu_uniform_is_one():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 5, 4)
    assert local_quasi_uniformity(mesh) == pytest.approx(1.0)


def test_summary_json():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 2, 3)
    data = json.loads(mesh_summary_json(mesh))
    assert data["n_elements"] == 6
    assert data["n_slabs"] == 3
    assert data["facet_counts"]["time_interior"] == 3
    assert data["lqu"] == pytest.approx(1.0)


def test_exact_spacing_gives_one_element_size():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 80, 80)
    assert {(el.h_x, el.h_t) for el in mesh.elements} == {(1.0 / 80, 1.0 / 80)}
    assert mesh.is_uniform


def test_is_uniform_is_derived_from_element_sizes():
    from tests.conftest import perturbed_mesh

    assert not perturbed_mesh().is_uniform


def test_facet_arrays_cover_every_facet_once():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 3, 4)
    seen = Counter()
    for kind in FacetKind:
        for slab in range(mesh.n_slabs):
            fa = mesh.facet_arrays(kind, slab)
            if fa is None:
                continue
            assert all(mesh.elements[e].slab == slab for e in fa.owner)
            seen[kind] += len(fa.owner)
    assert seen == kind_counts(mesh)
    X, T, W = mesh.facet_arrays(FacetKind.TIME_INTERIOR, 2).quadrature(5)
    assert X.shape == T.shape == W.shape == (2, 5)
    assert np.allclose(X, [[1 / 3], [2 / 3]]) and np.all((0.5 < T) & (T < 0.75))
    assert np.allclose(W.sum(axis=1), 0.25)
