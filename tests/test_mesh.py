import math
from collections import Counter

import numpy as np
import pytest

from schrodg.mesh import PLACE, FacetKind, Mesh, SpaceTimeDomain, build_cartesian_mesh
from schrodg.quadrature import rect_rule
from tests.conftest import named_mesh

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
    h_x, h_t = mesh.h
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
    h_x = np.array([el.h_x for el in mesh.elements])
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
    h_x = np.array([el.h_x for el in mesh.elements])
    lqu = 1.0
    for kind, _, fa in facet_groups(mesh):
        a, b = (fa.below, fa.above) if kind.is_horizontal else (fa.left, fa.right)
        shared = (a >= 0) & (b >= 0)
        ratio = h_x[a[shared]] / h_x[b[shared]]
        lqu = max(lqu, np.max(np.maximum(ratio, 1.0 / ratio), initial=1.0))
    assert lqu == pytest.approx(1.0)


def test_exact_spacing_gives_one_element_size():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 80, 80)
    assert {(el.h_x, el.h_t) for el in mesh.elements} == {mesh.h} == {(1.0 / 80, 1.0 / 80)}


GRID_CASES = [(SpaceTimeDomain(0.0, 1.0, 1.0), 1, 1), (SpaceTimeDomain(-0.5, 2.0, 0.7), 7, 5),
              (SpaceTimeDomain(0.0, 1.0, 0.1), 80, 16)]


@pytest.mark.parametrize("dom, nx, nt", GRID_CASES)
def test_built_meshes_are_their_grid(dom, nx, nt):
    # a built mesh passes the grid check, and its size and centres are the elements'
    mesh = build_cartesian_mesh(dom, nx, nt)
    assert Mesh(dom, mesh.xs, mesh.ts).h == mesh.h == (dom.width / nx, dom.t_final / nt)
    assert mesh.centers.shape == (nx * nt, 2) and not mesh.centers.flags.writeable
    assert mesh.centers.tolist() == [list(el.center) for el in mesh.elements]
    assert all((el.h_x, el.h_t) == mesh.h for el in mesh.elements)


@pytest.mark.parametrize("fault", ["xs moved one ulp", "ts reversed", "one x-line"])
def test_mesh_rejects_lines_that_are_not_its_grid(fault):
    # every size and offset is read off the domain and the line counts, so lines that are
    # not, to the bit, the uniform grid would get the wrong alpha, beta and offsets
    dom = SpaceTimeDomain(-0.5, 2.0, 0.7)
    mesh = build_cartesian_mesh(dom, 4, 3)
    xs, ts = mesh.xs.copy(), mesh.ts.copy()
    if fault == "xs moved one ulp":
        xs[2] = np.nextafter(xs[2], np.inf)
    elif fault == "ts reversed":
        ts = ts[::-1].copy()
    else:
        xs = xs[:1]
    with pytest.raises(ValueError, match="grid lines"):
        Mesh(dom, xs, ts)


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
def test_facet_arrays_of_a_slab_range_concatenate_its_slabs(nx, nt):
    # a range of slabs gives the facets of those slabs one after the other, field by
    # field, with the same dtypes
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), nx, nt)
    for slabs in (range(1, nt - 1) if nt > 2 else range(nt), range(nt)):
        for kind in FacetKind:
            fa = mesh.facet_arrays(kind, slabs)
            groups = [g for s in slabs if (g := mesh.facet_arrays(kind, s)) is not None]
            if fa is None:
                assert not groups
                continue
            for name in ("owner", "below", "above", "left", "right", "lo", "hi", "fixed",
                         "normal_sign", "alpha", "beta"):
                want = np.concatenate([getattr(g, name) for g in groups])
                assert getattr(fa, name).dtype == want.dtype
                assert np.array_equal(getattr(fa, name), want)


@pytest.mark.parametrize("nx, nt", [(1, 1), (1, 3), (4, 2)])
def test_lines_name_each_kinds_grid_lines(nx, nt):
    # the space-like kinds split the t-lines and the time-like ones the x-lines, in order,
    # and every facet of a kind lies on one of its lines
    mesh = build_cartesian_mesh(SpaceTimeDomain(-0.5, 2.0, 0.7), nx, nt)
    lines = {kind: list(mesh.lines(kind)) for kind in FacetKind}
    assert (lines[FacetKind.INITIAL] + lines[FacetKind.SPACE_INTERIOR]
            + lines[FacetKind.FINAL]) == list(range(nt + 1))
    assert sorted(lines[FacetKind.TIME_INTERIOR] + lines[FacetKind.DIRICHLET]) == list(
        range(nx + 1))
    assert lines[FacetKind.DIRICHLET] == [0, nx]
    for kind in FacetKind:
        fa = mesh.facet_arrays(kind, range(nt))
        if fa is None:
            assert not lines[kind]
            continue
        grid = mesh.ts if kind.is_horizontal else mesh.xs
        assert np.array_equal(np.unique(fa.fixed), grid[lines[kind]])


def element_sides(mesh, kind):
    """The facets of ``kind`` built side by side from the element records, as
    {field: array} in `facet_arrays` order: by the owner's slab, then by x."""
    nx, nt, rows = mesh.nx, mesh.nt, []
    centre = mesh.centers
    for el in mesh.elements:
        (x0, x1), (t0, t1), e = el.x_range, el.t_range, el.id
        if kind.is_horizontal:  # the bottom side, and the top one in the last slab
            sides = [(t0, e - nx if el.slab else -1, e)]
            if el.slab == nt - 1:
                sides.append((t1, e, -1))
            for t, below, above in sides:
                found = (FacetKind.INITIAL if below < 0 else
                         FacetKind.FINAL if above < 0 else FacetKind.SPACE_INTERIOR)
                if found is kind:
                    owner = below if below >= 0 else above
                    rows.append(dict(owner=owner, below=below, above=above, left=-1, right=-1,
                                     lo=x0, hi=x1, fixed=t, normal_sign=0.0, alpha=0.0,
                                     beta=0.0, half=el.h_x / 2, slab=owner // nx, x=x0,
                                     owner_offset=t - centre[owner, 1]))
        else:  # the left side, and the right one at the right boundary
            sides = [(x0, e - 1 if el.ix else -1, e)]
            if el.ix == nx - 1:
                sides.append((x1, e, -1))
            for x, left, right in sides:
                dirichlet = left < 0 or right < 0
                if dirichlet is (kind is FacetKind.DIRICHLET):
                    owner = left if left >= 0 else right
                    sign = (1.0 if left >= 0 else -1.0) if dirichlet else 1.0
                    rows.append(dict(owner=owner, below=-1, above=-1, left=left, right=right,
                                     lo=t0, hi=t1, fixed=x, normal_sign=sign,
                                     alpha=1.0 / el.h_x, beta=0.0 if dirichlet else el.h_x,
                                     half=el.h_t / 2, slab=el.slab, x=x,
                                     owner_offset=x - centre[owner, 0]))
    rows.sort(key=lambda r: (r["slab"], r["x"]))
    return {name: np.array([r[name] for r in rows]) for name in rows[0]}


@pytest.mark.parametrize("kind", list(FacetKind))
def test_facet_arrays_match_the_element_sides(kind):
    # the index arithmetic of facet_arrays gives the facets that the elements' own sides
    # name, field by field and in the same order
    mesh = build_cartesian_mesh(SpaceTimeDomain(-0.5, 2.0, 0.7), 3, 4)
    fa, want = mesh.facet_arrays(kind, range(mesh.nt)), element_sides(mesh, kind)
    for name in ("owner", "below", "above", "left", "right"):
        assert getattr(fa, name).dtype == np.intp
        assert getattr(fa, name).tolist() == want[name].tolist()
    for name in ("lo", "hi", "fixed", "normal_sign", "alpha", "beta"):
        assert getattr(fa, name).dtype == float
        assert np.array_equal(getattr(fa, name), want[name])
    # on each neighbour the facet is the side PLACE[slot]: its rule spans the facet, and
    # lies at the signed distance from the neighbour's centre to the facet's line
    across = 1 if kind.is_horizontal else 0
    owner_offset = np.empty(len(fa.owner))
    for slot, place in PLACE.items():
        ids = getattr(fa, slot)
        if not (has := ids >= 0).any():
            continue
        rule = mesh.rule(3, place)
        assert np.allclose(rule[2].sum(), 2 * want["half"], rtol=1e-14, atol=0)
        assert np.allclose(rule[across], fa.fixed[has, None] - mesh.centers[ids[has], across, None],
                           rtol=0, atol=1e-14)
        owner_offset[has & (ids == fa.owner)] = rule[across][0, 0]
    assert np.allclose(owner_offset, want["owner_offset"], rtol=0, atol=1e-14)


@pytest.mark.parametrize("mesh_name", ["uniform", "offset"])
def test_rule_matches_the_global_quadrature(mesh_name):
    # centres plus the offsets of Mesh.rule at the place of each neighbour slot, the
    # Dirichlet owners' included, are the global Gauss nodes of every facet, with its
    # weights; over the volume they are rect_rule's, in its order
    mesh, n = named_mesh(mesh_name, 3, 4), 5
    checked = set()
    for kind in FacetKind:
        fa = mesh.facet_arrays(kind, range(mesh.nt))
        X, T, W = fa.quadrature(n)
        for slot, place in PLACE.items():
            has = getattr(fa, slot) >= 0
            if has.any():
                x, t, w = mesh.rule(n, place)
                assert x.shape == t.shape == w.shape == (1, n)
                centre = mesh.centers[getattr(fa, slot)[has]]
                assert np.allclose(centre[:, :1] + x, X[has], rtol=0, atol=1e-14)
                assert np.allclose(centre[:, 1:] + t, T[has], rtol=0, atol=1e-14)
                assert np.allclose(np.broadcast_to(w, W[has].shape), W[has], rtol=1e-14, atol=0)
                checked.add((kind, slot))
    assert len(checked) == 8
    x, t, w = mesh.rule(n, "volume")
    assert x.shape == t.shape == w.shape == (1, n * n)
    for el in mesh.elements:
        xg, tg, wg = rect_rule(el.x_range, el.t_range, n)
        assert np.allclose(el.center[0] + x[0], xg, rtol=0, atol=1e-14)
        assert np.allclose(el.center[1] + t[0], tg, rtol=0, atol=1e-14)
        assert np.allclose(w[0], wg, rtol=1e-14, atol=0)
    with pytest.raises(ValueError, match="place"):  # a slot is not a place
        mesh.rule(n, "owner")
