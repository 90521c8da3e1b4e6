"""Voxel mesh construction: cover guarantees, element operators, yarn
embedding, and exact mass lumping against quadrature oracles."""

import collections
import itertools
import json
import os

import numpy as np
import pytest

import oracles
from volknit import volmesh as vm
from volknit import yarn_model as ym


def two_point_yarn(a, b):
    return ym.YarnModel(np.array([a, b], dtype=float), [np.array([0, 1])])


def random_yarn(rng, n=20, scale=0.3):
    pts = rng.normal(size=(n, 3)) * scale
    return ym.YarnModel(pts, [np.arange(n)])


# ---------------------------------------------------------------------------
# voxelization


def test_axis_segment_from_cell_center():
    h = 0.1
    y = two_point_yarn([0.05, 0.05, 0.05], [0.35, 0.05, 0.05])
    mesh = vm.voxelize(y, h, origin=np.zeros(3))
    assert len(mesh.voxels) == 4
    assert mesh.n_elements == 24


def test_corner_pass_occupies_all_incident_cells():
    # diagonal through the grid corner at (0.1, 0.1, 0.1)
    y = two_point_yarn([0.05, 0.05, 0.05], [0.15, 0.15, 0.15])
    mesh = vm.voxelize(y, 0.1, origin=np.zeros(3))
    got = set(map(tuple, mesh.voxels))
    want = set(itertools.product((0, 1), repeat=3))
    assert got == want


def test_face_connectivity_no_corner_links(rng):
    # occupied set must be 6-connected even for diagonal-ish yarns
    y = random_yarn(rng, 15)
    mesh = vm.voxelize(y, 0.17)
    cells = set(map(tuple, mesh.voxels))
    comp = oracles.connected_components(cells)
    assert len(comp) == 1 and comp[0] == cells


def test_cover_dense_sampling(rng):
    for seed in range(3):
        r = np.random.default_rng(seed)
        y = random_yarn(r, 12)
        mesh = vm.voxelize(y, 0.15)
        occ = set(map(tuple, mesh.voxels))
        for s in y.segments:
            a = y.rest_vertices[s[0]]
            b = y.rest_vertices[s[1]]
            for t in np.linspace(0.0, 1.0, 1000):
                p = a + t * (b - a)
                g = (p - mesh.origin) / mesh.cell_size
                cand = [np.floor(g).astype(int)]
                for ax in range(3):
                    if abs(g[ax] - round(g[ax])) < 1e-9:
                        cand += [c - np.eye(3, dtype=int)[ax] for c in list(cand)]
                assert any(tuple(c) in occ for c in cand)


def grid_plane_snake():
    """A strand through the centers of a 4x2x2 block of 0.125 cells."""
    c = [0.0625, 0.1875]
    snake = [(c[0], c[0], c[0]), (0.4375, c[0], c[0]), (0.4375, c[1], c[0]),
             (c[0], c[1], c[0]), (c[0], c[1], c[1]), (0.4375, c[1], c[1]),
             (0.4375, c[0], c[1]), (c[0], c[0], c[1])]
    return ym.YarnModel(np.array(snake), [np.arange(len(snake))])


def assert_same_voxelization(yarn, h, origin=None):
    """Batched (segment, cell) pairs, voxelize arrays and adjacency CSR equal
    the loop oracle's bits; a disconnected yarn raises the same error."""
    rest, segs = yarn.rest_vertices, yarn.segments
    o = np.floor(rest.min(axis=0) / h - 1.0) * h if origin is None else origin
    want = sorted((i,) + c for i, (a, b) in enumerate(segs)
                  for c in oracles.segment_cells(rest[a], rest[b], h, o))
    seg, cells = vm.segment_cells(rest[segs[:, 0]], rest[segs[:, 1]], h, o)
    assert np.array_equal(np.column_stack([seg, cells]), np.array(want))
    try:
        arrays = oracles.voxelize(yarn, h, origin)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            vm.voxelize(yarn, h, origin)
        assert str(got.value) == str(exc)
        return str(exc)
    mesh = vm.voxelize(yarn, h, origin)
    for name, a in zip(("nodes", "tets", "voxels", "tet_voxel"), arrays):
        b = getattr(mesh, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    got, want = vm.element_adjacency(mesh), oracles.element_adjacency(mesh)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    return None


def test_voxelization_matches_loop_oracle_on_grid_planes():
    assert assert_same_voxelization(grid_plane_snake(), 0.125, np.zeros(3)) is None
    # the corner pass, and a strand along grid lines through grid corners
    corner = two_point_yarn([0.05, 0.05, 0.05], [0.15, 0.15, 0.15])
    assert assert_same_voxelization(corner, 0.1, np.zeros(3)) is None
    edge = two_point_yarn([0.0, 0.25, 0.5], [1.0, 0.25, 0.5])
    assert assert_same_voxelization(edge, 0.25, np.zeros(3)) is None


def test_voxelization_matches_loop_oracle_on_random_and_lattice_yarns(rng):
    for _ in range(12):
        n = int(rng.integers(2, 25))
        y = random_yarn(rng, n, scale=rng.uniform(0.05, 0.4))
        assert assert_same_voxelization(y, rng.uniform(0.04, 0.25)) is None
    for _ in range(12):
        pts = rng.integers(-3, 4, size=(12, 3)).astype(float)
        pts = pts[np.r_[True, np.any(pts[1:] != pts[:-1], axis=1)]]
        y = ym.YarnModel(0.125 * pts, [np.arange(len(pts))])
        for h in (0.125, 0.25):
            assert assert_same_voxelization(y, h, np.zeros(3)) is None


def test_two_blob_yarn_raises_naming_same_segment():
    # a five-segment strand and, far away, a one-segment strand: the small
    # blob's cells are dropped, and its segment (index 5) is named
    big = np.column_stack([np.linspace(0.0, 0.5, 6), np.full(6, 0.05), np.full(6, 0.05)])
    small = np.array([[2.0, 0.05, 0.05], [2.1, 0.05, 0.05]])
    y = ym.YarnModel(np.vstack([big, small]), [np.arange(6), np.arange(6, 8)])
    msg = assert_same_voxelization(y, 0.1)
    assert msg is not None and msg.startswith("segment 5 ")
    # two equal strands: the tie goes to the one holding the smallest cell,
    # the second polyline's, so the first segment is named
    y = ym.YarnModel(np.vstack([small, small - [2.0, 0.0, 0.0]]), [np.arange(2), np.arange(2, 4)])
    assert assert_same_voxelization(y, 0.1).startswith("segment 0 ")


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ym.YarnModel(np.zeros((2, 3)), [])          # no polylines at all
    with pytest.raises(ValueError):
        ym.YarnModel(np.zeros((2, 3)), [np.array([0, 1])])  # zero-length segment
    y = two_point_yarn([0, 0, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        vm.voxelize(y, 0.0)
    with pytest.raises(ValueError):
        vm.voxelize(y, -1.0)


def test_single_voxel_allowed():
    y = two_point_yarn([0.4, 0.4, 0.4], [0.6, 0.6, 0.6])
    mesh = vm.voxelize(y, 10.0, origin=np.zeros(3))
    assert len(mesh.voxels) == 1
    assert mesh.n_elements == 6


# ---------------------------------------------------------------------------
# element geometry


def test_volumes_positive_and_uniform(rng):
    mesh = vm.voxelize(random_yarn(rng), 0.12)
    assert np.all(mesh.volume > 0.0)
    assert np.allclose(mesh.volume, mesh.cell_size**3 / 6.0, rtol=1e-12)
    assert np.allclose(np.linalg.det(mesh.jacobian), 6.0 * mesh.volume, rtol=1e-12)


def test_conforming_faces(rng):
    mesh = vm.voxelize(random_yarn(rng), 0.12)
    cnt = collections.Counter()
    for t in mesh.tets:
        for f in itertools.combinations(sorted(t), 3):
            cnt[f] += 1
    assert set(cnt.values()) <= {1, 2}


def test_diff_op_reproduces_affine(rng):
    mesh = vm.voxelize(random_yarn(rng), 0.15)
    A = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    x = mesh.nodes @ A.T + b
    F = mesh.deformation_gradients(x.reshape(-1))
    assert np.abs(F - A[None]).max() < 1e-12


# ---------------------------------------------------------------------------
# embedding


def test_interp_partition_of_unity(rng):
    y = random_yarn(rng)
    mesh = vm.voxelize(y, 0.14)
    emb = vm.embed_yarn(mesh, y)
    rows = np.asarray(emb.interp.sum(axis=1)).ravel()
    assert np.abs(rows - 1.0).max() < 1e-12
    assert emb.interp.nnz == 4 * y.n_vertices
    w = emb.interp.tocoo().data
    assert w.min() >= 0.0 and w.max() <= 1.0 + 1e-12
    back = emb.interp @ mesh.nodes
    assert np.abs(back - y.rest_vertices).max() < 1e-9


def test_locate_tie_breaks_lowest_element(rng):
    y = random_yarn(rng, 6)
    mesh = vm.voxelize(y, 0.3)
    faces = {}
    shared = None
    for e, t in enumerate(mesh.tets):
        for f in itertools.combinations(sorted(t), 3):
            if f in faces:
                shared = (faces[f], e, f)
                break
            faces[f] = e
        if shared:
            break
    e0, e1, f = shared
    centroid = mesh.nodes[list(f)].mean(axis=0)
    e, lam = mesh.locate(centroid)
    assert e == min(e0, e1)


def test_segment_pieces_tile_unit_interval(rng):
    y = random_yarn(rng)
    mesh = vm.voxelize(y, 0.14)
    emb = vm.embed_yarn(mesh, y)
    for si in range(y.n_segments):
        sel = emb.piece_seg == si
        t0 = np.sort(emb.piece_t0[sel])
        t1 = np.sort(emb.piece_t1[sel])
        assert abs(t0[0]) < 1e-12
        assert abs(t1[-1] - 1.0) < 1e-12
        assert np.abs(t1[:-1] - t0[1:]).max() < 1e-9


def assert_same_embedding(mesh, yarn):
    """Batched embedding and node masses equal the loop oracle's bits."""
    got, want = vm.embed_yarn(mesh, yarn), oracles.embed_yarn(mesh, yarn)
    for name in ("host_elem", "host_weights", "piece_elem", "piece_seg",
                 "piece_t0", "piece_t1", "yarn_mass"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got.interp, name), getattr(want.interp, name)), name
    assert np.array_equal(vm.lump_mass(mesh, yarn, got), oracles.lump_mass(mesh, yarn, want))


def test_embedding_matches_loop_oracle_on_jittered_rib(rng):
    y = ym.rib_patch(courses=5, wales=24, course_spacing=0.005, wale_spacing=0.005,
                     amplitude=0.002)
    y = ym.YarnModel(y.rest_vertices + 1e-4 * rng.standard_normal((y.n_vertices, 3)),
                     y.polylines, 0.002)
    for cell in (0.011, 0.03):
        assert_same_embedding(vm.voxelize(y, cell), y)


def test_embedding_matches_loop_oracle_on_grid_planes():
    # a 4x2x2 block of cells with exact binary planes, and a strand through
    # a face, an edge, an 8-cell corner, a cell's main diagonal (6 tets), a
    # boundary corner, and points within 1e-12, 1e-9 and 1e-6 slack of the
    # locate ladder
    h = 0.125
    mesh = vm.voxelize(grid_plane_snake(), h, origin=np.zeros(3))
    assert len(mesh.voxels) == 16
    pts = np.array([[0.25, 0.0625, 0.0625], [0.25, 0.125, 0.0625],
                    [0.25, 0.125, 0.125], [0.1875, 0.1875, 0.1875],
                    [0.375, 0.125, 0.25],
                    # just across an interior face, and just outside the
                    # x = 0.5 end face near a diagonal of its cell
                    [0.25 + 1e-10 * h, 0.0625, 0.0625],
                    [0.5 + 5e-10 * h, 0.0625 - 2e-9 * h, 0.0625],
                    [0.5 + 5e-10 * h, 0.0625, 0.1875],
                    [0.5 + 2e-9 * h, 0.2, 0.1], [0.5, 0.25, 0.25]])
    y = ym.YarnModel(pts, [np.arange(len(pts))])
    assert len(oracles.candidate_elements(mesh, pts[2])) == 48
    assert oracles.locate(mesh, pts[7])[1].min() < -1e-12
    assert oracles.locate(mesh, pts[8])[1].min() < -1e-9

    def first_within(p, tol):
        return next(e for e in oracles.candidate_elements(mesh, p)
                    if oracles.barycentric(mesh, e, p).min() >= -tol)

    # a lower element inside only the wider slack loses to a higher one
    for p in pts[[5, 6]]:
        assert oracles.locate(mesh, p)[0] != first_within(p, 1e-6)
    assert_same_embedding(mesh, y)


# ---------------------------------------------------------------------------
# mass lumping


def test_mass_conservation(rng):
    y = random_yarn(rng)
    y.linear_density[:] = 0.37
    mesh = vm.voxelize(y, 0.14)
    m = vm.lump_mass(mesh, y)
    assert abs(m.sum() - oracles.total_mass(y)) / oracles.total_mass(y) < 1e-10


def test_point_mass_at_centroid(rng):
    y = random_yarn(rng, 5)
    mesh = vm.voxelize(y, 0.3)
    e = 3
    centroid = mesh.nodes[mesh.tets[e]].mean(axis=0)
    out = np.zeros(mesh.n_nodes)
    vm.scatter_line_mass(mesh, e, centroid, centroid, 1.0, out)
    assert np.abs(out[mesh.tets[e]] - 0.25).max() < 1e-12
    assert abs(out.sum() - 1.0) < 1e-12


def test_edge_segment_splits_half_half(rng):
    y = random_yarn(rng, 5)
    mesh = vm.voxelize(y, 0.3)
    e = 0
    i, j = mesh.tets[e, 0], mesh.tets[e, 1]
    out = np.zeros(mesh.n_nodes)
    vm.scatter_line_mass(mesh, e, mesh.nodes[i], mesh.nodes[j], 2.0, out)
    assert abs(out[i] - 1.0) < 1e-12
    assert abs(out[j] - 1.0) < 1e-12
    assert abs(out.sum() - 2.0) < 1e-12


def test_random_segment_against_quadrature(rng):
    y = random_yarn(rng, 5)
    mesh = vm.voxelize(y, 0.3)
    e = 1
    lam0 = rng.dirichlet(np.ones(4))
    lam1 = rng.dirichlet(np.ones(4))
    p0 = lam0 @ mesh.nodes[mesh.tets[e]]
    p1 = lam1 @ mesh.nodes[mesh.tets[e]]
    out = np.zeros(mesh.n_nodes)
    vm.scatter_line_mass(mesh, e, p0, p1, 1.0, out)
    # 10^4-point midpoint rule on the shape functions along the segment
    ts = (np.arange(10000) + 0.5) / 10000
    acc = np.zeros(4)
    for t in ts:
        acc += mesh.barycentric(e, p0 + t * (p1 - p0))
    acc /= len(ts)
    assert np.abs(out[mesh.tets[e]] - acc).max() < 1e-9


def test_straight_yarn_interior_mass_pattern():
    # uniform-density straight yarn through one voxel row: the yarn piece in
    # every fully traversed cell is a translate of the next, so interior node
    # planes repeat the same mass pattern, and the closed-form line integral
    # must agree with dense quadrature at every node
    h = 0.1
    y = ym.YarnModel(
        np.array([[0.05 + 0.1 * k, 0.05, 0.05] for k in range(5)]), [np.arange(5)]
    )
    mesh = vm.voxelize(y, h, origin=np.zeros(3))
    m = vm.lump_mass(mesh, y)

    grid = np.rint(mesh.nodes / h).astype(int)

    def plane(k):
        sel = grid[:, 0] == k
        order = np.lexsort(grid[sel, 1:].T)
        return m[sel][order]

    assert np.abs(plane(2) - plane(3)).max() < 1e-12

    quad = np.zeros(mesh.n_nodes)
    ts = (np.arange(2000) + 0.5) / 2000
    for s, L, rho in zip(y.segments, y.rest_lengths, y.segment_density()):
        a, b = y.rest_vertices[s[0]], y.rest_vertices[s[1]]
        for t in ts:
            e, lam = mesh.locate(a + t * (b - a))
            quad[mesh.tets[e]] += lam * rho * L / len(ts)
    assert np.abs(m - quad).max() < 1e-6 * m.max()
    assert abs(m.sum() - oracles.total_mass(y)) < 1e-10 * oracles.total_mass(y)


def test_yarn_vertex_masses(rng):
    y = random_yarn(rng, 9)
    mesh = vm.voxelize(y, 0.2)
    emb = vm.embed_yarn(mesh, y)
    assert abs(emb.yarn_mass.sum() - oracles.total_mass(y)) < 1e-10 * oracles.total_mass(y)
    assert np.array_equal(emb.yarn_mass, y.vertex_mass())


# ---------------------------------------------------------------------------
# sizing, adjacency, files


def test_auto_cell_size_hits_target(rng):
    y = random_yarn(rng, 120, scale=0.4)
    h = vm.auto_cell_size(y, node_fraction=0.5)
    mesh = vm.voxelize(y, h)
    target = 0.5 * y.n_vertices
    assert 0.5 * target <= mesh.n_nodes <= 2.0 * target


def test_element_adjacency(rng):
    mesh = vm.voxelize(random_yarn(rng, 8), 0.2)
    A = vm.element_adjacency(mesh)
    assert (A != A.T).nnz == 0
    deg = np.asarray(A.sum(axis=1)).ravel()
    assert deg.max() <= 4
    assert deg.min() >= 1


def test_boundary_faces_orientation(rng):
    mesh = vm.voxelize(random_yarn(rng, 6), 0.25)
    tris = vm.boundary_faces(mesh)
    assert np.array_equal(tris, oracles.boundary_faces(mesh))
    center = mesh.nodes.mean(axis=0)
    outward = 0
    for f in tris:
        a, b, c = mesh.nodes[f]
        n = np.cross(b - a, c - a)
        if np.dot(n, (a + b + c) / 3.0 - center) > 0:
            outward += 1
    # convex-ish voxel blobs: the vast majority of normals point away
    assert outward > 0.7 * len(tris)


def test_mesh_file_roundtrip(tmp_path, rng):
    # read_mesh rebuilds the mesh from <prefix>.json alone, to the bit; the
    # .node and .ele exports hold the same nodes and tets
    y = random_yarn(rng, 10)
    mesh = vm.voxelize(y, 0.18)
    vm.lump_mass(mesh, y)
    prefix = str(tmp_path / "mesh")
    vm.write_mesh(mesh, prefix, comment="cfg deadbeef")
    assert np.array_equal(np.loadtxt(prefix + ".node", skiprows=2)[:, 1:], mesh.nodes)
    assert np.array_equal(np.loadtxt(prefix + ".ele", skiprows=2, dtype=int)[:, 1:], mesh.tets)
    os.remove(prefix + ".node")
    os.remove(prefix + ".ele")
    back = vm.read_mesh(prefix)
    assert back.cell_size == mesh.cell_size
    for name in ("nodes", "tets", "voxels", "tet_voxel", "volume", "shape_grad", "node_mass",
                 "origin"):
        a, b = getattr(back, name), getattr(mesh, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    # a workspace written with the cells' tet_voxel list still reads
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    assert "tet_voxel" not in meta
    meta["tet_voxel"] = mesh.tet_voxel.tolist()
    with open(prefix + ".json", "w") as fh:
        json.dump(meta, fh)
    assert np.array_equal(vm.read_mesh(prefix).nodes, mesh.nodes)
    # boundary obj exists and references valid vertices
    lines = open(prefix + "_boundary.obj").read().splitlines()
    nv = sum(1 for ln in lines if ln.startswith("v "))
    assert nv == mesh.n_nodes
    for ln in lines:
        if ln.startswith("f "):
            idx = [int(t) for t in ln.split()[1:]]
            assert all(1 <= i <= nv for i in idx)
