"""Tetrahedral volume mesh construction around yarn geometry.

A regular voxel grid is rasterized along the yarn so that the occupied
cells fully cover it.  One batched rasterizer, segment_cells, turns all
segments at once into unique (segment, cell) pairs; voxelize, auto_cell_size
and the yarn embedding each call it once.  voxelize keeps the largest
face-connected component of the cells, and grid_mesh, the one cells-to-mesh
builder (read_mesh rebuilds through it too), numbers their corners in
lexicographic order and splits each cell into six tetrahedra sharing its
main diagonal (faces between neighboring cells match exactly).  The yarn is
then embedded into the result: every yarn vertex gets a host element with
barycentric weights, every segment is clipped into per-element pieces, and
node masses are lumped from the yarn's line density.  Element adjacency and
the boundary surface come from one table of sorted element faces.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

_SNAP = 1e-9          # relative snap tolerance for grid-plane coincidence
_BARY_TOL = 1e-9      # containment slack for barycentric clipping


# Corner i of the unit cell sits at (i & 1, (i >> 1) & 1, (i >> 2) & 1).  Each
# of the six tetrahedra walks from corner 0 to corner 7 along the three axes
# in one order, so all share the main diagonal and neighboring cells agree
# on the split of the face between them; each quadruple is positively
# oriented.
_CELL_TETS = np.array([[0, 1, 3, 7], [0, 5, 1, 7], [0, 3, 2, 7],
                       [0, 2, 6, 7], [0, 4, 5, 7], [0, 6, 4, 7]])
_CELL_CORNERS = np.array([[i & 1, (i >> 1) & 1, (i >> 2) & 1] for i in range(8)], dtype=int)


@dataclass
class VolumeMesh:
    """Tetrahedral mesh on a voxel grid, with its element gradient operator.

    grad_op is the one linear map the element terms use: the sparse D of
    shape (3nE, nV), 12 nonzeros per element, whose row (e, j) holds
    shape_grad[e, n, j] at column tets[e, n].  D @ X for node positions X
    (nV, 3) stacks every element's F^T, so deformation gradients, node-force
    scatters (D^T), scalar Laplacians (D^T diag D) and the fit's coefficient
    Jacobian (through kron(D, I3)) are all products with D or its transpose.
    The exact Hessian sums per-element blocks into a block_pattern instead.
    """

    nodes: np.ndarray          # (nV, 3) positions
    tets: np.ndarray           # (nE, 4) node indices, positive orientation
    cell_size: float
    origin: np.ndarray         # (3,) grid origin
    voxels: np.ndarray         # (nC, 3) occupied cells, lexicographic order
    tet_voxel: np.ndarray      # (nE,) index into voxels
    volume: np.ndarray = field(default=None)        # (nE,) rest volumes
    jacobian: np.ndarray = field(default=None)      # (nE, 3, 3) rest edge matrix
    shape_grad: np.ndarray = field(default=None)    # (nE, 4, 3) shape function gradients
    grad_op: sp.csr_matrix = field(default=None)    # (3nE, nV) D: positions -> stacked F^T
    node_mass: np.ndarray = field(default=None)     # (nV,) lumped masses

    def __post_init__(self):
        if self.volume is None:
            self._build_operators()
        self._grad_op_t = self.grad_op.T.tocsr()
        self._patterns = {}     # block_pattern's, keyed by DOF set
        # occupied cells by sorted integer key, and the elements of each cell
        # ascending, padded with n_elements; the empty last row is cell -1's
        self._lo = self.voxels.min(axis=0)
        self._dims = self.voxels.max(axis=0) - self._lo + 1
        keys = np.ravel_multi_index((self.voxels - self._lo).T, self._dims)
        self._key_order = np.argsort(keys)
        self._keys = keys[self._key_order]
        order = np.argsort(self.tet_voxel, kind="stable")
        count = np.bincount(self.tet_voxel, minlength=len(self.voxels) + 1)
        slot = np.arange(len(order)) - (np.cumsum(count) - count)[self.tet_voxel[order]]
        self._voxel_tets = np.full((len(count), count.max()), self.n_elements)
        self._voxel_tets[self.tet_voxel[order], slot] = order

    def _build_operators(self):
        x = self.nodes[self.tets]                      # (nE, 4, 3)
        Dm = np.swapaxes(x[:, 1:] - x[:, :1], 1, 2)    # (nE, 3, 3) edge columns
        det = np.linalg.det(Dm)
        if np.any(det <= 0.0):
            raise ValueError("non-positive element volume")
        self.jacobian = Dm
        self.volume = det / 6.0
        Dminv = np.linalg.inv(Dm)
        G = np.empty((len(det), 4, 3))
        G[:, 1:] = Dminv                               # shape gradient rows
        G[:, 0] = -Dminv.sum(axis=1)
        self.shape_grad = G
        # row (e, j) holds G[e, n, j] at column tets[e, n]: F[e, i, j] is
        # sum_n x[tets[e, n], i] G[e, n, j]
        nE = len(det)
        self.grad_op = sp.csr_matrix(
            (np.swapaxes(G, 1, 2).reshape(-1), np.repeat(self.tets, 3, axis=0).reshape(-1),
             np.arange(0, 12 * nE + 1, 4)), shape=(3 * nE, self.n_nodes))

    @functools.cached_property
    def dof_grad_op(self):
        """kron(D, I3), (9nE, 3nV): node-major x, y, z DOFs to the row-major
        vec(F^T) of every element."""
        return sp.kron(self.grad_op, sp.identity(3), format="csr")

    def block_pattern(self, dofs=None):
        """Where per-element (12, 12) node-major DOF blocks sum into the CSC
        pattern of their dofs x dofs block (every DOF for None), kept per
        DOF set.

        Returns (slot, keep, indices, indptr): entry keep[k] of the flat
        (nE, 12, 12) block stack adds into data[slot[k]]; entries with a DOF
        outside `dofs` are left out.  dofs must be distinct.
        """
        key = None if dofs is None else np.asarray(dofs, dtype=np.int64).tobytes()
        pattern = self._patterns.get(key)
        if pattern is None:
            nd = 3 * self.n_nodes
            loc = np.arange(nd)
            if dofs is not None:
                nd = len(dofs)
                loc = np.full(3 * self.n_nodes, -1)
                loc[dofs] = np.arange(nd)
            ed = loc[3 * self.tets[:, :, None] + np.arange(3)].reshape(-1, 12, 1)
            rows = np.broadcast_to(ed, (len(ed), 12, 12)).reshape(-1)
            cols = np.broadcast_to(np.swapaxes(ed, 1, 2), (len(ed), 12, 12)).reshape(-1)
            keep = np.flatnonzero((rows >= 0) & (cols >= 0))
            # column-major keys sort into CSC order
            keys, slot = np.unique(cols[keep] * nd + rows[keep], return_inverse=True)
            indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // nd, minlength=nd))])
            pattern = self._patterns[key] = (slot, keep, keys % nd, indptr)
        return pattern

    # -- basic queries ----------------------------------------------------

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.tets.shape[0]

    def deformation_gradients(self, x):
        """Per-element F for node positions x ((nV, 3) or flat), (nE, 3, 3)."""
        X = np.asarray(x, dtype=float).reshape(-1, 3)
        return (self.grad_op @ X).reshape(-1, 3, 3).transpose(0, 2, 1)

    def scatter(self, P):
        """Node vectors (nV, 3) sum_e P_e G_e^T of per-element matrices P
        (nE, 3, 3): the transpose of deformation_gradients, so 2 V_e c_e P_e
        gives the node forces of an energy with dE/dF_e = 2 V_e c_e P_e."""
        return self._grad_op_t @ P.transpose(0, 2, 1).reshape(-1, 3)

    def laplacian(self, c):
        """Scalar (nV, nV) matrix sum_e c_e G_e G_e^T, i.e. D^T diag(c) D
        with each c_e repeated over the element's three rows."""
        D = self.grad_op
        return self._grad_op_t @ sp.csr_matrix(
            (D.data * np.repeat(c, 12), D.indices, D.indptr), shape=D.shape)

    def voxel_index(self, cells):
        """Index into voxels of integer cells (..., 3); -1 where unoccupied."""
        rel = cells - self._lo
        inside = np.all((rel >= 0) & (rel < self._dims), axis=-1)
        keys = np.ravel_multi_index(np.moveaxis(rel, -1, 0), self._dims, mode="clip")
        pos = np.searchsorted(self._keys, keys).clip(max=len(self._keys) - 1)
        return np.where(inside & (self._keys[pos] == keys), self._key_order[pos], -1)

    def candidate_elements(self, points):
        """Candidate elements (B, K) of points (B, 3), ascending per row.

        They are the elements of the cell containing each point and, where
        the point snaps to grid planes, of the cells across them.  Unused
        slots hold n_elements, so they sort last.
        """
        cells, touch = _touch_cells((points - self.origin) / self.cell_size)
        vox = self.voxel_index(cells)
        vox[~touch] = -1
        return np.sort(self._voxel_tets[vox].reshape(len(points), -1), axis=1)

    def barycentric(self, elems, points):
        """Barycentric coordinates (..., 4) of points (..., 3) in elems (...)."""
        x0 = self.nodes[self.tets[elems, 0]]
        xi = np.linalg.solve(self.jacobian[elems], (points - x0)[..., None])[..., 0]
        return np.concatenate([1.0 - xi.sum(axis=-1, keepdims=True), xi], axis=-1)

    def locate(self, points):
        """Host elements (...) and barycentric weights (..., 4) of points (..., 3).

        Candidates are tried in ascending element order, so ties on shared
        faces go to the lowest element index; the first candidate with all
        weights >= -1e-12 wins, else >= -1e-9, else >= -1e-6.  Raises if a
        point is outside the mesh.
        """
        points = np.asarray(points, dtype=float)
        flat = points.reshape(-1, 3)
        cand = self.candidate_elements(flat)
        row, col = np.nonzero(cand < self.n_elements)
        lam = np.full(cand.shape + (4,), np.nan)
        lam[row, col] = self.barycentric(cand[row, col], flat[row])
        pick = np.full(len(flat), -1)
        for tol in (1e-12, 1e-9, 1e-6):
            inside = np.all(lam >= -tol, axis=2)
            pick = np.where((pick < 0) & inside.any(axis=1), inside.argmax(axis=1), pick)
        if np.any(pick < 0):
            raise ValueError(f"point {flat[np.argmax(pick < 0)]} lies outside the mesh")
        rows = np.arange(len(flat))
        return (cand[rows, pick].reshape(points.shape[:-1]),
                lam[rows, pick].reshape(points.shape[:-1] + (4,)))


# ---------------------------------------------------------------------------
# voxel rasterization


def _touch_cells(g):
    """Cells (B, 8, 3) around grid-space points g (B, 3), and which count.

    The cell holding each point always counts; where the point snaps to
    grid planes, so do the cells across them (up to 8 at a corner).
    """
    k = np.rint(g)
    on_plane = np.abs(g - k) < _SNAP * np.maximum(1.0, np.abs(g))
    base = np.where(on_plane, k, np.floor(g)).astype(int)
    step = -_CELL_CORNERS                       # 0 or -1 along each axis
    return base[:, None] + step, np.all(on_plane[:, None] | (step == 0), axis=2)


def segment_cells(p0, p1, cell_size, origin):
    """Unique (segment, cell) pairs of segments p0 -> p1 ((S, 3) each).

    Crossing parameters along each family of grid planes split a segment
    into pieces; the cell of each piece midpoint is occupied.  Wherever the
    segment touches a grid plane exactly (corners and edges included), all
    cells incident to the touch point are occupied as well, so two cells
    never end up connected only through a corner.  Returns segment indices
    (P,) and cells (P, 3), ordered by segment, then cell.
    """
    h = float(cell_size)
    a = (np.asarray(p0, dtype=float) - origin) / h
    b = (np.asarray(p1, dtype=float) - origin) / h
    d = b - a
    # every grid plane k in [floor(lo), ceil(hi)] of every moving axis
    s_ax, ax = np.nonzero(np.abs(d) >= 1e-15)
    k0 = np.floor(np.minimum(a, b)[s_ax, ax]).astype(int)
    n = np.ceil(np.maximum(a, b)[s_ax, ax]).astype(int) - k0 + 1
    row = np.repeat(np.arange(len(n)), n)
    k = k0[row] + np.arange(len(row)) - np.repeat(np.cumsum(n) - n, n)
    t = (k - a[s_ax, ax][row]) / d[s_ax, ax][row]
    inner = (t > 1e-12) & (t < 1.0 - 1e-12)
    # each segment's distinct parameters, 0 and 1 included, in order
    S = len(a)
    seg = np.concatenate([np.arange(S), np.arange(S), s_ax[row][inner]])
    t = np.concatenate([np.zeros(S), np.ones(S), t[inner]])
    order = np.lexsort((t, seg))
    seg, t = seg[order], t[order]
    new = np.ones(len(t), dtype=bool)
    new[1:] = (seg[1:] != seg[:-1]) | (t[1:] != t[:-1])
    seg, t = seg[new], t[new]
    # midpoint cells of the pieces between them, then the cells touched at
    # each parameter
    piece = np.flatnonzero((seg[1:] == seg[:-1]) & ~(t[1:] - t[:-1] < 1e-12))
    ps = seg[piece]
    mid = a[ps] + (0.5 * (t[piece] + t[piece + 1]))[:, None] * d[ps]
    touch, hit = _touch_cells(a[seg] + t[:, None] * d[seg])
    seg = np.concatenate([ps, np.repeat(seg, 8)[hit.reshape(-1)]])
    cells = np.concatenate([np.floor(mid).astype(int), touch[hit]])
    # unique pairs through one integer key per (segment, cell)
    lo = cells.min(axis=0)
    dims = cells.max(axis=0) - lo + 1
    key = np.unique(seg * np.prod(dims) + np.ravel_multi_index((cells - lo).T, dims))
    seg, flat = np.divmod(key, np.prod(dims))
    return seg, np.stack(np.unravel_index(flat, dims), axis=1) + lo


def _largest_component(cells):
    """Mask of the largest 6-connected component of sorted unique cells
    (C, 3); ties go to the component holding the first cell."""
    lo = cells.min(axis=0) - 1
    dims = cells.max(axis=0) - lo + 2
    keys = np.ravel_multi_index((cells - lo).T, dims)   # ascending
    stride = np.ravel_multi_index(np.eye(3, dtype=int).T, dims)
    nb = keys[:, None] + stride
    j = np.searchsorted(keys, nb).clip(max=len(keys) - 1)
    i, ax = np.nonzero(keys[j] == nb)
    graph = sp.coo_matrix((np.ones(len(i)), (i, j[i, ax])), shape=(len(keys),) * 2)
    _, label = connected_components(graph, directed=False)
    size = np.bincount(label)
    # the first label of the largest size in cell order holds the smallest cell
    return label == label[np.argmax(size[label] == size.max())]


def _occupied(yarn, h, origin=None):
    """Origin (a cell below the yarn unless given), the sorted unique cells
    of the yarn's (segment, cell) pairs, the mask of their largest
    face-connected component, and each pair's segment and cell index."""
    rest, segs = yarn.rest_vertices, yarn.segments
    if origin is None:
        origin = np.floor(rest.min(axis=0) / h - 1.0) * h
    origin = np.asarray(origin, dtype=float)
    seg, cells = segment_cells(rest[segs[:, 0]], rest[segs[:, 1]], h, origin)
    covered, where = np.unique(cells, axis=0, return_inverse=True)
    return origin, covered, _largest_component(covered), seg, where.reshape(-1)


def _corners(cells):
    """Sorted unique grid corners (N, 3) of cells (C, 3), and the index of
    each cell's eight corners into them, (8C,)."""
    return np.unique((cells[:, None] + _CELL_CORNERS).reshape(-1, 3), axis=0,
                     return_inverse=True)


def grid_mesh(cells, cell_size, origin):
    """The mesh of sorted unique cells (C, 3): nodes at origin + corner *
    cell_size in lexicographic corner order, six tetrahedra per cell."""
    grid, ids = _corners(cells)
    return VolumeMesh(nodes=origin + grid * float(cell_size),
                      tets=ids.reshape(len(cells), 8)[:, _CELL_TETS].reshape(-1, 4),
                      cell_size=float(cell_size), origin=origin, voxels=cells,
                      tet_voxel=np.repeat(np.arange(len(cells)), 6))


def voxelize(yarn, cell_size, origin=None):
    """Rasterize yarn segments into a voxel grid and split into tetrahedra.

    Every point of every segment ends up inside an occupied cell.  Cells
    outside the largest face-connected component are dropped; if any yarn
    passes through a dropped cell the grid is unusable at this resolution
    and an error is raised.
    """
    if not np.isfinite(cell_size) or cell_size <= 0.0:
        raise ValueError("cell size must be positive")
    # YarnModel rejects zero-length rest segments
    origin, cells, keep, seg, where = _occupied(yarn, cell_size, origin)
    outside = ~keep[where]
    if outside.any():
        raise ValueError(
            f"segment {seg[np.argmax(outside)]} occupies cells outside the largest "
            "connected component; refine the cell size or split the yarn input"
        )
    return grid_mesh(cells[keep], cell_size, origin)


def auto_cell_size(yarn, node_fraction=0.5, iters=24):
    """Cell size whose mesh node count lands near node_fraction * nY.

    Larger cells mean fewer nodes, so a bisection on the cell size over a
    geometric bracket homes in on the target count.
    """
    rest = yarn.rest_vertices
    target = max(8, int(node_fraction * len(rest)))

    def count(h):
        _, cells, keep = _occupied(yarn, h)[:3]
        return len(_corners(cells[keep])[0])

    span = np.linalg.norm(rest.max(axis=0) - rest.min(axis=0))
    hi = span
    lo = span / 256.0
    while count(lo) < target and lo > span / 4096.0:
        lo *= 0.5
    best = (lo, count(lo))
    for _ in range(iters):
        mid = np.sqrt(lo * hi)
        n = count(mid)
        if abs(n - target) < abs(best[1] - target):
            best = (mid, n)
        if n > target:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.01:
            break
    return float(best[0])


# ---------------------------------------------------------------------------
# yarn embedding


@dataclass
class YarnEmbedding:
    """Geometric coupling between a yarn model and its volume mesh."""

    host_elem: np.ndarray       # (nY,) element of each yarn vertex
    host_weights: np.ndarray    # (nY, 4) barycentric weights
    interp: sp.csr_matrix       # (nY, nV) scalar interpolation matrix
    piece_elem: np.ndarray      # (nP,) element of each segment piece
    piece_seg: np.ndarray       # (nP,) parent segment of each piece
    piece_t0: np.ndarray        # (nP,) parameter range of the piece
    piece_t1: np.ndarray
    yarn_mass: np.ndarray       # (nY,) lumped yarn vertex masses


def _segment_intervals(mesh, yarn):
    """Parameter interval of every segment inside each of its candidates.

    Candidates are the elements of the cells a segment crosses.  Returns
    (segment, element, t0, t1) of the non-empty intervals, ordered by
    segment, then element.
    """
    rest, segs = yarn.rest_vertices, yarn.segments
    seg, cells = segment_cells(rest[segs[:, 0]], rest[segs[:, 1]], mesh.cell_size, mesh.origin)
    tets = mesh._voxel_tets[mesh.voxel_index(cells)]
    key = np.unique((seg[:, None] * mesh.n_elements + tets)[tets < mesh.n_elements])
    seg, elem = np.divmod(key, mesh.n_elements)
    la = mesh.barycentric(elem, rest[segs[seg, 0]])
    lb = mesh.barycentric(elem, rest[segs[seg, 1]])
    t0, t1 = np.zeros(len(key)), np.ones(len(key))
    ok = np.ones(len(key), dtype=bool)
    for k in range(4):
        dl = lb[:, k] - la[:, k]
        flat = np.abs(dl) < 1e-14
        ok &= ~flat | (la[:, k] >= -_BARY_TOL)
        with np.errstate(divide="ignore", invalid="ignore"):
            tc = (-_BARY_TOL - la[:, k]) / dl
        # strict comparisons keep the earlier bound on ties, like max/min
        t0 = np.where(~flat & (dl > 0.0) & (tc > t0), tc, t0)
        t1 = np.where(~flat & (dl < 0.0) & (tc < t1), tc, t1)
    keep = ok & (t1 - t0 > 1e-12)
    return seg[keep], elem[keep], t0[keep], t1[keep]


def embed_yarn(mesh, yarn):
    """Host elements, interpolation weights, and segment pieces for a yarn.

    Each yarn vertex must land in exactly one element (face ties break to
    the lowest element index), and each segment is cut at element borders
    so that line integrals can be evaluated element by element.
    """
    rest = yarn.rest_vertices
    n_yarn = len(rest)
    host, weights = mesh.locate(rest)
    weights = np.clip(weights, 0.0, 1.0)
    weights /= weights.sum(axis=1, keepdims=True)
    rows = np.repeat(np.arange(n_yarn), 4)
    cols = mesh.tets[host].reshape(-1)
    interp = sp.csr_matrix((weights.reshape(-1), (rows, cols)), shape=(n_yarn, mesh.n_nodes))

    seg, elem, t0, t1 = _segment_intervals(mesh, yarn)
    bounds = np.searchsorted(seg, np.arange(yarn.n_segments + 1)).tolist()
    elem, t0, t1 = elem.tolist(), t0.tolist(), t1.tolist()
    pieces = []
    for si, (a, b) in enumerate(yarn.segments):
        # cut [0, 1] at every interval end; each piece goes to the lowest
        # element whose interval holds its midpoint
        lo, hi = bounds[si], bounds[si + 1]
        intervals = list(zip(t0[lo:hi], t1[lo:hi], elem[lo:hi]))
        breaks = sorted({0.0, 1.0} | {min(max(t, 0.0), 1.0) for t in t0[lo:hi] + t1[lo:hi]})
        for u0, u1 in zip(breaks[:-1], breaks[1:]):
            if u1 - u0 < 1e-12:
                continue
            mid = 0.5 * (u0 + u1)
            owners = [e for (v0, v1, e) in intervals if v0 - 1e-9 <= mid <= v1 + 1e-9]
            if not owners:
                owners = [int(mesh.locate(rest[a] + mid * (rest[b] - rest[a]))[0])]
            pieces.append((min(owners), si, u0, u1))

    pe, ps, pa, pb = map(np.array, zip(*pieces))
    return YarnEmbedding(host_elem=host, host_weights=weights, interp=interp, piece_elem=pe,
                         piece_seg=ps, piece_t0=pa, piece_t1=pb, yarn_mass=yarn.vertex_mass())


def scatter_line_mass(mesh, elems, p0, p1, mass, out):
    """Add the lumped shares of straight mass-carrying pieces to their nodes.

    The shape functions are linear along a piece, so the line integral of
    each one is the average of its endpoint values times the piece mass.
    Pieces (elems (...), ends (..., 3), mass (...)) are added in order.
    """
    lam = mesh.barycentric(elems, p0) + mesh.barycentric(elems, p1)
    np.add.at(out, mesh.tets[elems], (np.asarray(mass) * 0.5)[..., None] * lam)


def lump_mass(mesh, yarn, embedding=None):
    """Lumped node masses from the yarn line density.

    Every segment piece hands its mass to the host element nodes through
    the exact line integral of the shape functions, so the total node mass
    equals the total yarn mass to roundoff.
    """
    if embedding is None:
        embedding = embed_yarn(mesh, yarn)
    rest = yarn.rest_vertices
    segs = yarn.segments
    seg_len = np.linalg.norm(rest[segs[:, 1]] - rest[segs[:, 0]], axis=1)
    seg_rho = yarn.segment_density()
    si, t0, t1 = embedding.piece_seg, embedding.piece_t0, embedding.piece_t1
    a = rest[segs[si, 0]]
    d = rest[segs[si, 1]] - a
    m = seg_rho[si] * seg_len[si] * (t1 - t0)
    masses = np.zeros(mesh.n_nodes)
    scatter_line_mass(mesh, embedding.piece_elem, a + t0[:, None] * d,
                      a + t1[:, None] * d, m, masses)
    mesh.node_mass = masses
    return masses


# ---------------------------------------------------------------------------
# element adjacency (used by the harmonic coefficient basis and the target fill)


def _face_table(mesh):
    """Every element face (face k of a tet drops its node k), (4nE, 3), and
    the first index, inverse and count of each distinct sorted face."""
    faces = mesh.tets[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]].reshape(-1, 3)
    _, first, inverse, count = np.unique(np.sort(faces, axis=1), axis=0, return_index=True,
                                         return_inverse=True, return_counts=True)
    return faces, first, inverse.reshape(-1), count


def element_adjacency(mesh):
    """Sparse symmetric adjacency of elements sharing a triangular face."""
    inverse = _face_table(mesh)[2]
    order = np.argsort(inverse, kind="stable")
    pair = np.flatnonzero(inverse[order[1:]] == inverse[order[:-1]])
    i, j = order[pair] // 4, order[pair + 1] // 4
    A = sp.coo_matrix((np.ones(len(pair)), (i, j)), shape=(mesh.n_elements,) * 2)
    return (A + A.T).tocsr()


def boundary_faces(mesh):
    """Outward-oriented triangles of the mesh boundary, in sorted order."""
    # boundary faces belong to one tet
    faces, first, _, count = _face_table(mesh)
    idx = first[count == 1]
    face = faces[idx]
    a, b, c = (mesh.nodes[face[:, j]] for j in range(3))
    inner = mesh.nodes[mesh.tets[idx // 4, idx % 4]]
    flip = np.einsum("ij,ij->i", np.cross(b - a, c - a), inner - a) > 0.0
    face[flip] = face[flip][:, [0, 2, 1]]
    return face[np.lexsort(face.T[::-1])]


# ---------------------------------------------------------------------------
# mesh files


def write_mesh(mesh, prefix, comment=None):
    """Write <prefix>.json, which read_mesh rebuilds the mesh from, and the
    exports <prefix>.node, <prefix>.ele and <prefix>_boundary.obj."""
    head = f"# {comment}\n" if comment else ""
    # one % format per file, as in write_obj
    n, m = mesh.n_nodes, mesh.n_elements
    with open(f"{prefix}.node", "w") as fh:
        fh.write(head + f"{n} 3 0 0\n" + "%d %.17g %.17g %.17g\n" * n % tuple(
            np.c_[np.arange(n), mesh.nodes].ravel().tolist()))
    with open(f"{prefix}.ele", "w") as fh:
        fh.write(head + f"{m} 4 0\n" + "%d %d %d %d %d\n" * m % tuple(
            np.c_[np.arange(m), mesh.tets].ravel().tolist()))
    meta = {
        "cell_size": mesh.cell_size,
        "origin": [float(v) for v in mesh.origin],
        "voxels": [[int(v) for v in c] for c in mesh.voxels],
    }
    if mesh.node_mass is not None:
        meta["node_mass"] = [float(v) for v in mesh.node_mass]
    if comment:
        meta["comment"] = comment
    with open(f"{prefix}.json", "w") as fh:
        json.dump(meta, fh)
    write_obj(f"{prefix}_boundary.obj", mesh.nodes, faces=boundary_faces(mesh), comment=comment)


def write_obj(path, vertices, faces=None, lines=None, comment=None):
    """Write an OBJ file: vertices, then triangles (0-based rows) and
    polylines (0-based index runs), each block in one formatted write."""
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        # one % format per block; %.17g and %d print as the f-string specs do
        fh.write("v %.17g %.17g %.17g\n" * len(vertices) % tuple(np.ravel(vertices).tolist()))
        if faces is not None:
            fh.write("f %d %d %d\n" * len(faces) % tuple((np.ravel(faces) + 1).tolist()))
        if lines is not None and len(lines):
            fh.write("".join("l " + " ".join(["%d"] * len(run)) + "\n" for run in lines)
                     % tuple((np.concatenate(lines).astype(int) + 1).tolist()))


def read_mesh(prefix):
    """Rebuild a mesh written by write_mesh from its cells, cell size,
    origin and node masses in <prefix>.json."""
    with open(f"{prefix}.json") as fh:
        meta = json.load(fh)
    mesh = grid_mesh(np.asarray(meta["voxels"], dtype=int), meta["cell_size"],
                     np.asarray(meta["origin"], dtype=float))
    if "node_mass" in meta:
        mesh.node_mass = np.asarray(meta["node_mass"], dtype=float)
    return mesh
