"""Reference versions of code that src/ computes in batches or prunes, and
the library that only tests call.

The SVD here is LAPACK's, which the squared-F factorization in src/ must
match; svd_rv and project_so3 take one matrix.  The rasterizer, voxelizer,
face adjacency and embedding functions do one segment, cell, face, point or
piece at a time, with Python sets, dicts and a breadth-first search, as the
batched code they check once did, so tests can require equal bits.  The
rotation helpers (skew, exponential, logarithm, minimal rotation) take one
vector or matrix.  The segment polar factors come from the material-frame
path that src/ replaced by a closed form: rest normals by parallel
transport, deformed normals, each segment's gradient through a frame
inverse, and its polar factors by SVD.  They and the element targets are
built one segment or element at a time.  Their norms and dots go through
BLAS, so the batched code matches them to equal bits only where it does the
same arithmetic (the log away from pi), and to a few ulps elsewhere.
The volume projection solves both clamp patterns on every row, which the
pruned solve in src/ must reproduce.  The component-mode basis is filled
one column at a time from Python lists.  The element operators are the dense
per-element (9, 12) maps that the sparse gradient operator replaced.  The
aggregated-Jacobi refinement settles divergence, the best iterate and the
residual history inside its sweep loop, and the OBJ writer formats one
coordinate or index at a time.  The objectives, energies and single-element
functions serve as oracles for the solvers.  The collider functions take a
list of colliders, and the stepping loop keeps its state in a mutable
SimState that makes each polished step's prediction and velocity twice, as
the loop that pdsolver.simulate_mesh replaced did.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from volknit import material as mat
from volknit import pdsolver
from volknit import volmesh as vm
from volknit import yarn_model as ym


# ---------------------------------------------------------------------------
# voxel rasterization and mesh adjacency


def segment_cells(p0, p1, cell_size, origin):
    """Cells traversed by one segment, including corner-touch padding."""
    h = float(cell_size)
    a = (np.asarray(p0, dtype=float) - origin) / h
    b = (np.asarray(p1, dtype=float) - origin) / h
    d = b - a
    ts = {0.0, 1.0}
    for ax in range(3):
        if abs(d[ax]) < 1e-15:
            continue
        lo, hi = sorted((a[ax], b[ax]))
        for k in range(int(np.floor(lo)), int(np.ceil(hi)) + 1):
            t = (k - a[ax]) / d[ax]
            if 1e-12 < t < 1.0 - 1e-12:
                ts.add(float(t))
    ts = sorted(ts)
    cells = set()
    for t0, t1 in zip(ts[:-1], ts[1:]):
        if t1 - t0 < 1e-12:
            continue
        mid = a + 0.5 * (t0 + t1) * d
        cells.add(tuple(np.floor(mid).astype(int)))
    for t in ts:
        q = a + t * d
        k = np.rint(q)
        on_plane = np.abs(q - k) < vm._SNAP * np.maximum(1.0, np.abs(q))
        axes = np.flatnonzero(on_plane)
        base = np.where(on_plane, k, np.floor(q)).astype(int)
        touch = [base]
        for ax in axes:
            touch = touch + [c - np.eye(3, dtype=int)[ax] for c in touch]
        for c in touch:
            cells.add(tuple(int(v) for v in c))
    return cells


def connected_components(cells):
    """6-connected components of a set of integer cells, largest first; ties
    go to the component holding the lexicographically smallest cell."""
    remaining = set(cells)
    comps = []
    while remaining:
        seed = next(iter(remaining))
        comp = {seed}
        remaining.discard(seed)
        frontier = [seed]
        while frontier:
            c = frontier.pop()
            for ax in range(3):
                for dlt in (-1, 1):
                    n = list(c)
                    n[ax] += dlt
                    n = tuple(n)
                    if n in remaining:
                        remaining.discard(n)
                        comp.add(n)
                        frontier.append(n)
        comps.append(comp)
    comps.sort(key=lambda c: (-len(c), sorted(c)[0]))
    return comps


def cell_tets():
    """The six positively oriented tetrahedra of the unit cell, one per axis
    order of the walk from corner 0 to corner 7."""
    corners = [np.array([i & 1, (i >> 1) & 1, (i >> 2) & 1]) for i in range(8)]
    index = {tuple(c): i for i, c in enumerate(corners)}
    tets = []
    for perm in itertools.permutations(range(3)):
        walk = np.cumsum(np.vstack([np.zeros(3, dtype=int), np.eye(3, dtype=int)[list(perm)]]),
                         axis=0)
        quad = [index[tuple(p)] for p in walk]
        if np.linalg.det((walk[1:] - walk[0]).T.astype(float)) < 0.0:
            quad[1], quad[2] = quad[2], quad[1]
        tets.append(tuple(quad))
    return tets


def voxelize(yarn, cell_size, origin=None):
    """Mesh arrays (nodes, tets, voxels, tet_voxel), one segment
    and one cell at a time, with corners numbered through a dict."""
    rest = yarn.rest_vertices
    if origin is None:
        origin = np.floor(rest.min(axis=0) / cell_size - 1.0) * cell_size
    origin = np.asarray(origin, dtype=float)
    seg_cells = [segment_cells(rest[a], rest[b], cell_size, origin) for a, b in yarn.segments]
    keep = connected_components(set().union(*seg_cells))[0]
    for i, cs in enumerate(seg_cells):
        if not cs <= keep:
            raise ValueError(
                f"segment {i} occupies cells outside the largest connected component; "
                "refine the cell size or split the yarn input"
            )
    cells = np.array(sorted(keep), dtype=int)
    corner_ids = {}
    for c in cells:
        for off in vm._CELL_CORNERS:
            corner_ids.setdefault(tuple(c + off), None)
    grid = np.array(sorted(corner_ids), dtype=int)
    for i, g in enumerate(grid):
        corner_ids[tuple(g)] = i
    tets = np.empty((len(cells) * 6, 4), dtype=int)
    for ci, c in enumerate(cells):
        ids = [corner_ids[tuple(c + off)] for off in vm._CELL_CORNERS]
        for ti, quad in enumerate(cell_tets()):
            tets[6 * ci + ti] = [ids[q] for q in quad]
    nodes = origin + grid * float(cell_size)
    return nodes, tets, cells, np.repeat(np.arange(len(cells)), 6)


def element_adjacency(mesh):
    """Adjacency of elements sharing a face, through a dict of faces."""
    faces = {}
    pairs = []
    for e, t in enumerate(mesh.tets):
        for f in itertools.combinations(sorted(t), 3):
            other = faces.pop(f, None)
            if other is None:
                faces[f] = e
            else:
                pairs.append((other, e))
    if not pairs:
        return sp.csr_matrix((mesh.n_elements, mesh.n_elements))
    pairs = np.array(pairs)
    A = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                      shape=(mesh.n_elements, mesh.n_elements))
    return (A + A.T).tocsr()


# ---------------------------------------------------------------------------
# yarn embedding


def candidate_elements(mesh, p):
    """Elements of the cell containing p and of plane-adjacent cells."""
    lookup = {tuple(v): i for i, v in enumerate(mesh.voxels)}
    voxel_tets = {}
    for e, c in enumerate(mesh.tet_voxel):
        voxel_tets.setdefault(int(c), []).append(e)
    g = (np.asarray(p, dtype=float) - mesh.origin) / mesh.cell_size
    k = np.rint(g)
    on_plane = np.abs(g - k) < vm._SNAP * np.maximum(1.0, np.abs(g))
    base = np.where(on_plane, k, np.floor(g)).astype(int)
    cells = [base]
    for ax in range(3):
        if on_plane[ax]:
            cells = cells + [c - np.eye(3, dtype=int)[ax] for c in cells]
    out = []
    for c in cells:
        out.extend(voxel_tets.get(lookup.get(tuple(c), -1), []))
    return sorted(set(out))


def barycentric(mesh, elem, p):
    x0 = mesh.nodes[mesh.tets[elem, 0]]
    xi = np.linalg.solve(mesh.jacobian[elem], np.asarray(p, dtype=float) - x0)
    return np.concatenate([[1.0 - xi.sum()], xi])


def locate(mesh, p):
    """First candidate inside p at the smallest slack of the ladder."""
    for tol in (1e-12, 1e-9, 1e-6):
        for e in candidate_elements(mesh, p):
            lam = barycentric(mesh, e, p)
            if np.all(lam >= -tol):
                return e, lam
    raise ValueError(f"point {p} lies outside the mesh")


def clip_segment(mesh, p0, p1, candidates):
    """Partition of [0, 1] into per-element pieces along one segment."""
    intervals = []
    for e in candidates:
        la = barycentric(mesh, e, p0)
        lb = barycentric(mesh, e, p1)
        t0, t1 = 0.0, 1.0
        ok = True
        for k in range(4):
            dl = lb[k] - la[k]
            if abs(dl) < 1e-14:
                if la[k] < -vm._BARY_TOL:
                    ok = False
                    break
                continue
            tc = (-vm._BARY_TOL - la[k]) / dl
            if dl > 0.0:
                t0 = max(t0, tc)
            else:
                t1 = min(t1, tc)
        if ok and t1 - t0 > 1e-12:
            intervals.append((t0, t1, e))
    breaks = {0.0, 1.0}
    for t0, t1, _ in intervals:
        breaks.add(min(max(t0, 0.0), 1.0))
        breaks.add(min(max(t1, 0.0), 1.0))
    breaks = sorted(breaks)
    pieces = []
    for u0, u1 in zip(breaks[:-1], breaks[1:]):
        if u1 - u0 < 1e-12:
            continue
        mid = 0.5 * (u0 + u1)
        owners = [e for (t0, t1, e) in intervals if t0 - 1e-9 <= mid <= t1 + 1e-9]
        if not owners:
            owners = [locate(mesh, p0 + mid * (p1 - p0))[0]]
        pieces.append((u0, u1, min(owners)))
    return pieces


def embed_yarn(mesh, yarn):
    rest = yarn.rest_vertices
    n_yarn = len(rest)
    host = np.empty(n_yarn, dtype=int)
    weights = np.empty((n_yarn, 4))
    for v in range(n_yarn):
        host[v], weights[v] = locate(mesh, rest[v])
    w = np.clip(weights, 0.0, 1.0)
    w /= w.sum(axis=1, keepdims=True)
    weights = w
    rows = np.repeat(np.arange(n_yarn), 4)
    cols = mesh.tets[host].reshape(-1)
    interp = sp.csr_matrix((weights.reshape(-1), (rows, cols)), shape=(n_yarn, mesh.n_nodes))

    lookup = {tuple(v): i for i, v in enumerate(mesh.voxels)}
    pc_e, pc_s, pc_a, pc_b = [], [], [], []
    for si, s in enumerate(yarn.segments):
        cells = segment_cells(rest[s[0]], rest[s[1]], mesh.cell_size, mesh.origin)
        cand = [e for c in cells for e in np.flatnonzero(mesh.tet_voxel == lookup.get(c, -1))]
        for u0, u1, e in clip_segment(mesh, rest[s[0]], rest[s[1]], sorted(set(cand))):
            pc_e.append(e)
            pc_s.append(si)
            pc_a.append(u0)
            pc_b.append(u1)

    seg_len = np.linalg.norm(rest[yarn.segments[:, 1]] - rest[yarn.segments[:, 0]], axis=1)
    seg_rho = yarn.segment_density()
    ym = np.zeros(n_yarn)
    np.add.at(ym, yarn.segments[:, 0], 0.5 * seg_len * seg_rho)
    np.add.at(ym, yarn.segments[:, 1], 0.5 * seg_len * seg_rho)
    return vm.YarnEmbedding(
        host_elem=host, host_weights=weights, interp=interp,
        piece_elem=np.asarray(pc_e, dtype=int), piece_seg=np.asarray(pc_s, dtype=int),
        piece_t0=np.asarray(pc_a), piece_t1=np.asarray(pc_b), yarn_mass=ym,
    )


def total_mass(yarn):
    """The yarn's mass: rest length times linear density, summed."""
    return float(np.dot(yarn.rest_lengths, yarn.segment_density()))


def lump_mass(mesh, yarn, embedding):
    """Node masses, one piece at a time."""
    rest = yarn.rest_vertices
    segs = yarn.segments
    seg_len = np.linalg.norm(rest[segs[:, 1]] - rest[segs[:, 0]], axis=1)
    seg_rho = yarn.segment_density()
    masses = np.zeros(mesh.n_nodes)
    for e, si, t0, t1 in zip(
        embedding.piece_elem, embedding.piece_seg, embedding.piece_t0, embedding.piece_t1
    ):
        a = rest[segs[si, 0]]
        d = rest[segs[si, 1]] - rest[segs[si, 0]]
        m = seg_rho[si] * seg_len[si] * (t1 - t0)
        la = barycentric(mesh, e, a + t0 * d)
        lb = barycentric(mesh, e, a + t1 * d)
        masses[mesh.tets[e]] += m * 0.5 * (la + lb)
    return masses


# ---------------------------------------------------------------------------
# mesh boundary


def boundary_faces(mesh):
    counts = {}
    for e, t in enumerate(mesh.tets):
        for k in range(4):
            key = tuple(sorted(np.delete(t, k)))
            counts.setdefault(key, []).append((e, k))
    out = []
    for hits in counts.values():
        if len(hits) != 1:
            continue
        e, k = hits[0]
        t = mesh.tets[e]
        face = list(np.delete(t, k))
        a, b, c = (mesh.nodes[i] for i in face)
        n = np.cross(b - a, c - a)
        if np.dot(n, mesh.nodes[t[k]] - a) > 0.0:
            face = [face[0], face[2], face[1]]
        out.append(face)
    return np.array(sorted(out), dtype=int)


# ---------------------------------------------------------------------------
# SVD with the rotation-variant sign convention, through LAPACK


def svd_rv_batch(F):
    """U diag(s) W^T = F from np.linalg.svd, with U and W turned proper by
    flipping their last columns and the reflection folded into s[:, 2]."""
    U, s, Wt = np.linalg.svd(np.asarray(F, dtype=float))
    W = np.swapaxes(Wt, -1, -2).copy()
    dU = np.sign(np.linalg.det(U))
    dW = np.sign(np.linalg.det(W))
    U[:, :, 2] *= dU[:, None]
    W[:, :, 2] *= dW[:, None]
    s[:, 2] *= dU * dW
    return U, s, W


def svd_rv(F):
    """svd_rv_batch of one matrix."""
    U, s, W = mat._svd_rv_lapack(np.asarray(F, dtype=float)[None])
    return U[0], s[0], W[0]


def project_so3(F):
    """Closest rotation to F in the Frobenius norm.

    Well-defined for every finite F; a vanishing F maps to the identity by
    convention (any rotation is equally close, so we pick a fixed one).
    """
    F = np.asarray(F, dtype=float)
    if not np.all(np.isfinite(F)):
        raise ValueError("non-finite deformation gradient")
    if np.linalg.norm(F) < 1e-300:
        return np.eye(3)
    U, _, W = svd_rv(F)
    return U @ W.T


# ---------------------------------------------------------------------------
# rotations, one at a time, and the yarn frames and element targets built
# from them one segment or element at a time


def skew(v):
    """Map a 3-vector to the skew-symmetric matrix with that axis."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def unskew(Omega):
    return np.array([Omega[2, 1], Omega[0, 2], Omega[1, 0]])


def rotation_exp(Omega):
    """Closed-form matrix exponential of a skew-symmetric matrix."""
    w = unskew(Omega)
    theta = float(np.linalg.norm(w))
    if theta < 1e-8:
        # series expansion keeps full accuracy near zero angle
        a = 1.0 - theta * theta / 6.0
        b = 0.5 - theta * theta / 24.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * Omega + b * (Omega @ Omega)


def rotation_log(R):
    """Skew-symmetric logarithm of a rotation matrix.

    The angle lands in [0, pi].  Near pi the antisymmetric part of R loses
    the axis, so it is recovered from the symmetric part instead; the axis
    sign is then fixed by making its largest-magnitude component positive,
    which keeps the result deterministic.
    """
    c = 0.5 * (np.trace(R) - 1.0)
    theta = float(np.arccos(np.clip(c, -1.0, 1.0)))
    if theta < 1e-10:
        return 0.5 * (R - R.T)
    if np.pi - theta > 1e-6:
        return theta / (2.0 * np.sin(theta)) * (R - R.T)
    # R ~ 2 n n^T - I: take the strongest column of (R + I)/2 as the axis
    B = 0.5 * (R + np.eye(3))
    k = int(np.argmax(np.diag(B)))
    n = B[:, k]
    n = n / np.linalg.norm(n)
    if n[int(np.argmax(np.abs(n)))] < 0.0:
        n = -n
    return theta * skew(n)


def minimal_rotation(a, b):
    """Rotation with the smallest angle taking unit vector a to unit vector b."""
    c = float(np.clip(np.dot(a, b), -1.0, 1.0))
    w = np.cross(a, b)
    s = float(np.linalg.norm(w))
    if s < 1e-12:
        if c > 0.0:
            return np.eye(3)
        # antiparallel: rotate by pi about any axis orthogonal to a
        aux = np.zeros(3)
        aux[int(np.argmin(np.abs(a)))] = 1.0
        axis = np.cross(a, aux)
        axis /= np.linalg.norm(axis)
        return rotation_exp(np.pi * skew(axis))
    K = skew(w / s)
    theta = float(np.arctan2(s, c))
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def polyline_segments(model, pi):
    """Indices of the segments belonging to polyline pi, in order."""
    return np.flatnonzero(model.segment_poly == pi)


def compute_segment_normals(model):
    """Rest-frame normals (nS, 2, 3) by parallel transport, one segment at
    a time."""
    rest = model.rest_vertices
    normals = np.empty((model.n_segments, 2, 3))
    for pi in range(len(model.polylines)):
        prev_d = None
        n1 = None
        for si in polyline_segments(model, pi):
            a, b = model.segments[si]
            d = rest[b] - rest[a]
            d = d / np.linalg.norm(d)
            if prev_d is None:
                axis = int(np.argmin(np.abs(d)))
                n1 = np.zeros(3)
                n1[axis] = 1.0
            else:
                n1 = minimal_rotation(prev_d, d) @ n1
            n1 = n1 - np.dot(n1, d) * d
            n1 /= np.linalg.norm(n1)
            n2 = np.cross(d, n1)
            normals[si, 0] = n1
            normals[si, 1] = n2
            prev_d = d
    return normals


def deformed_segment_normals(model, deformed):
    """Material normals carried onto the deformed segment directions, one
    polyline rotation and one segment at a time."""
    deformed = np.asarray(deformed, dtype=float)
    rest = model.rest_vertices
    normals = compute_segment_normals(model)
    out = np.empty_like(normals)
    for pi, run in enumerate(model.polylines):
        P = rest[run] - rest[run].mean(axis=0)
        Q = deformed[run] - deformed[run].mean(axis=0)
        R = project_so3(Q.T @ P)
        for si in polyline_segments(model, pi):
            a, b = model.segments[si]
            dbar = rest[b] - rest[a]
            dbar = dbar / np.linalg.norm(dbar)
            d = deformed[b] - deformed[a]
            nd = np.linalg.norm(d)
            if nd < 1e-12:
                raise ValueError(f"segment {si} degenerate in deformed pose")
            d = d / nd
            align = minimal_rotation(R @ dbar, d)
            out[si, 0] = align @ (R @ normals[si, 0])
            out[si, 1] = align @ (R @ normals[si, 1])
    return out


def yarn_segment_f(model, deformed):
    """Per-segment deformation gradients: the rest material frame
    [d, n1, n2] mapped onto the deformed one, one frame inverse at a time."""
    deformed = np.asarray(deformed, dtype=float)
    rest = model.rest_vertices
    rest_normals = compute_segment_normals(model)
    normals = deformed_segment_normals(model, deformed)
    F = np.empty((model.n_segments, 3, 3))
    for si, (a, b) in enumerate(model.segments):
        rest_frame = np.column_stack([
            rest[b] - rest[a], rest_normals[si, 0], rest_normals[si, 1]])
        def_frame = np.column_stack([deformed[b] - deformed[a], normals[si, 0], normals[si, 1]])
        F[si] = def_frame @ np.linalg.inv(rest_frame)
    return F


def segment_polar(model, deformed):
    """Polar factors (R, S) of the segment gradients of the material-frame
    path, one SVD at a time, S symmetrized."""
    F = yarn_segment_f(model, deformed)
    R = np.stack([project_so3(f) for f in F])
    S = np.swapaxes(R, 1, 2) @ F
    return R, 0.5 * (S + np.swapaxes(S, 1, 2))


def element_targets(mesh, embedding, model, deformed):
    """Per-element target gradients and coverage, with the uncovered
    elements filled one at a time: from their voxel, then breadth-first
    over face neighbors with Python sets.  Also returns the number of
    breadth-first rounds."""
    R, stretch = segment_polar(model, deformed)
    omega = np.stack([unskew(rotation_log(r)) for r in R])

    nE = mesh.n_elements
    w_elem = np.zeros(nE)
    om_elem = np.zeros((nE, 3))
    st_elem = np.zeros((nE, 3, 3))
    piece_w = (embedding.piece_t1 - embedding.piece_t0) * model.rest_lengths[embedding.piece_seg]
    np.add.at(w_elem, embedding.piece_elem, piece_w)
    np.add.at(om_elem, embedding.piece_elem, piece_w[:, None] * omega[embedding.piece_seg])
    np.add.at(st_elem, embedding.piece_elem, piece_w[:, None, None] * stretch[embedding.piece_seg])
    covered = w_elem > 1e-14
    om_elem[covered] /= w_elem[covered, None]
    st_elem[covered] /= w_elem[covered, None, None]

    n_vox = len(mesh.voxels)
    wv = np.zeros(n_vox)
    ov = np.zeros((n_vox, 3))
    sv = np.zeros((n_vox, 3, 3))
    vox_of_piece = mesh.tet_voxel[embedding.piece_elem]
    np.add.at(wv, vox_of_piece, piece_w)
    np.add.at(ov, vox_of_piece, piece_w[:, None] * omega[embedding.piece_seg])
    np.add.at(sv, vox_of_piece, piece_w[:, None, None] * stretch[embedding.piece_seg])
    have = np.ones(nE, dtype=bool)
    for e in np.flatnonzero(~covered):
        c = mesh.tet_voxel[e]
        if wv[c] > 1e-14:
            om_elem[e] = ov[c] / wv[c]
            st_elem[e] = sv[c] / wv[c]
        else:
            have[e] = False
    A = element_adjacency(mesh)
    missing = set(np.flatnonzero(~have))
    rounds = 0
    while missing:
        ready = []
        for e in sorted(missing):
            nbr = [n for n in A[e].indices if have[n]]
            if nbr:
                ready.append((e, nbr))
        if not ready:
            raise ValueError("isolated elements with no yarn anywhere nearby")
        for e, nbr in ready:
            om_elem[e] = om_elem[nbr].mean(axis=0)
            st_elem[e] = st_elem[nbr].mean(axis=0)
        for e, _ in ready:
            have[e] = True
            missing.discard(e)
        rounds += 1
    F = np.einsum("eij,ejk->eik", np.stack([rotation_exp(skew(o)) for o in om_elem]), st_elem)
    return F, covered, rounds


# ---------------------------------------------------------------------------
# volume projection: both clamp patterns solved side by side on every row


# per pattern (no clamp, s2 clamped): the smallest free entry, the other
# free entries (weight 0 marks padding) and the number of clamped entries
_SM = [2, 1]
_SO = [[0, 1], [0, 0]]
_WO = np.array([[1.0, 1.0], [1.0, 0.0]])
_NC = np.array([0.0, 1.0])
_FOLD_GRID = 16
_ROOT_ITERS = 100


def _secular(u, sm, so):
    """phi and d phi / d log t at t = exp(u) for both clamp patterns.

    The last axis of u and sm runs over the patterns; so carries one more
    axis for the other free entries.  Returns (phi, dphi, t, s_other, lam).
    """
    t = np.exp(u)
    lam = t * (sm - t)
    rt = np.sqrt(np.maximum(so * so - 4.0 * lam[..., None], 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        # larger root of s^2 - sigma s + lam, free of cancellation
        s = np.where(so >= 0.0, 0.5 * (so + rt), -2.0 * lam[..., None] / (rt - so))
        s = np.where(_WO > 0.0, s, 1.0)
        phi = u + np.sum(_WO * np.log(s), axis=-1) + _NC * np.log(mat.SV_FLOOR)
        inv = np.where(_WO > 0.0, 1.0 / (s * rt), 0.0)
        dphi = 1.0 + t * (2.0 * t - sm) * np.sum(inv, axis=-1)
    return phi, dphi, t, s, lam


def _secular_root(lo, hi, u, sm, so):
    """Root of phi in [lo, hi], given phi(lo) <= 0 <= phi(hi), by Newton in
    log t with a bisection step whenever Newton leaves the bracket; each lane
    stops on its own once its step falls below rounding."""
    active = np.ones(u.shape, dtype=bool)
    for _ in range(_ROOT_ITERS):
        phi, dphi, *_ = _secular(u, sm, so)
        neg = phi < 0.0
        lo = np.where(neg, u, lo)
        hi = np.where(neg, hi, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            un = u - phi / dphi
        newton = np.isfinite(dphi) & (un >= lo) & (un <= hi)
        un = np.where(phi == 0.0, u, np.where(newton, un, 0.5 * (lo + hi)))
        small = np.abs(un - u) <= 1e-15 * np.maximum(1.0, np.abs(u))
        u = np.where(active, un, u)
        active &= ~small
        if not active.any():
            break
    return u


def sl3_sigma_project_batch(sig):
    """Closest singular-value triples with unit product and floored entries.

    For each row of sig (B, 3), minimizes |s - sigma|^2 subject to
    s1*s2*s3 = 1 and s_i >= mat.SV_FLOOR by one batched secular solve: each
    clamp pattern and branch gives a bracketed scalar root, and the feasible
    candidate with the least objective wins.  Returns (s, lam, clamped): the
    singular values, the multiplier of the free-entry stationarity
    condition s_i - sigma_i + lam * prod_{k != i} s_k = 0, and the clamp
    mask, all in the input order.
    """
    sig = np.asarray(sig, dtype=float)
    B = sig.shape[0]
    f = mat.SV_FLOOR
    order = np.argsort(-sig, axis=1, kind="stable")
    ss = np.take_along_axis(sig, order, axis=1)
    sm, so = ss[:, _SM], ss[:, _SO]

    # branch t >= sigma_m / 2; phi(t) >= (1 + #others) log t + |clamped| log f
    # there bounds the root from above, and t >= f is needed for feasibility
    lo = np.log(np.maximum(f, 0.5 * sm))
    phi_lo = _secular(lo, sm, so)[0]
    plus_ok = phi_lo <= 0.0
    hi = np.maximum(lo, -_NC * np.log(f) / (1.0 + _WO.sum(axis=1)))
    hi = np.where(plus_ok, hi, lo)
    u_plus = _secular_root(lo, hi, np.clip(np.log(np.maximum(sm, f)), lo, hi), sm, so)

    # fold t < sigma_m / 2 when phi(sigma_m / 2) >= 0: bracket the first
    # sign change of a log-grid scan over [f, sigma_m / 2]
    fold_ok = (sm > 2.0 * f) & (phi_lo >= 0.0)
    u_fold = np.full((B, 2), np.log(f))
    rows = np.flatnonzero(fold_ok.any(axis=1))
    if len(rows):
        smr, sor = sm[rows], so[rows]
        w = np.linspace(0.0, 1.0, _FOLD_GRID)[:, None, None]
        grid = np.log(f) + w * np.log(np.maximum(0.5 * smr / f, 1.0))
        phig = _secular(grid, smr, sor)[0]
        up = (phig[:-1] < 0.0) & (phig[1:] >= 0.0)
        k = np.argmax(up, axis=0)[None]
        glo = np.take_along_axis(grid, k, axis=0)[0]
        ghi = np.take_along_axis(grid, k + 1, axis=0)[0]
        fold_ok[rows] &= up.any(axis=0)
        ghi = np.where(fold_ok[rows], ghi, glo)
        u_fold[rows] = _secular_root(glo, ghi, 0.5 * (glo + ghi), smr, sor)

    # candidates (B, 5, 3): plus and fold branch of both patterns, then the
    # closed form (1/f^2, f, f) with s1 and s2 on the floor
    _, _, t, s_o, lam = _secular(np.stack([u_plus, u_fold], axis=1), sm[:, None], so[:, None])
    cand = np.empty((B, 2, 2, 3))
    cand[..., 0] = s_o[..., 0]
    cand[..., 0, 1:] = np.stack([s_o[..., 0, 1], t[..., 0]], axis=-1)
    cand[..., 1, 1:] = np.stack([t[..., 1], np.full_like(t[..., 1], f)], axis=-1)
    cand = np.concatenate([cand.reshape(B, 4, 3), np.broadcast_to([1.0 / f**2, f, f], (B, 1, 3))], axis=1)
    lam = np.concatenate([lam.reshape(B, 4), (ss[:, :1] - 1.0 / f**2) / f**2], axis=1)
    ok = np.concatenate([plus_ok, fold_ok, np.ones((B, 1), dtype=bool)], axis=1)
    obj = np.where(ok, np.sum((cand - ss[:, None]) ** 2, axis=2), np.inf)

    # the least objective among the candidates with 0, 1 and 2 clamped
    # entries, plus branch first on equal values; a more clamped one takes
    # over on a tie to the rounding of the objective (the tie rule of
    # mat.sl3_sigma_project_batch)
    rows = np.arange(B)
    best = np.where(obj[:, 2] < obj[:, 0], 2, 0)
    for lanes in ([1, 3], [4]):
        pick = np.array(lanes)[np.argmin(obj[:, lanes], axis=1)]
        tie = mat._rounding(cand[rows, best], ss)
        best = np.where(obj[rows, pick] <= obj[rows, best] + tie, pick, best)
    s_sorted = cand[rows, best]
    clamped_sorted = np.array([[0, 0, 0], [0, 0, 1]] * 2 + [[0, 1, 1]], dtype=bool)[best]

    s = np.empty_like(s_sorted)
    clamped = np.empty_like(clamped_sorted)
    np.put_along_axis(s, order, s_sorted, axis=1)
    np.put_along_axis(clamped, order, clamped_sorted, axis=1)
    return s, lam[rows, best], clamped


# ---------------------------------------------------------------------------
# dense per-element operators


def diff_op(shape_grad):
    """(..., 9, 12) map from element node positions (node-major x, y, z) to
    row-major vec(F), built entry by entry from (..., 4, 3) shape gradients."""
    G = np.asarray(shape_grad, dtype=float)
    D = np.zeros(G.shape[:-2] + (9, 12))
    # F[i, j] = sum_n x[3n + i] * G[n, j]
    for n in range(4):
        for i in range(3):
            for j in range(3):
                D[..., 3 * i + j, 3 * n + i] = G[..., n, j]
    return D


def element_dofs(mesh):
    """(nE, 12) global dof indices in node-major x, y, z order."""
    return (3 * mesh.tets[:, :, None] + np.arange(3)[None, None, :]).reshape(-1, 12)


# ---------------------------------------------------------------------------
# single-element material functions


def project_sl3(F):
    """Closest matrix to F with unit determinant, singular values floored."""
    return mat.batch_projections(np.asarray(F, dtype=float)[None])[1][0]


def rotation_jacobian(F):
    """Derivative of the rotation projection, d vec(R) / d vec(F)."""
    return mat.projection_jacobians_batch(np.asarray(F, dtype=float)[None])[0][0]


def sl3_jacobian(F):
    """Derivative of the volume projection, d vec(V) / d vec(F)."""
    return mat.projection_jacobians_batch(np.asarray(F, dtype=float)[None])[1][0]


def element_energy(F, gamma_s, gamma_v, volume):
    """Elastic energy of one element at deformation gradient F."""
    R = project_so3(F)
    V = project_sl3(F)
    return volume * (
        gamma_s * float(np.sum((F - R) ** 2)) + gamma_v * float(np.sum((F - V) ** 2))
    )


def element_force_and_dgamma(diff_op, F, gamma_s, gamma_v, volume):
    """Energy gradient of one element and its derivatives in the two gammas.

    diff_op is the (9, 12) operator mapping element node positions to vec(F).
    Returns (force, d_gs, d_gv), all 12-vectors on the element dofs, with
    force = gamma_s * d_gs + gamma_v * d_gv; the two patterns double as the
    columns of the equilibrium derivative with respect to the coefficients.
    """
    R = project_so3(F)
    V = project_sl3(F)
    d_gs = 2.0 * volume * (diff_op.T @ (F - R).reshape(9))
    d_gv = 2.0 * volume * (diff_op.T @ (F - V).reshape(9))
    return gamma_s * d_gs + gamma_v * d_gv, d_gs, d_gv


def batch_energies(F, gamma_s, gamma_v, volumes):
    """Per-element energies for a batch of deformation gradients."""
    R, V = mat.batch_projections(F)
    ds = np.sum((F - R) ** 2, axis=(1, 2))
    dv = np.sum((F - V) ** 2, axis=(1, 2))
    return volumes * (gamma_s * ds + gamma_v * dv)


def uniform(n_elements, gamma_s, gamma_v):
    """A (2, nE) material with the same (gamma_s, gamma_v) on every element."""
    return np.repeat([[float(gamma_s)], [float(gamma_v)]], n_elements, axis=1)


# ---------------------------------------------------------------------------
# aggregated Jacobi with its bookkeeping inside the sweep loop


def a_jacobi_refine(K, b, x0, sweeps=30, aggregation=2, omega=pdsolver.JACOBI_OMEGA):
    """pdsolver.a_jacobi_refine with divergence, the best iterate and the
    residual history kept sweep by sweep: a diverged column stops moving,
    and the loop ends once every column has diverged."""
    if aggregation not in (2, 3):
        raise ValueError("aggregation must be 2 or 3")
    d = K.diagonal()
    if np.any(d <= 0.0):
        raise ValueError("matrix diagonal must be positive")
    invd = (1.0 / d)[:, None]
    b = np.asarray(b, dtype=float)
    vector = b.ndim == 1
    b = b.reshape(len(d), -1)
    x = np.array(x0, dtype=float).reshape(b.shape)
    r = b - K @ x
    rn = pdsolver._column_norms(r)
    best_x, best_r = x.copy(), rn
    history = [rn]
    length = np.ones(b.shape[1], dtype=int)
    diverged = np.zeros(b.shape[1], dtype=bool)

    for _ in range(sweeps):
        e = np.zeros_like(x)
        s = r.copy()
        for _ in range(aggregation):
            cs = omega * (invd * s)
            cs[:, diverged] = 0.0
            e += cs
            s -= K @ cs
        x, r = x + e, s
        rn = pdsolver._column_norms(r)
        live = ~diverged
        history.append(rn)
        length[live] += 1
        better = live & (rn < best_r)
        best_r = np.where(better, rn, best_r)
        best_x[:, better] = x[:, better]
        diverged |= live & (rn > 10.0 * best_r)
        if diverged.all():
            break

    history = np.array(history)
    x = np.where(diverged | (rn > best_r), best_x, x)
    info = {"diverged": diverged,
            "residuals": [history[:n, c].tolist() for c, n in enumerate(length)]}
    if vector:
        return x[:, 0], {"diverged": bool(diverged[0]), "residuals": info["residuals"][0]}
    return x, info


# ---------------------------------------------------------------------------
# component-mode basis, node by node and column by column


def cms_basis(K, mesh, free, n_domains=2, modes_per_domain=20):
    """(T, K_red, the SuperLU factors of K_red) of pdsolver.build_cms, with
    the interior and boundary sets classified over all nodes and renumbered
    into free-local indices, and T filled from Python lists one column at a
    time (Psi's explicit zeros included)."""
    labels = pdsolver.partition_elements(mesh, n_domains)
    n = mesh.n_nodes
    lo = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.full(n, -1, dtype=np.int64)
    np.minimum.at(lo, mesh.tets, labels[:, None])
    np.maximum.at(hi, mesh.tets, labels[:, None])
    keep = np.zeros(n, dtype=bool)
    keep[free] = True
    taken = np.zeros(n, dtype=bool)
    interior = []
    for d in range(int(labels.max()) + 1):
        sel = np.flatnonzero((lo == d) & (hi == d) & keep)
        interior.append(sel)
        taken[sel] = True
    boundary = np.flatnonzero(keep & ~taken & (hi >= 0))
    remap = -np.ones(n, dtype=int)
    remap[free] = np.arange(len(free))
    interior, boundary = [remap[s] for s in interior], remap[boundary]

    nb = len(boundary)
    blocks = []
    for sel in interior:
        if len(sel) == 0:
            continue
        Kii = K[sel][:, sel].tocsc()
        Phi = pdsolver.lowest_modes(Kii, min(modes_per_domain, len(sel)), 0.0, 400)
        Psi = None
        if nb:
            Psi = -spla.splu(Kii).solve(np.asarray(K[sel][:, boundary].todense()))
        blocks.append((sel, Phi, Psi))
    rows, cols, vals = [], [], []
    c0 = 0
    for sel, Phi, _ in blocks:
        for j in range(Phi.shape[1]):
            rows.extend(sel)
            cols.extend([c0 + j] * len(sel))
            vals.extend(Phi[:, j])
        c0 += Phi.shape[1]
    for bj, node in enumerate(boundary):
        rows.append(node)
        cols.append(c0 + bj)
        vals.append(1.0)
    for sel, _, Psi in blocks:
        if Psi is not None:
            for bj in range(nb):
                rows.extend(sel)
                cols.extend([c0 + bj] * len(sel))
                vals.extend(Psi[:, bj])
    T = sp.csr_matrix((vals, (rows, cols)), shape=(K.shape[0], c0 + nb))
    K_red = (T.T @ K @ T).tocsc()
    K_red = 0.5 * (K_red + K_red.T)
    # SuperLU sorts the indices of K_red in place, as it does in build_cms
    return T, K_red, spla.splu(K_red)


# ---------------------------------------------------------------------------
# solver objectives and colliders


def pd_objective(x, mesh, gammas, xhat, dt):
    """Inertia plus elastic potential minimized by one implicit step."""
    d = np.asarray(x) - xhat
    inertia = 0.5 / dt**2 * float(np.sum(mesh.node_mass[:, None] * d * d))
    return inertia + pdsolver.elastic_energy(mesh, gammas, x)


def quasi_static_objective(mesh, gammas, inertia_target, x, dt):
    lin = float(np.sum(mesh.node_mass[:, None] * inertia_target * x)) / dt**2
    return pdsolver.elastic_energy(mesh, gammas, x) + lin


def collider_targets(x, colliders):
    """pdsolver.collider_targets over a list of colliders, concatenated."""
    hits = [pdsolver.collider_targets(x, c) for c in colliders]
    if not hits:
        return np.empty(0, dtype=int), np.empty((0, 3))
    return np.concatenate([i for i, _ in hits]), np.concatenate([t for _, t in hits])


def surface_targets(points, colliders):
    """Project points out of any of the colliders they penetrate."""
    out = np.asarray(points, dtype=float).copy()
    idx, tgt = collider_targets(out, colliders)
    out[idx] = tgt
    return out


def yarn_collider_rows(xhat, xi, colliders):
    """The yarn simulator's former inline collider model: per collider, the
    vertices penetrating at the prediction xhat and their targets at xi
    (the surface projection while inside, xi itself once separated)."""
    out = []
    for kind, *args in colliders:
        if kind == "plane":
            pnt, nrm = np.asarray(args[0], float), np.asarray(args[1], float)
            nrm = nrm / np.linalg.norm(nrm)
            idx = np.flatnonzero((xhat - pnt) @ nrm < 0.0)
            q = xi[idx] - np.minimum((xi[idx] - pnt) @ nrm, 0.0)[:, None] * nrm
        elif kind == "sphere":
            c, r = np.asarray(args[0], float), float(args[1])
            idx = np.flatnonzero(np.linalg.norm(xhat - c, axis=1) < r)
            rel = xi[idx] - c
            ln = np.linalg.norm(rel, axis=1)
            q = c + rel * (np.maximum(ln, r) / np.maximum(ln, 1e-12))[:, None]
        else:
            raise ValueError(f"unknown collider kind {kind!r}")
        out.append((idx, q))
    return out


def rod_energy(model, x, params=None, forces=None):
    """Discrete elastic + external energy of the simulator's spring system.

    Used by tests as the objective of an independent equilibrium oracle.
    Contact terms are omitted (oracle scenes keep yarns separated).
    """
    params = params or ym.RodParams()
    x = x.reshape(-1, 3)
    rest = model.rest_vertices
    d = x[model.segments[:, 1]] - x[model.segments[:, 0]]
    w = params.stretch_stiffness / model.rest_lengths
    e = 0.5 * np.sum(w * (np.linalg.norm(d, axis=1) - model.rest_lengths) ** 2)
    bend = ym._second_neighbors(model)
    if len(bend):
        br = np.linalg.norm(rest[bend[:, 1]] - rest[bend[:, 0]], axis=1)
        d = x[bend[:, 1]] - x[bend[:, 0]]
        e += 0.5 * np.sum(params.bend_stiffness / br * (np.linalg.norm(d, axis=1) - br) ** 2)
    if forces is not None:
        e -= float(np.sum(forces * x))
    return e


# ---------------------------------------------------------------------------
# the stepping loop as a mutable state, stepped one prediction at a time


@dataclass
class SimState:
    """Forward-simulation state; pinned nodes track their targets exactly."""

    x: np.ndarray                 # (nV, 3)
    v: np.ndarray                 # (nV, 3)
    dt: float
    pins: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    pin_targets: np.ndarray = None
    colliders: tuple = ()
    polish: tuple = None          # (converged, iterations) of the last polish

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).reshape(-1, 3).copy()
        self.v = np.asarray(self.v, dtype=float).reshape(-1, 3).copy()
        self.pins = np.asarray(self.pins, dtype=int)
        if self.pin_targets is None and len(self.pins):
            self.pin_targets = self.x[self.pins].copy()
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")


def predicted(state, forces, mesh):
    inv_m = np.zeros(mesh.n_nodes)
    pos = mesh.node_mass > 0.0
    inv_m[pos] = 1.0 / mesh.node_mass[pos]
    f = np.zeros_like(state.x) if forces is None else np.asarray(forces, dtype=float)
    return state.x + state.dt * state.v + state.dt**2 * inv_m[:, None] * f


def pd_step_state(state, mesh, gammas, iterations=pdsolver.PD_ITERS_DEFAULT, forces=None,
                  solver=None, damping=1.0):
    """One implicit-Euler step of a SimState: its own prediction, start
    copy, local/global rounds and velocity update."""
    n = mesh.n_nodes
    xhat = predicted(state, forces, mesh)
    dt2 = state.dt**2
    coll = [(collider_targets(xhat, [c])[0], c) for c in state.colliders]
    coll = [(idx, c) for idx, c in coll if len(idx)]
    base_solver = solver
    if base_solver is None or coll:
        K = pdsolver.assemble_global(mesh, gammas, state.dt)
        if coll:
            cw = pdsolver.CONTACT_STIFFNESS * K.diagonal()
            cidx = np.concatenate([idx for idx, _ in coll])
            K = (K + sp.csr_matrix((cw[cidx], (cidx, cidx)), shape=(n, n))).tocsc()
        base_solver = pdsolver.GlobalSolver(K, state.pins)

    x_start = state.x.copy()
    x = xhat.copy()
    if len(state.pins):
        pin_vals = state.pin_targets
        x[state.pins] = pin_vals
    else:
        pin_vals = np.empty((0, 3))

    for it in range(iterations):
        b = (mesh.node_mass[:, None] / dt2) * xhat + pdsolver.elastic_rhs(mesh, gammas, x)
        for idx, c in coll:
            b[idx] += cw[idx, None] * surface_targets(x[idx], [c])
        x = base_solver.solve(b, pin_vals)
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"projective step produced non-finite positions at iteration {it}")

    state.v = damping * (x - x_start) / state.dt
    state.x = x
    return state


def simulate_mesh(mesh, gammas, steps, dt, forces=None, pins=(), pin_targets=None,
                  colliders=(), iterations=pdsolver.PD_ITERS_DEFAULT, solver=None,
                  damping=1.0, polish_tol=None, on_step=None):
    """pdsolver.simulate_mesh on a SimState: the prediction, the start copy
    and the velocity of a polished step are made twice, once inside
    pd_step_state and once around the polish.  on_step(i, state)."""
    pins = np.asarray(pins, dtype=int)
    pin_path = None
    if pin_targets is not None:
        pin_targets = np.asarray(pin_targets, dtype=float)
        if pin_targets.ndim == 3:
            pin_path = pin_targets
            pin_targets = pin_path[0]
    state = SimState(x=mesh.nodes.copy(), v=np.zeros_like(mesh.nodes), dt=dt, pins=pins,
                     pin_targets=pin_targets, colliders=tuple(colliders))
    if state.colliders:
        solver = None
    elif solver is None:
        solver = pdsolver.GlobalSolver(pdsolver.assemble_global(mesh, gammas, dt), pins)

    frames = np.empty((steps, mesh.n_nodes, 3))
    polish = polish_tol is not None and not state.colliders
    for i in range(steps):
        if pin_path is not None:
            state.pin_targets = pin_path[i]
        if polish:
            x_start, xh = state.x.copy(), predicted(state, forces, mesh)
        pd_step_state(state, mesh, gammas, iterations=iterations, forces=forces,
                      solver=solver, damping=damping)
        if polish:
            state.x, ok, iters, _ = pdsolver.newton_polish(
                mesh, gammas, state.x, dt=dt, pins=pins,
                pin_vals=state.pin_targets, xhat=xh, tol=polish_tol,
            )
            state.polish = (ok, iters)
            state.v = damping * (state.x - x_start) / dt
        frames[i] = state.x
        if on_step is not None:
            on_step(i, state)
    return frames


# ---------------------------------------------------------------------------
# fitting and transfer


def dense_gauss_newton_direction(states, kappa, basis=None, frozen=()):
    """Oracle route: explicit sensitivity columns, dense normal equations.

    Solves (sum_k S_k^T G_k S_k + kappa I) d = -sum_k g_k with
    S_k = H_k^-1 J_k, in the coordinates of `basis` (both fields; the
    per-element space when None), with d zero on the `frozen` columns.
    Only feasible on small problems; exists to cross-check the sparse
    factorizations of `fitting.adjoint_gauss_newton`.
    """
    P = g = 0.0
    for st in states:
        J, grad = st.J.toarray(), st.grad
        if basis is not None:
            nE = basis.shape[0]
            J = np.hstack([J[:, :nE] @ basis, J[:, nE:] @ basis])
            grad = np.concatenate([basis.T @ grad[:nE], basis.T @ grad[nE:]])
        S = np.linalg.solve(st.H.toarray(), J)
        P = P + S.T @ (st.G.toarray() @ S)
        g = g + grad
    keep = np.setdiff1d(np.arange(len(g)), frozen)
    d = np.zeros(len(g))
    d[keep] = np.linalg.solve(P[np.ix_(keep, keep)] + kappa * np.eye(len(keep)),
                              -g[keep])
    return d


def dump_targets_csv(targets, path):
    """One row per element: index, covered flag, nine F entries."""
    with open(path, "w") as fh:
        fh.write("element,covered," + ",".join(f"f{i}{j}" for i in range(3) for j in range(3)) + "\n")
        for e, (F, c) in enumerate(zip(targets.per_element_f, targets.covered)):
            fh.write(f"{e},{int(c)}," + ",".join(f"{v:.12g}" for v in F.reshape(-1)) + "\n")


def write_obj(path, vertices, faces=None, lines=None, comment=None):
    """volmesh.write_obj one formatted coordinate or index at a time."""
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for p in vertices:
            fh.write(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        for f in faces if faces is not None else ():
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")
        for run in lines if lines is not None else ():
            fh.write("l " + " ".join(str(int(i) + 1) for i in run) + "\n")
