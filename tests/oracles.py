"""Loop references for code that src/ computes in batches.

Each function here does one point, pair or piece at a time, as the
batched code it checks once did, so tests can require equal bits.
"""

import numpy as np
import scipy.sparse as sp

from volknit import volmesh as vm


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
        cells = vm.segment_cells(rest[s[0]], rest[s[1]], mesh.cell_size, mesh.origin)
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
