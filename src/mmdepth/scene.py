"""
Planar-facet scenes, ray-cast ground truth, and backscatter path extraction.

A scene is a set of coplanar convex quads with material tags plus a device
pose. The device frame is right-handed with boresight along +y and up along
+z; the virtual sensor of mmdepth.codebook lives in this frame.

Two consumers look at the same geometry through one ray cast, _first_hit:

  ground_truth_maps     per-pixel ray casting through the sensor grid, a
                        band of rows at a time, each facet against the
                        pixels of its image window only; the reference the
                        estimated maps are scored against.
  trace_backscatter_paths
                        the radio view: a sum of point scatterers, each
                        visible one a monostatic path (delay 2*rho/c, matched
                        departure and arrival angles, channel.path_gain
                        amplitude). Each facet is subdivided into small cells
                        with a seeded scattering phase, and traced and pruned
                        to its visible cells before the next is cut; a facet
                        that contains the device's orthogonal foot adds that
                        foot as one more scatterer, the specular return, with
                        plane RCS pi*rho^2*(1 - scatter_ratio^2). It is all
                        that survives on glass.

Every path, diffuse or specular, goes through the same free-space radar
equation, which has no parameters. Scattering strength reduces the
directive-lobe material model to a single scattered-to-incident field ratio
per material (see the material table); a cell's sigma_RCS is
BACKSCATTER_GAIN * scatter_ratio * cell_area.

The builtin scenes (BUILTIN_SCENES) live here as well, with build_scene,
which checks the scene section of a scenario config and builds it.
"""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .channel import SPEED_OF_LIGHT, path_gain
from .codebook import SceneView, sensor_grid

__all__ = [
    "BACKSCATTER_GAIN",
    "Material",
    "MATERIALS",
    "PlanarFacet",
    "DevicePose",
    "Scene",
    "PathSet",
    "ground_truth_maps",
    "trace_backscatter_paths",
    "scene_from_dict",
    "scene_to_dict",
    "load_scene",
    "save_scene",
    "BUILTIN_SCENES",
    "build_scene",
]

_COPLANAR_TOL = 1e-9
MISS = np.inf  # ground-truth sentinel for rays that leave the scene

# Dimensionless backscatter gain of a subdivision cell relative to its
# geometric area: sigma_RCS = BACKSCATTER_GAIN * scatter_ratio * cell_area.
# A coherent flat patch of area A would contribute up to 4*pi*A/lambda^2
# (~1.26e3 for a 5 cm cell at 60 GHz); rough-surface spreading keeps the
# effective value well below that. Calibrated on the one-wall reference
# scene so the per-beam detector operates in its accurate regime.
BACKSCATTER_GAIN = 450.0


@dataclass(frozen=True)
class Material:
    """
    Surface material, reduced to one scattering descriptor: scatter_ratio,
    the scattered-to-incident electric field ratio.
    """

    name: str
    scatter_ratio: float               # scattered / incident field ratio, 0..1

    def __post_init__(self):
        if not 0.0 <= self.scatter_ratio <= 1.0:
            raise ValueError("scatter_ratio must lie in [0, 1]")


MATERIALS: dict[str, Material] = {
    m.name: m
    for m in (
        Material("concrete", 0.40),
        Material("ceilingboard", 0.30),
        Material("wood", 0.15),
        Material("floorboard", 0.15),
        Material("drywall", 0.10),
        Material("glass", 0.00),
    )
}


def _as_point(v, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} must be finite")
    return v


def _as_unit(v, what: str) -> np.ndarray:
    v = _as_point(v, what)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError(f"{what} must be nonzero")
    return v / n


@dataclass(frozen=True)
class PlanarFacet:
    """
    Convex coplanar quad. Vertices are (4, 3) finite world coordinates in
    winding order; coplanarity is checked to 1e-9 relative to the facet
    extent. The unit normal (it follows the winding) and the inward edge
    normals edge_normals[i] = normal x (v[i+1] - v[i]) are computed once; the
    vertices are stored read-only, so neither can drift from them.
    """

    vertices: np.ndarray
    material: Material
    normal: np.ndarray = field(init=False, repr=False, compare=False)
    edge_normals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.shape != (4, 3):
            raise ValueError("facet needs exactly 4 vertices of 3 coordinates")
        if not np.all(np.isfinite(v)):
            raise ValueError("facet vertices must be finite")
        n = np.cross(v[1] - v[0], v[2] - v[0])
        nn = np.linalg.norm(n)
        if nn == 0:
            raise ValueError("degenerate facet (collinear vertices)")
        n = n / nn
        scale = max(np.linalg.norm(v - v.mean(axis=0), axis=1).max(), 1e-30)
        off = abs(np.dot(v[3] - v[0], n))
        if off > _COPLANAR_TOL * scale:
            raise ValueError(f"facet vertices not coplanar (offset {off:.3e} m)")
        # Convexity: all cross products of consecutive edges along the normal.
        edges = np.roll(v, -1, axis=0) - v
        turns = np.cross(edges, np.roll(edges, -1, axis=0)) @ n
        if not (np.all(turns > -1e-12 * scale**2) or np.all(turns < 1e-12 * scale**2)):
            raise ValueError("facet is not convex")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "edge_normals", np.cross(n, edges))


@dataclass
class DevicePose:
    """Device position and orientation (all finite): boresight maps to +y, up to +z."""

    position: np.ndarray
    boresight: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    up: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        self.position = _as_point(self.position, "device position")
        y = _as_unit(self.boresight, "boresight")
        up = _as_unit(self.up, "up")
        z = up - np.dot(up, y) * y  # Gram-Schmidt: up need not be exactly orthogonal
        zn = np.linalg.norm(z)
        if zn < 1e-9:
            raise ValueError("up vector is parallel to boresight")
        z = z / zn
        x = np.cross(y, z)
        self.boresight = y
        self.up = z
        self._rotation = np.column_stack([x, y, z])  # device -> world

    def to_world(self, dirs_device: np.ndarray) -> np.ndarray:
        return dirs_device @ self._rotation.T

    def to_device(self, vecs_world: np.ndarray) -> np.ndarray:
        return vecs_world @ self._rotation


@dataclass
class Scene:
    """Facet list and device pose."""

    facets: list[PlanarFacet]
    device: DevicePose

    def __post_init__(self):
        if not self.facets:
            raise ValueError("scene needs at least one facet")


def _ray_quad(origin: np.ndarray, dirs: np.ndarray, facet: PlanarFacet) -> np.ndarray:
    """
    Distances t >= 0 where rays origin + t*dirs hit the facet, inf on miss.
    dirs is (..., 3) of unit vectors. The hit point p is inside when
    (p - v_i) . e_i >= -1e-12 on every edge, evaluated as
    (origin - v_i) . e_i + t * (dirs . e_i) without forming p.
    """
    v = facet.vertices
    n = facet.normal
    denom = dirs @ n
    offset = np.dot(v[0] - origin, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(np.abs(denom) > 1e-15, offset / denom, -1.0)
    hit = t > 1e-12
    for v_i, e_i in zip(v, facet.edge_normals):
        hit &= np.dot(origin - v_i, e_i) + t * (dirs @ e_i) >= -1e-12
    return np.where(hit, t, np.inf)


def _first_hit(
    scene: Scene, dirs: np.ndarray, skip_facet: int | None = None, windows: list | None = None
) -> np.ndarray:
    """
    Distance along unit rays dirs (..., 3) from the device to the nearest
    facet other than skip_facet; inf on a miss. windows, when given, holds
    one index per facet into the leading axes of dirs: facet j is tested
    only against the rays windows[j] selects, and against none if it is
    None.
    """
    if windows is None:
        windows = [...] * len(scene.facets)  # every facet against every ray
    origin = scene.device.position
    t_best = np.full(dirs.shape[:-1], np.inf)
    for j, (facet, w) in enumerate(zip(scene.facets, windows)):
        if j != skip_facet and w is not None:
            best = t_best[w]  # a view: basic indexing only
            np.minimum(best, _ray_quad(origin, dirs[w], facet), out=best)
    return t_best


# Near plane of the truth-ray windows, in metres in front of the device.
_NEAR_M = 1e-3

# Sensor rows per band of the truth cast; working memory is O(_ROWS * cols).
_ROWS = 32


def _clip_near(poly: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a device-frame polygon (K, 3) to y >= _NEAR_M."""
    out = []
    for a, b in zip(poly, np.roll(poly, -1, axis=0)):
        if a[1] >= _NEAR_M:
            out.append(a)
        if (a[1] >= _NEAR_M) != (b[1] >= _NEAR_M):
            out.append(a + (_NEAR_M - a[1]) / (b[1] - a[1]) * (b - a))
    return np.array(out).reshape(-1, 3)


def _facet_window(scene: Scene, facet: PlanarFacet, view: SceneView, rows: int, cols: int):
    """
    (row slice, col slice) of the rows x cols sensor grid outside which no
    truth ray hits facet; None when no ray can hit it.

    The window is the bounding box of the facet's image: its device-frame
    polygon clipped to the near plane y >= _NEAR_M, projected through the
    pinhole (x/y*F_L, z/y*F_L), in sensor_grid's row and column indices,
    widened by one pixel on each side and clipped to the grid. It is exact,
    not a tolerance: a ray through pixel (r, c) meets the facet at
    p = t*d, and p projects onto that pixel's centre. If p_y >= _NEAR_M, p
    lies in the clipped polygon, whose image is the convex hull of its
    projected vertices, so (r, c) lies in their box. _ray_quad accepts points
    up to 1e-12/|edge| outside an edge; seen from _NEAR_M or further, that
    moves the image by at most (1 + |x/y|) * 1e-9/|edge| in tangent units,
    far below a pixel (1.9e-3 for 1280 columns over 100 degrees) for edges
    longer than 0.1 mm. The one-pixel margin absorbs it and the rounding of
    the projection. A hit with 0 < p_y < _NEAR_M lies within _NEAR_M / min(d_y)
    of the device, so a facet whose plane passes that close to the device
    is tested against all rays. At their default parameters every builtin
    facet is at least 1 m from the device.
    """
    f_l = view.focal_length_m
    half_w, half_h = view.sensor_width_m / 2.0, view.sensor_height_m / 2.0
    d_y_min = f_l / np.sqrt(f_l**2 + half_w**2 + half_h**2)  # the sensor's corner ray
    if abs(np.dot(scene.device.position - facet.vertices[0], facet.normal)) < _NEAR_M / d_y_min:
        return slice(None), slice(None)
    poly = _clip_near(scene.device.to_device(facet.vertices - scene.device.position))
    if not len(poly):
        return None
    col = poly[:, 0] / poly[:, 1] * (f_l * cols / view.sensor_width_m) + (cols - 1) / 2.0
    row = (rows - 1) / 2.0 - poly[:, 2] / poly[:, 1] * (f_l * rows / view.sensor_height_m)
    c0, c1 = max(int(np.ceil(col.min() - 1.0)), 0), min(int(np.floor(col.max() + 1.0)), cols - 1)
    r0, r1 = max(int(np.ceil(row.min() - 1.0)), 0), min(int(np.floor(row.max() + 1.0)), rows - 1)
    if c0 > c1 or r0 > r1:
        return None
    return slice(r0, r1 + 1), slice(c0, c1 + 1)


def ground_truth_maps(scene: Scene, view: SceneView, resolution: tuple[int, int]):
    """
    Ray-cast reference maps at the requested resolution.

    One ray is cast through each sensor-cell center of the same virtual
    sensor geometry the codebook uses, at (rows, cols) resolution. The range
    map holds euclidean distance to the nearest facet hit; the depth map
    holds the boresight (device-frame y) component of the hit point. Misses
    are +inf in both. Depth never exceeds range, with equality only on
    boresight. Each facet is intersected only with the rays inside its
    image window (_facet_window), which gives the same maps as testing
    every ray against every facet.

    The cast runs over bands of _ROWS sensor rows, so each facet pass works
    on arrays that stay in cache; no whole-grid ray array is formed. A ray
    through the cell centre (x, F_L, z) has the unit direction
    (x, F_L, z) / sqrt((x^2 + F_L^2) + z^2), the same doubles as normalising
    the sensor_grid points with np.linalg.norm, and a pixel's value does
    not depend on the band it falls in.

    Returns
    -------
    (range_map, depth_map) : float arrays of shape (rows, cols), meters.
    """
    rows, cols = resolution
    # A sensor_grid column depends only on its x and a row only on its z;
    # y is F_L throughout.
    x = sensor_grid(view, cols, 1)[0, :, 0]
    z = sensor_grid(view, 1, rows)[:, 0, 2]
    f_l = view.focal_length_m
    xy_sq = x * x + f_l * f_l
    # Each facet's window as (first row, end row, col slice), or None.
    spans = []
    for facet in scene.facets:
        w = _facet_window(scene, facet, view, rows, cols)
        spans.append(None if w is None else (*w[0].indices(rows)[:2], w[1]))
    range_map = np.empty((rows, cols))
    depth_map = np.empty((rows, cols))
    band = np.empty((min(_ROWS, rows), cols, 3))
    for r0 in range(0, rows, _ROWS):
        r1 = min(r0 + _ROWS, rows)
        z_band = z[r0:r1, None]
        norm = np.sqrt(xy_sq + z_band * z_band)
        dirs_dev = band[: r1 - r0]
        np.divide(x, norm, out=dirs_dev[..., 0])
        np.divide(f_l, norm, out=dirs_dev[..., 1])
        np.divide(z_band, norm, out=dirs_dev[..., 2])
        dirs = scene.device.to_world(dirs_dev.reshape(-1, 3)).reshape(dirs_dev.shape)
        windows = [
            None if s is None or max(s[0], r0) >= min(s[1], r1)
            else (slice(max(s[0], r0) - r0, min(s[1], r1) - r0), s[2])
            for s in spans
        ]
        t = _first_hit(scene, dirs, windows=windows)
        range_map[r0:r1] = t
        depth_map[r0:r1] = np.where(np.isfinite(t), t * dirs_dev[..., 1], MISS)
    return range_map, depth_map


@dataclass
class PathSet:
    """
    Struct-of-arrays monostatic path collection.

    amplitude already folds sqrt(G), the carrier phase e^(-j*2*pi*f_c*tau),
    and the per-path scattering phase, so downstream only multiplies by the
    beam couplings and the pulse. Angles are device-frame steering angles.
    """

    delay_s: np.ndarray          # round-trip delays tau = 2*rho/c
    amplitude: np.ndarray        # complex path amplitudes
    theta_z: np.ndarray          # angle from the device z axis
    theta_x: np.ndarray          # angle from the device x axis
    range_m: np.ndarray          # one-way range rho
    specular: np.ndarray         # bool, True for image-source paths

    def __post_init__(self):
        n = len(self.delay_s)
        for name in ("amplitude", "theta_z", "theta_x", "range_m", "specular"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"PathSet field {name} length mismatch")

    def __len__(self) -> int:
        return len(self.delay_s)

    @property
    def max_delay_s(self) -> float:
        return float(self.delay_s.max()) if len(self) else 0.0


def _subdivide(facet: PlanarFacet, cell_size_m: float):
    """
    Split a quad into roughly square cells by bilinear interpolation of the
    corners. Returns cell centers (K, 3) and areas (K,) that sum to the
    facet area, K = n_u * n_w cells in u-major order.

    Each cell (i, j) sits at parameters (u_i, w_j). The centers broadcast
    over (n_u, n_w); the u tangent varies with w only and the w tangent with
    u only, so each is formed once per cell row or column (n_w + n_u
    tangents, not 2K) before their cross product per cell.
    """
    v = facet.vertices
    n_u = max(1, int(np.ceil(np.linalg.norm(v[1] - v[0]) / cell_size_m)))
    n_w = max(1, int(np.ceil(np.linalg.norm(v[3] - v[0]) / cell_size_m)))
    u = ((np.arange(n_u) + 0.5) / n_u)[:, None]           # (n_u, 1)
    w = ((np.arange(n_w) + 0.5) / n_w)[:, None]           # (n_w, 1)
    uu, u_c, w_c = u[:, None], 1 - u[:, None], 1 - w      # (n_u, 1, 1), (n_u, 1, 1), (n_w, 1)
    # Bilinear-patch area elements via the cross product of the local tangents.
    du = w_c * (v[1] - v[0]) + w * (v[2] - v[3])          # (n_w, 3)
    dw = (1 - u) * (v[3] - v[0]) + u * (v[2] - v[1])      # (n_u, 3)
    areas = np.linalg.norm(np.cross(du, dw[:, None]), axis=-1).reshape(-1) / (n_u * n_w)
    # The four corner terms, added left to right in one output and one term buffer.
    centers = np.multiply(u_c * w_c, v[0])
    term = np.empty_like(centers)
    for a, b, corner in ((uu, w_c, v[1]), (uu, w, v[2]), (u_c, w, v[3])):
        centers += np.multiply(a * b, corner, out=term)
    return centers.reshape(-1, 3), areas


def _visible_rows(scene: Scene, fi: int, points: np.ndarray, sigma, xi, specular):
    """
    A group's rows of positive sigma_RCS that no facet but fi blocks, as
    (unit rays, ranges, sigma, xi, specular); the points become the rays.
    """
    points -= scene.device.position
    dist = np.linalg.norm(points, axis=1)
    points /= dist[:, None]
    keep = (sigma > 0) & ~(_first_hit(scene, points, fi) < dist - 1e-9)
    return points[keep], dist[keep], sigma[keep], xi[keep], specular[keep]


def trace_backscatter_paths(
    scene: Scene,
    wavelength_m: float,
    cell_size_m: float = 0.05,
    seed: int | np.random.SeedSequence = 0,
) -> PathSet:
    """
    Extract the monostatic backscatter paths of a scene.

    Every path is a point scatterer with positive sigma_RCS and a clear line
    of sight to the device, with delay tau = 2*rho/c and amplitude
    sqrt(G) * e^(-j*2*pi*f_c*tau) * e^(j*xi), G = channel.path_gain, the
    free-space radar equation (power falls as rho^-4 at fixed sigma_RCS).

    Diffuse mechanism: every facet is subdivided into ~cell_size_m cells;
    a cell has sigma_RCS = BACKSCATTER_GAIN * scatter_ratio * cell_area and
    xi drawn uniformly from a stream seeded by `seed`. Zero-RCS cells
    (glass) are dropped.

    Specular mechanism: a facet that contains the orthogonal foot of the
    device returns a mirror image of the transmitter. The foot is a
    scatterer at range rho (the device's distance to the plane) with the
    plane RCS pi*rho^2*(1 - scatter_ratio^2) and xi = 0: the image-source
    gain lambda^2*(1 - scatter_ratio^2) / ((4*pi)^2 * (2*rho)^2). Specular
    paths follow all diffuse ones; PathSet.specular marks them.

    One pass over the groups (each facet's cells in facet order, then each
    foot) turns a group's points into unit rays in place, casts them against
    the other facets and keeps only its visible rows of positive sigma_RCS,
    so no facet's cells outlive its turn; the kept rows take one rotation to
    the device frame. Only xi reads the seed, one draw per facet over all its
    cells before pruning: delays, angles, ranges, specular flags and
    |amplitude| (to ~1e-16 relative) are the same at every seed.
    """
    if cell_size_m <= 0:
        raise ValueError("cell_size_m must be positive")
    rng = np.random.default_rng(seed)
    origin = scene.device.position
    groups = []  # each group's kept rows (_visible_rows), diffuse cells by facet first
    for fi, facet in enumerate(scene.facets):
        centers, sigma = _subdivide(facet, cell_size_m)
        sigma *= BACKSCATTER_GAIN * facet.material.scatter_ratio  # the cell areas, in place
        # Draw the phases before any pruning so the set of random numbers a
        # facet consumes depends only on its own geometry.
        xi = rng.uniform(0.0, 2.0 * np.pi, size=len(sigma))
        groups.append(_visible_rows(scene, fi, centers, sigma, xi, np.zeros(len(sigma), dtype=bool)))
        del centers, sigma, xi  # before the next facet is cut
    for fi, facet in enumerate(scene.facets):
        n = facet.normal
        dist = np.dot(origin - facet.vertices[0], n)  # signed distance to the plane
        # The ray from the device along -sign(dist)*n meets the plane at the foot.
        if abs(dist) >= 1e-9 and np.isfinite(_ray_quad(origin, -np.sign(dist) * n[None, :], facet)[0]):
            sigma = np.pi * dist**2 * (1.0 - facet.material.scatter_ratio**2)  # power not diffused
            foot = (origin - dist * n)[None, :]
            groups.append(_visible_rows(scene, fi, foot, np.array([sigma]), np.zeros(1), np.ones(1, dtype=bool)))
    rays, rho, sigma, xi, specular = (np.concatenate(column) for column in zip(*groups))
    del groups
    if not len(sigma):
        raise ValueError("scene produced no backscatter paths")
    rays = scene.device.to_device(rays)
    theta_z = np.arccos(np.clip(rays[:, 2], -1.0, 1.0))
    theta_x = np.arccos(np.clip(rays[:, 0], -1.0, 1.0))
    del rays
    tau = 2.0 * rho / SPEED_OF_LIGHT
    f_c = SPEED_OF_LIGHT / wavelength_m
    amp = np.sqrt(path_gain(sigma, rho, wavelength_m)) * np.exp(1j * (xi - 2.0 * np.pi * f_c * tau))
    return PathSet(tau, amp, theta_z, theta_x, rho, specular)


# ---------------------------------------------------------------------------
# JSON scene configs
# ---------------------------------------------------------------------------

def _catalog_material(name: str) -> Material:
    try:
        return MATERIALS[name]
    except KeyError:
        raise ValueError(f"unknown material {name!r}; catalog: {sorted(MATERIALS)}") from None


def _check_keys(data: dict, allowed: set, what: str) -> None:
    extra = set(data) - allowed
    if extra:
        raise ValueError(f"unknown {what} keys {sorted(extra)}")


def _material_from_spec(spec) -> Material:
    if isinstance(spec, str):
        return _catalog_material(spec)
    if isinstance(spec, dict):
        _check_keys(spec, {"name", "scatter_ratio"}, "material")
        return Material(**spec)
    raise ValueError("material must be a catalog name or an inline object")


def scene_from_dict(data: dict) -> Scene:
    """Build a Scene from a JSON-shaped dict; unknown keys are rejected."""
    _check_keys(data, {"facets", "device"}, "scene")
    facets = []
    for fd in data["facets"]:
        _check_keys(fd, {"vertices", "material"}, "facet")
        facets.append(
            PlanarFacet(
                vertices=np.asarray(fd["vertices"], dtype=float),
                material=_material_from_spec(fd["material"]),
            )
        )
    dev = data.get("device", {})
    _check_keys(dev, {"position", "boresight", "up"}, "device")
    pose = DevicePose(
        position=np.asarray(dev.get("position", [0.0, 0.0, 0.0]), dtype=float),
        boresight=np.asarray(dev.get("boresight", [0.0, 1.0, 0.0]), dtype=float),
        up=np.asarray(dev.get("up", [0.0, 0.0, 1.0]), dtype=float),
    )
    return Scene(facets=facets, device=pose)


def scene_to_dict(scene: Scene) -> dict:
    return {
        "facets": [
            {
                "vertices": f.vertices.tolist(),
                "material": {"name": f.material.name, "scatter_ratio": f.material.scatter_ratio},
            }
            for f in scene.facets
        ],
        "device": {
            "position": scene.device.position.tolist(),
            "boresight": scene.device.boresight.tolist(),
            "up": scene.device.up.tolist(),
        },
    }


def load_scene(path) -> Scene:
    with open(path) as fh:
        return scene_from_dict(json.load(fh))


def save_scene(scene: Scene, path) -> None:
    with open(path, "w") as fh:
        json.dump(scene_to_dict(scene), fh, indent=2)


# ---------------------------------------------------------------------------
# Builtin scenes and the scene section of a scenario config
# ---------------------------------------------------------------------------

def _rect(axis: int, at: float, u, w, material: str) -> PlanarFacet:
    """
    Axis-aligned rectangle of catalog material at `at` on axis 0, 1 or 2
    (x, y, z), with corners (u0, w0), (u1, w0), (u1, w1), (u0, w1) on the
    other two axes in x, y, z order. That order sets the normal and the
    order of the _subdivide cells, and so the phase each cell draws.
    """
    corners = [(u[0], w[0]), (u[1], w[0]), (u[1], w[1]), (u[0], w[1])]
    return PlanarFacet([[*c[:axis], at, *c[axis:]] for c in corners], _catalog_material(material))


def _fov_half_extents(view: SceneView, distance_m: float, margin: float) -> tuple[float, float]:
    """Half width / half height of the field of view at a given distance, times margin."""
    if not margin > 0:
        raise ValueError("margin must be positive")
    tan_h = np.tan(np.radians(view.fov_deg) / 2.0)
    tan_v = tan_h / view.aspect_ratio
    return distance_m * tan_h * margin, distance_m * tan_v * margin


def _scene_one_wall(
    view: SceneView,
    distance_m: float = 7.0,
    material: str = "concrete",
    margin: float = 1.15,
) -> Scene:
    """Single flat wall square to the boresight, oversized past the FoV edge."""
    if not distance_m > 0:
        raise ValueError("distance_m must be positive")
    hw, hh = _fov_half_extents(view, distance_m, margin)
    wall = _rect(1, distance_m, (-hw, hw), (-hh, hh), material)
    return Scene(facets=[wall], device=DevicePose(position=np.zeros(3)))


def _scene_two_walls(
    view: SceneView,
    front_distance_m: float = 1.0,
    back_distance_m: float = 2.0,
    front_material: str = "concrete",
    back_material: str = "concrete",
    margin: float = 1.15,
) -> Scene:
    """
    Half-width wall in front of a full wall: the front wall covers the left
    half of the view, so every map has a vertical depth discontinuity at
    boresight and the back wall is partly shadowed.
    """
    if not 0 < front_distance_m < back_distance_m:
        raise ValueError("need 0 < front_distance_m < back_distance_m")
    f_hw, f_hh = _fov_half_extents(view, front_distance_m, margin)
    b_hw, b_hh = _fov_half_extents(view, back_distance_m, margin)
    front = _rect(1, front_distance_m, (-f_hw, 0.0), (-f_hh, f_hh), front_material)
    back = _rect(1, back_distance_m, (-b_hw, b_hw), (-b_hh, b_hh), back_material)
    return Scene(facets=[front, back], device=DevicePose(position=np.zeros(3)))


def _scene_pillar_room(
    view: SceneView,
    size_m: float = 5.0,
    height_m: float = 3.0,
    pillar_distance_m: float = 2.0,
    pillar_half_width_m: float = 0.2,
    wall_material: str = "concrete",
    pillar_material: str = "wood",
) -> Scene:
    """
    Closed room with two pillars: concrete back and side walls, floorboard
    floor, ceiling board above, and two wood pillars partway in. Exercises
    occlusion, multiple materials and grazing-incidence surfaces at once.
    The pillars stand in front of the back wall, each within its half of
    the room. Every facet is one _rect: 5 room faces, then each pillar's
    front, back, left and right side.
    """
    if not (size_m > 0 and height_m > 0):
        raise ValueError("size_m and height_m must be positive")
    if not 0 < pillar_half_width_m < size_m / 4:
        raise ValueError("need 0 < pillar_half_width_m < size_m / 4")
    if not (pillar_distance_m > 0 and pillar_distance_m + 2 * pillar_half_width_m < size_m):
        raise ValueError("need 0 < pillar_distance_m and pillar_distance_m + 2 * pillar_half_width_m < size_m")
    s = size_m / 2.0
    h = height_m / 2.0
    facets = [
        _rect(1, size_m, (-s, s), (-h, h), wall_material),  # back wall
        _rect(0, -s, (0.0, size_m), (-h, h), wall_material),  # left wall
        _rect(0, s, (0.0, size_m), (-h, h), wall_material),  # right wall
        _rect(2, -h, (-s, s), (0.0, size_m), "floorboard"),  # floor
        _rect(2, h, (-s, s), (0.0, size_m), "ceilingboard"),  # ceiling
    ]
    y0, y1 = pillar_distance_m, pillar_distance_m + 2 * pillar_half_width_m
    for x_c in (-size_m / 4.0, size_m / 4.0):
        x0, x1 = x_c - pillar_half_width_m, x_c + pillar_half_width_m
        facets += [_rect(1, y, (x0, x1), (-h, h), pillar_material) for y in (y0, y1)]  # front, back
        facets += [_rect(0, x, (y0, y1), (-h, h), pillar_material) for x in (x0, x1)]  # left, right
    return Scene(facets=facets, device=DevicePose(position=np.zeros(3)))


BUILTIN_SCENES = {
    "one_wall": _scene_one_wall,
    "two_walls": _scene_two_walls,
    "pillar_room": _scene_pillar_room,
}


def build_scene(scene_cfg: dict, view: SceneView) -> Scene:
    """
    Check the scene section of a config ({"builtin": name, ...params},
    {"file": path} or {"inline": scene dict}) and build its Scene. Unknown
    keys, names or materials, missing keys, a file path that is not a string
    and bad parameter values raise ValueError; an unreadable file, OSError.
    """
    modes = [k for k in ("builtin", "file", "inline") if k in scene_cfg]
    if not modes and scene_cfg:
        raise ValueError(
            f"scene config sets {sorted(scene_cfg)} but names no scene: add builtin, file or inline "
            "(e.g. --scenario one_wall)"
        )
    if len(modes) != 1:
        raise ValueError("scene config needs exactly one of: builtin, file, inline")
    mode = modes[0]
    params = {k: v for k, v in scene_cfg.items() if k != mode}
    if mode == "builtin":
        name = scene_cfg["builtin"]
        if name not in BUILTIN_SCENES:
            raise ValueError(f"unknown builtin scene {name!r}; have {sorted(BUILTIN_SCENES)}")
        builder = BUILTIN_SCENES[name]
        extra = set(params) - (set(inspect.signature(builder).parameters) - {"view"})
        if extra:
            raise ValueError(f"unknown {name} scene keys: {sorted(extra)}")
        try:
            return builder(view, **params)
        except TypeError as exc:
            raise ValueError(f"bad {name} scene parameter: {exc}") from None
    if params:
        raise ValueError(f"{mode} scene config takes no other keys")
    if mode == "file" and not isinstance(scene_cfg["file"], (str, os.PathLike)):
        raise ValueError(f"scene file must be a path string, got {scene_cfg['file']!r}")
    try:
        return scene_from_dict(scene_cfg["inline"]) if mode == "inline" else load_scene(scene_cfg["file"])
    except KeyError as exc:
        raise ValueError(f"bad {mode} scene: missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"bad {mode} scene: {exc}") from None
