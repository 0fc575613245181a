"""
Scenes, materials, and ray-cast reference maps.

A scene is a list of planar facets with measured backscatter materials, plus
the device pose. Two things come out of it: ground-truth range/depth maps
(pure ray casting through the sensor grid, no radio) and the backscatter
path set that feeds the channel (facets diced into diffuse scattering cells,
each with a delay, an angle pair, and a link-budget amplitude).

This demo builds the three builtin scenes, renders their truth maps to PGM,
and pokes at the path statistics that drive everything downstream.
"""
from pathlib import Path

import numpy as np

from mmdepth.codebook import SceneView
from mmdepth.io import write_pgm16
from mmdepth.scene import BUILTIN_SCENES, MATERIALS, ground_truth_maps, trace_backscatter_paths

view = SceneView()
out = Path("demo_ground_truth")
out.mkdir(exist_ok=True)

print("materials (fraction of incident power re-scattered):")
for name, mat in sorted(MATERIALS.items(), key=lambda kv: -kv[1].scatter_ratio):
    print(f"    {name:13s} {mat.scatter_ratio:.2f}")

for name, builder in BUILTIN_SCENES.items():
    scene = builder(view)
    gt_range, gt_depth = ground_truth_maps(scene, view, (144, 256))
    write_pgm16(out / f"{name}_range.pgm", gt_range)
    write_pgm16(out / f"{name}_depth.pgm", gt_depth)

    paths = trace_backscatter_paths(scene, wavelength_m=5e-3, cell_size_m=0.05, seed=np.random.SeedSequence(0))
    finite = np.isfinite(gt_range)
    print(
        f"{name}: {len(scene.facets)} facet(s), {len(paths)} paths, "
        f"depth {np.nanmin(gt_depth[finite]):.2f}..{np.nanmax(gt_depth[finite]):.2f} m, "
        f"{100.0 * (~finite).mean():.0f}% of rays leave the scene"
    )

print(f"\ntruth maps (144x256 px, millimeter PGM) in {out}/")
print("range = distance along the ray; depth = its component along boresight.")
print("The two differ most in the corners, where rays leave at wide angles.")
