"""
Parameter sweeps: how accuracy moves with distance, power, and preamble.

sweep() reruns a base scenario with one knob changed at a time, keeping the
seed fixed so rows differ only in the swept parameter. Four standard
studies:

  distance    error vs wall distance is NOT monotone-increasing: near walls
              are clutter-limited (the pulse footprint spans a wide range
              spread inside each beam), so 1 m scores worse than 7 m.
  tx_power    error falls as power rises out of the noise floor, then
              saturates once clutter dominates.
  preamble    longer preambles buy matched-filter gain; at 3 m the 3328
              sequence clearly beats a 50-sample one. (At 1 m the clutter
              regime can invert this comparison.)
  gamma       the detection margin trades missed paths (holes to fill)
              against noise picks. It is an estimation key (ESTIMATION_KEYS),
              so the sweep simulates the scene once and only re-estimates.
"""
from mmdepth.pipeline import sweep

base = {"name": "one_wall", "scene": {"builtin": "one_wall"}}


def show(title, rows, unit=""):
    print(title)
    for r in rows:
        print(
            f"    {r['value']:>6}{unit}: range MAE {r['range_mae_m']:.4f} m, "
            f"depth MAE {r['depth_mae_m']:.4f} m, filled {r['filled_beams']}"
        )
    print()


show("wall distance (30 dBm, 3328-sample preamble):",
     sweep(base, "distance", [1.0, 3.0, 5.0, 7.0]), " m")

seven = {"name": "one_wall", "scene": {"builtin": "one_wall", "distance_m": 7.0}}
show("transmit power at 7 m:",
     sweep(seven, "tx_power", [15.0, 20.0, 25.0, 30.0]), " dBm")

three = {"name": "one_wall", "scene": {"builtin": "one_wall", "distance_m": 3.0}}
show("preamble length at 3 m:",
     sweep(three, "preamble_len", [50, 3000]))

show("detection margin gamma at 7 m (one simulation):",
     sweep(seven, "estimator.gamma", [2.0, 3.0, 4.0, 6.0, 8.0]))

print("Short names (tx_power, preamble_len, distance, upa_size, os_factor)")
print("resolve to their dotted config paths; any dotted path sweeps too.")
