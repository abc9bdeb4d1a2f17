"""What a second surface buys when the direct ray is blocked.

Composes the same drawn channels three ways (no surface, surface 1 only,
both surfaces) so the comparison is paired, and prints the mean rates and
relative gains at a receiver between the two panels.
"""

import numpy as np

from rischan import (
    ArrayGeometry,
    Environment,
    Plane,
    Point3,
    RisPanel,
    Scene,
    SurfaceOrientation,
    achievable_rate,
    compose_multi,
    phases_cophase,
    realize_multi,
)

wall = SurfaceOrientation(Plane.XZ, facing=-1)
scene = Scene(
    environment=Environment.indoor_office(),
    frequency_hz=28e9,
    tx=Point3(0.0, 25.0, 2.0),
    rx=Point3(55.0, 38.0, 1.0),
    ris=Point3(40.0, 50.0, 2.0),  # surface 1
    ris_geometry=ArrayGeometry(16, 16, orientation=wall),
    extra_panels=(RisPanel(Point3(60.0, 40.0, 2.5), ArrayGeometry(16, 16, orientation=wall)),),
    los_tx_ris="on",   # surfaces installed with a clear view of the Tx
    los_tx_rx="off",   # direct ray blocked, scattering remains
)

REALS = 400
totals = np.zeros(3)
for i in range(REALS):
    real = realize_multi(scene, 2025, i)
    cfgs = [phases_cophase(h[:, 0], g[0, :]) for h, g in real.hops]
    for j, phase_list in enumerate(([None, None], [cfgs[0], None], cfgs)):
        totals[j] += achievable_rate(compose_multi(real, phase_list)).rate_bits_hz
none, one, two = totals / REALS

print(f"receiver at {scene.rx}, {REALS} paired draws, direct ray blocked\n")
print(f"no surface:    {none:6.3f} bit/s/Hz")
print(f"surface 1:     {one:6.3f} bit/s/Hz  (+{100 * (one - none) / none:.1f}%)")
print(f"both surfaces: {two:6.3f} bit/s/Hz  (+{100 * (two - none) / none:.1f}%)")
