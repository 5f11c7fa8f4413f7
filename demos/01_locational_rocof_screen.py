"""Per-bus ROCOF screening on the bundled 9-bus case.

Walks the full screening chain: power flow, dynamic network model, machine
initialization, and the two-solve locational screen for a generator trip.
The punchline is the spread of the per-bus values around the system-wide
figure: buses electrically close to the lost machine see a much steeper
initial frequency decline.
"""

from pathlib import Path

import numpy as np

from rocofscreen import (Contingency, build_model, case_io, load_case9,
                         locational_rocof, system_rocof, total_inertia_gws)

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

case = load_case9()
print(f"case: {case.name}, {len(case.buses)} buses, "
      f"{total_inertia_gws(case):.3f} GW-s of synchronous inertia")

sol, model, states = build_model(case)
print(f"power flow: {sol.iterations} iterations, "
      f"max mismatch {sol.max_mismatch_pu:.2e} pu")

# trip the 85 MW machine at bus 3
contingency = Contingency.of("gen3-trip", ["gen3"])
res = locational_rocof(model, states, contingency)

print(f"\nsystem-wide screen: {res.system_rocof_hz_s:+.4f} Hz/s "
      f"for {res.mw_lost:.0f} MW lost")
print(f"(inertia arithmetic check: "
      f"{system_rocof(case, 85.0, outaged_ids=['gen3']):+.4f} Hz/s)")

print("\nper-bus theoretical ROCOF:")
for bid, val in zip(res.bus_ids, res.bus_rocof_hz_s):
    bar = "#" * int(round(-val * 20))
    print(f"  bus {bid}: {val:+.4f} Hz/s  {bar}")

worst = res.bus_ids[int(np.nanargmin(res.bus_rocof_hz_s))]
print(f"\nworst bus: {worst} "
      f"({np.nanmin(res.bus_rocof_hz_s):+.4f} Hz/s) -- "
      f"{abs(np.nanmin(res.bus_rocof_hz_s) / res.system_rocof_hz_s):.2f}x "
      "the system-wide value")
print(f"cost: {res.n_solves} sparse solves for the whole screen")

case_io.write_rocof_csv(res, out_dir / "rocof_gen3.csv")
case_io.write_rocof_geojson(res, out_dir / "rocof_gen3.geojson", case)
print(f"\nwrote {out_dir / 'rocof_gen3.csv'} and .geojson "
      "(point layer for any GIS viewer)")
