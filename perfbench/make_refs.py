"""Write the committed references in refs/ from the library.

    python3 perfbench/make_refs.py

The references pin the outputs that do not depend on the workload seed.
Rewrite them only when a change is meant to alter those outputs, and say
why in the change; ``selftest.py`` checks that the independent screen in
``oracle.py`` still reproduces them.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import workloads  # noqa: E402
from rocofscreen import rocof  # noqa: E402


def build() -> dict:
    refs = {}
    for wl in workloads.WORKLOADS.values():
        st = wl.prepare(0)      # the referenced outputs do not depend on the seed
        model, states, res = workloads.first_map(st.case, st.map_ctg)
        ref = {"map_contingency": sorted(st.map_ctg.outaged_generator_ids),
               "map_rocof": res.bus_rocof_hz_s.tolist()}
        if wl.name == "fleet40-bank":
            ref["anchors"] = {}
            for lc in st.extra["lcs"]:
                m, s = oracle.loading_case_model(st.extra["fleet"], lc)
                ctg = rocof.Contingency.of("anchor", wl.anchor)
                ref["anchors"][lc.id] = rocof.locational_rocof(m, s, ctg).bus_rocof_hz_s.tolist()
        if wl.name == "case9-shed-sim":
            st.model, st.states = model, states
            events, nadir = wl.main(st, 0, None)
            ref["sim"] = {"events": events, "nadir_hz": nadir}
        refs[wl.ref] = ref
    return refs


if __name__ == "__main__":
    for name, ref in build().items():
        (oracle.REF_DIR / f"{name}.json").write_text(json.dumps(ref) + "\n")
        print(f"wrote {oracle.REF_DIR / name}.json")
