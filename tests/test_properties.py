"""Properties checked on small generated networks rather than fixed cases."""

import numpy as np
from hypothesis import given, settings, strategies as st

from rocofscreen import Contingency, GridCase, locational_rocof
from rocofscreen.case_model import Branch, Bus, Generator, Load
from test_rocof import built_model, refactor_reference


@st.composite
def networks(draw):
    """A connected network of 3-8 buses (a random tree plus up to three
    chords) with 2-5 machines, some sharing a bus, and light loads, so the
    power flow is benign. The first machine's bus is the slack."""
    n = draw(st.integers(3, 8))
    reactance = st.floats(0.01, 0.06)
    branches = []
    for b in range(2, n + 1):
        x = draw(reactance)
        branches.append(Branch(draw(st.integers(1, b - 1)), b, x / 10, x, 0.02))
    for f, t in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                              max_size=3)):
        if f != t:
            x = draw(reactance)
            branches.append(Branch(f, t, x / 10, x, 0.02))

    load_mw = draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n))
    loads = [Load(id=f"ld{b}", bus_id=b, p_mw=p, q_mvar=0.3 * p)
             for b, p in enumerate(load_mw, start=1) if p > 0]
    machine_bus = draw(st.lists(st.integers(1, n), min_size=2, max_size=5))
    share = sum(load_mw) / len(machine_bus)
    gens = [Generator(id=f"m{k}", bus_id=b, s_base_mva=draw(st.floats(100.0, 400.0)),
                      p_mw=share, p_max_mw=100.0 + share, fuel="gas",
                      h_sec=draw(st.floats(2.0, 8.0)),
                      xdp_pu=draw(st.floats(0.15, 0.35)))
            for k, b in enumerate(machine_bus)]
    kinds = {b: "pv" for b in machine_bus}
    kinds[machine_bus[0]] = "slack"
    buses = [Bus(id=b, kind=kinds.get(b, "pq"),
                 v_mag=1.02 if b in kinds else 1.0) for b in range(1, n + 1)]
    case = GridCase(s_base_mva=100.0, name="generated", buses=tuple(buses),
                    generators=tuple(gens), loads=tuple(loads),
                    branches=tuple(branches))
    outaged = draw(st.permutations([g.id for g in gens]))
    k_out = draw(st.integers(1, min(3, len(gens) - 1)))
    return case, outaged[:k_out]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks())
def test_compensation_equals_refactoring_on_generated_networks(drawn):
    case, outaged = drawn
    model, states = built_model(case)
    null = locational_rocof(model, states, Contingency.of("null", []))
    assert np.all(np.abs(null.bus_rocof_hz_s) < 1e-9)

    ctg = Contingency.of("c", outaged)
    res = locational_rocof(model, states, ctg)
    rocof, _, _, _ = refactor_reference(model, states, ctg)
    assert not np.isnan(rocof).any()
    np.testing.assert_allclose(res.bus_rocof_hz_s, rocof, rtol=0, atol=1e-9)
    assert res.n_solves == 2
