"""Inertia-adequacy screening for electric grids.

Computes per-bus theoretical rate-of-change-of-frequency after generation
loss contingencies, validates it against a classical swing-equation
simulator, synthesizes inertia and load-shedding parameters for cases that
lack them, and runs contingency/loading scenario banks at scale.
"""

from importlib import resources

from .case_model import (Branch, Bus, CaseValidationError, Generator,
                         GridCase, InputError, Load, LoadingCase,
                         ScenarioRecord, UnknownIdError, Violation,
                         total_inertia_gws, validate_case)
from .case_io import (CaseParseError, apply_sidecar, import_cdf, read_case,
                      write_case, write_rocof_csv, write_rocof_geojson,
                      write_sidecar, write_sim_csv)
from .powerflow import (PowerFlowDivergence, PowerFlowError,
                        PowerFlowSolution, SingularJacobian,
                        accept_solved_voltages, solve_powerflow)
from .netdyn import (MachineStates, ModelBuildError, NetworkModel,
                     SingularNetworkError, augment_dynamic, build_model,
                     build_ybus, electrical_torque, init_machines,
                     norton_currents)
from .rocof import (Contingency, RocofBatch, RocofResult, SingularOutageError,
                    ZeroInertiaError, locational_rocof, locational_rocof_batch,
                    system_rocof)
from .swingsim import (SimOptions, SimResult, SimulationBlowup, TripEvent,
                       bus_frequency, check_ffr, check_ufls, simulate)
from .synthdyn import (DEFAULT_FUEL_SPECS, FuelInertiaSpec,
                       assign_plant_correlated, assign_ufls, sample_h,
                       validate_synthesis)
from .scenarios import (CONCERN_ROCOF_HZ_S, InfeasibleDispatch,
                        dispatch_heuristic, generate_contingencies,
                        generate_loading_cases, run_bank)

__version__ = "0.1.0"


def load_case9() -> GridCase:
    """The bundled 9-bus benchmark case with classical machine data."""
    path = resources.files("rocofscreen.data").joinpath("wscc9.json")
    with resources.as_file(path) as p:
        return read_case(p)
