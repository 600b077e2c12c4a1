"""Single machine scheduling under time-of-use energy tariffs with machine
power-saving states: switching cost pre-processing, an exact solver,
schedule validation, integer-program export and a benchmark generator."""

from .datagen import (MachinePreset, SplitMix64, generate_family, generate_instance,
                      preset_nosby, preset_twosby)
from .isg import (ApspResult, DistanceMap, IntervalStateGraph, apsp_oracle, build_graph,
                  proc_window, sssp, to_dot)
from .model import (InfeasibleError, InputError, Instance, MachineStateSet, Schedule,
                    TransitionSpec, Violation, compute_tec, instance_from_dict,
                    instance_to_dict, job_cost, load_instance, load_schedule,
                    save_instance, save_schedule, schedule_from_dict, schedule_to_dict,
                    validate_instance, validate_schedule)
from .modelgen import (IlpModelArtifact, emit_ilp_spaces, import_solution, load_varmap,
                       parse_solution_text, write_artifact)
from .solver import (SolveResult, SolveStats, assemble_schedule, brute_force_schedule,
                     brute_force_switching, solve_exact)
from .spaces import (SpacesTable, apply_pruning, compute_spaces, expand_space, load_table,
                     save_table, switching_path, write_phi_csv)

__version__ = "0.1.0"
