"""Low-depth Hadamard-test circuits and a variational Burgers' solver."""

from .ansatz import (AnsatzSpec, BaselineSpec, Head, Variant, ansatz_state,
                     build_ansatz, build_baseline, register_circuit)
from .burgers import (FAMILIES, BurgersGrid, FieldState, bracket_oracle,
                      bracket_weights, classical_step, classical_trajectory,
                      estimate_bracket, family_targets, gterm_values,
                      infidelity, initial_condition_gaussian, step_target)
from .circuit import (Circuit, CircuitError, CircuitSyntaxError, Gate,
                      GateInstance, dagger, gate_unitary, parse_circuit,
                      serialize_circuit)
from .elision import (NotHadamardForm, detect_hadamard_form, elide_body,
                      statevector_deviation)
from .hadamard import (AdderSpec, EstimatorMode, GTermKind, adder_gates,
                       adder_matrix, build_gterm_circuit, gterm_oracle,
                       noisy_expectation)
from .noise import (DeviceCalibration, NoiseModel, QubitCalibration,
                    amplitude_damping, builtin_profiles, dephasing,
                    load_calibration_csv)
from .sgeo import (FitResult, OptimizeResult, SweepConfig, TraceEntry,
                   fit_initial_state, optimize_step, reconstruct_bracket)
from .simulator import (ShotConfig, ancilla_expectation_z, run_density,
                        run_statevector, sample_from_expectation)
from .transpile import (BasisTarget, GateCountReport, count_report, decompose,
                        equivalent_up_to_phase, permuted_amps)

__all__ = [name for name in dir() if not name.startswith("_")]
