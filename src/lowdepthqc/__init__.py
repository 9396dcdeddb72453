"""Low-depth Hadamard-test circuits and a variational Burgers' solver."""

from .ansatz import (AnsatzSpec, BaselineSpec, Head, Variant, ansatz_state,
                     build_ansatz, build_baseline, register_circuit)
from .burgers import (BurgersGrid, CostCoefficients, FieldState, GTermBundle,
                      bracket_oracle, classical_step, classical_trajectory,
                      cost_bracket, evaluate_cost_direct, gterm_values,
                      infidelity, initial_condition_gaussian, step_matrix)
from .circuit import (Circuit, CircuitError, CircuitSyntaxError, Gate,
                      GateInstance, dagger, gate_unitary, parse_circuit,
                      serialize_circuit)
from .elision import (EquivalenceReport, HadamardForm, NotHadamardForm,
                      detect_hadamard_form, elide_ancilla_controls,
                      statevector_deviation, verify_equivalence)
from .hadamard import (AdderSpec, EstimatorMode, GTermKind, adder_gates,
                       adder_matrix, build_gterm_circuit, estimate_gterm,
                       gterm_oracle, noisy_expectation)
from .noise import (DeviceCalibration, GateDurations, NoiseModel,
                    QubitCalibration, amplitude_damping, builtin_profiles,
                    dephasing, load_calibration_csv)
from .sgeo import (FitResult, OptimizeResult, SweepConfig, TraceEntry,
                   fit_initial_state, optimize_step, reconstruct_bracket,
                   reconstruct_cost, reconstruction_coeffs)
from .simulator import (ShotConfig, ancilla_expectation_z, density_expectation_z,
                        run_density, run_statevector, sample_expectation_z,
                        sample_from_expectation)
from .transpile import (BasisTarget, GateCountReport, count_report, decompose,
                        equivalent_up_to_phase, permuted_amps)

__all__ = [name for name in dir() if not name.startswith("_")]
