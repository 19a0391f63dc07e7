"""Simulator and resource planner for loss-free fusion of polarization W states."""

from .homodyne import (
    DiscriminationReport,
    class_mean,
    discrimination_report,
    p_error,
)
from .optics import (
    BranchState,
    ExactAmp,
    FusionTerm,
    PathLabel,
    Polarization,
    ProbeConfig,
    RegisterKind,
    apply_bs,
    apply_hwp45,
    apply_path_coupler,
    apply_swap,
    cross_kerr_on_path,
    cross_kerr_on_polarization,
    make_branch_state,
    normalize_global_phase,
    probe_linear_shift,
)
from .oracle import (
    DenseState,
    brute_force_leaf_probabilities,
    brute_force_pipeline,
    expand_symbolic,
    fidelity,
    make_w_state,
)
from .planner import (
    CampaignResult,
    CostTable,
    cost_tables_csv,
    optimal_costs,
    p_pair,
    ps_qlf,
    run_campaign,
)
from .protocol import (
    LeafClassification,
    LeafKind,
    MeasurementBranch,
    OutcomeTree,
    PhaseClass,
    build_input_state,
    homodyne_measure,
    project_recyclable,
    run_fusion,
    step1_polarization_gate,
    step2_spatial_gate,
    step3_polarization_gate,
)

__version__ = "0.1.0"
