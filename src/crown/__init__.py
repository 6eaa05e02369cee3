"""Contact representations of axis-aligned boxes with profit graphs."""

from .cycles import (
    CycleCover,
    decompose_cycle_covers,
    layout_cycle,
    layout_path,
    max_crown_cycles,
)
from .errors import (
    CrownError,
    CycleTooShortError,
    DuplicateIdError,
    FormatError,
    HierInfeasibleError,
    InvalidInstanceError,
    MissingBoxError,
    NotATreeError,
    NotPlanarError,
    OverlapError,
    ParameterError,
    TooFewBoxesError,
    TooLargeError,
    TriangulationInfeasibleError,
    XInfeasibleError,
    YConflictError,
)
from .extremal import (
    GadgetInstance,
    gen_3partition_tree_instance,
    gen_partition_star_instance,
    gen_power_squares,
    place_extremal,
)
from .gap import GapAssignment, GapInstance, GapItem, gap_sequential, knapsack_fptas
from .geometry import (
    BoxSpec,
    Contact,
    Layout,
    ProfitGraph,
    detect_contacts,
    pack_components,
    rat,
    realized_profit,
    realizes,
)
from .hier import (
    EmbeddedDag,
    EmbeddingViolation,
    assign_y,
    default_delta,
    solve_hier,
    solve_x,
    sweep_order,
    validate_embedding,
)
from .pipeline import (
    WordStats,
    box_dimensions,
    document_instance,
    load_corpus,
    load_stopwords,
    preprocess,
    random_baseline,
    similarity_profits,
    stem,
)
from .serialize import (
    InstanceDoc,
    dag_to_doc,
    dumps_doc,
    instance_to_doc,
    layout_to_doc,
    loads_doc,
    parse_dag,
    parse_instance,
    parse_layout,
    parse_triangulation,
    triangulation_to_doc,
)
from .stars import (
    Star,
    StarForest,
    StarInstance,
    max_crown_stars,
    maximal_planar_subgraph,
    partition_planar,
    partition_tree,
    solve_star,
    solve_star_forest,
)
from .svg import render_svg
from .triangulation import (
    InstanceViolation,
    TriangulationInstance,
    realize_triangulation,
    validate_instance,
)

__version__ = "0.1.0"
