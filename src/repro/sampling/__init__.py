"""Training-data and workload sampling (paper §VII-A and §VIII).

Uniform instance samplers and the paper's random walk over star/chain shapes,
variable unbinding, and bucketed workload generation.
"""

from repro.sampling.random_walk import (
    ChainSampler,
    Instance,
    StarSampler,
    chain_walk_counts,
    count_chain_instances,
    count_star_instances,
    sample_instances,
)
from repro.sampling.unbinding import (
    chain_query_from_instance,
    query_from_instance,
    random_unbound_mask,
    star_query_from_instance,
)
from repro.sampling.io import (
    WorkloadFormatError,
    load_workload,
    parse_pattern,
    render_pattern,
    save_workload,
)
from repro.sampling.strategies import (
    DegreeWeightedRW,
    ExactUniformStrategy,
    ForestFireStrategy,
    InstanceStrategy,
    SampleQuality,
    SnowballStrategy,
    UniformStartRW,
    make_strategy,
    sample_quality,
    strategy_names,
)
from repro.sampling.trees import (
    generate_tree_workload,
    sample_tree_instance,
    tree_query_from_instance,
)
from repro.sampling.workload import (
    NUM_BUCKETS,
    QueryRecord,
    Workload,
    bucket_label,
    bucket_of,
    generate_test_queries,
    generate_workload,
)

__all__ = [
    "ChainSampler",
    "Instance",
    "StarSampler",
    "chain_walk_counts",
    "count_chain_instances",
    "count_star_instances",
    "sample_instances",
    "chain_query_from_instance",
    "query_from_instance",
    "random_unbound_mask",
    "star_query_from_instance",
    "DegreeWeightedRW",
    "ExactUniformStrategy",
    "ForestFireStrategy",
    "InstanceStrategy",
    "SampleQuality",
    "SnowballStrategy",
    "UniformStartRW",
    "make_strategy",
    "sample_quality",
    "strategy_names",
    "WorkloadFormatError",
    "load_workload",
    "parse_pattern",
    "render_pattern",
    "save_workload",
    "generate_tree_workload",
    "sample_tree_instance",
    "tree_query_from_instance",
    "NUM_BUCKETS",
    "QueryRecord",
    "Workload",
    "bucket_label",
    "bucket_of",
    "generate_test_queries",
    "generate_workload",
]
