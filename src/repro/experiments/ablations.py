"""Design-choice ablations as registered experiments.

The cost-model-feature, coherence-policy and vector-width ablations are
each a first-class :class:`ExperimentDef`, so they run through
``python -m repro run <name>``; ``tests/test_paper_claims.py`` calls the
same row builders to check their sanity bounds at full scale.

These are not (workload x policy) sweeps -- each varies something the
sweep engine's :class:`RunSpec` does not carry (a ``CostModelConfig``, a
``CoherencePolicy``, a ``VectorizerConfig``) -- so the definitions follow
Table 3's compile-only pattern: an empty policy axis and a builder that
drives its own serial runs off ``ctx.config``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Sequence

from repro.core.coherence import CoherencePolicy
from repro.core.compiler.vectorizer import VectorizerConfig
from repro.core.offload.cost_model import CostModelConfig
from repro.core.offload.policies import ConduitPolicy
from repro.core.platform import SSDPlatform
from repro.core.runtime import ConduitRuntime
from repro.experiments.registry import (ExperimentContext, ExperimentDef,
                                        register_experiment)
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.workloads import workload_by_name

Rows = List[Dict[str, object]]

#: Cost-function feature ablations (Eqn. 1): drop one feature, or
#: combine the overlap delays with a sum instead of the paper's max.
COST_ABLATIONS: "OrderedDict[str, CostModelConfig]" = OrderedDict((
    ("full", CostModelConfig()),
    ("no-queueing-delay", CostModelConfig(include_queueing_delay=False)),
    ("no-data-movement", CostModelConfig(include_data_movement=False)),
    ("no-dependence-delay", CostModelConfig(include_dependence_delay=False)),
    ("sum-of-delays", CostModelConfig(combine_delays_with_max=False)),
))

#: Workloads the ablations run on (chosen to stress the varied knob).
COST_ABLATION_WORKLOAD = "LlaMA2 Inference"
COHERENCE_ABLATION_WORKLOAD = "heat-3d"
VECTOR_WIDTH_ABLATION_WORKLOAD = "heat-3d"

#: Compile-time vector widths the width ablation compares.
ABLATION_VECTOR_WIDTHS = (4096, 1024, 256)


def cost_ablation_rows(config: ExperimentConfig) -> Rows:
    """One Conduit run per cost-model variant on LLaMA2 Inference."""
    runner = ExperimentRunner(config)
    workload = workload_by_name(COST_ABLATION_WORKLOAD,
                                scale=config.workload_scale)
    rows: Rows = []
    for name, cost_config in COST_ABLATIONS.items():
        result = runner.run_with_policy(workload, ConduitPolicy(cost_config))
        rows.append({"variant": name,
                     "time_ms": result.total_time_ns / 1e6,
                     "energy_mJ": result.total_energy_nj / 1e6})
    return rows


def coherence_ablation_rows(config: ExperimentConfig) -> Rows:
    """Lazy (paper) vs strict flush-on-every-write coherence on heat-3d."""
    workload = workload_by_name(COHERENCE_ABLATION_WORKLOAD,
                                scale=config.workload_scale)
    program, _ = workload.vector_program()
    rows: Rows = []
    for name, policy in (("lazy", CoherencePolicy.LAZY),
                         ("strict", CoherencePolicy.STRICT)):
        platform = SSDPlatform(replace(config.platform,
                                       coherence_policy=policy))
        result = ConduitRuntime(platform).execute(
            program, ConduitPolicy(), workload.name)
        rows.append({"coherence": name,
                     "time_ms": result.total_time_ns / 1e6,
                     "flushes": platform.coherence.flushes})
    return rows


def vector_width_ablation_rows(
        config: ExperimentConfig,
        widths: Sequence[int] = ABLATION_VECTOR_WIDTHS) -> Rows:
    """The page-aligned 4096-element width vs narrower widths (heat-3d)."""
    workload = workload_by_name(VECTOR_WIDTH_ABLATION_WORKLOAD,
                                scale=config.workload_scale)
    rows: Rows = []
    for width in widths:
        program, _ = workload.vector_program(
            VectorizerConfig(vector_width=width))
        platform = SSDPlatform(config.platform)
        result = ConduitRuntime(platform).execute(
            program, ConduitPolicy(), workload.name)
        rows.append({"vector_width": width,
                     "instructions": result.instructions,
                     "time_ms": result.total_time_ns / 1e6,
                     "avg_overhead_us": result.offload_overhead_avg_ns / 1e3})
    return rows


def _build_cost(ctx: ExperimentContext) -> "OrderedDict[str, Rows]":
    return OrderedDict(cost_ablation=cost_ablation_rows(ctx.config))


def _build_coherence(ctx: ExperimentContext) -> "OrderedDict[str, Rows]":
    return OrderedDict(coherence_ablation=coherence_ablation_rows(ctx.config))


def _build_vector_width(ctx: ExperimentContext) -> "OrderedDict[str, Rows]":
    return OrderedDict(
        vector_width_ablation=vector_width_ablation_rows(ctx.config))


COST_ABLATION_DEF = register_experiment(ExperimentDef(
    name="cost_ablation",
    title="Cost-function feature ablation -- drop one Eqn. 1 term at a time",
    description="Conduit on LLaMA2 Inference with the queueing-delay, "
                "data-movement or dependence-delay feature dropped (and "
                "max-of-delays replaced by a sum).",
    workloads=(COST_ABLATION_WORKLOAD,),
    build=_build_cost,
))

COHERENCE_ABLATION_DEF = register_experiment(ExperimentDef(
    name="coherence_ablation",
    title="Coherence ablation -- lazy (paper) vs strict flush-on-write",
    description="Conduit on heat-3d under lazy vs strict coherence, with "
                "the flush counts that explain the gap.",
    workloads=(COHERENCE_ABLATION_WORKLOAD,),
    build=_build_coherence,
))

VECTOR_WIDTH_ABLATION_DEF = register_experiment(ExperimentDef(
    name="vector_width_ablation",
    title="Vector-width ablation -- page-aligned 4096 vs narrower vectors",
    description="Conduit on heat-3d at compile-time vector widths 4096 / "
                "1024 / 256: instruction counts and per-instruction "
                "offloading overhead.",
    workloads=(VECTOR_WIDTH_ABLATION_WORKLOAD,),
    build=_build_vector_width,
))
