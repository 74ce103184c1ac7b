"""Property: the sweep cache key is sound.

Two directions, matching the two failure modes an on-disk result cache
can have:

* **No collisions** -- every behaviour-changing knob anywhere in the
  :class:`~repro.core.platform.PlatformConfig` tree (and the other
  :class:`~repro.experiments.runner.RunSpec` fields) must perturb
  :func:`~repro.experiments.runner.run_spec_key`; a knob the key ignores
  would serve stale results recorded under a different semantics.  The
  walker below visits *every leaf field* of the config tree reflectively,
  so a future config field is covered the day it is added -- if it is
  deliberately non-semantic it must be added to ``KEY_EXEMPT_PLATFORM``
  here, which is exactly the conscious decision the test exists to force.
* **No spurious misses** -- random pairs of specs must map to equal keys
  *iff* they are semantically identical (equal after erasing the one
  known non-semantic field, the ``platform_name`` display label).
"""

from __future__ import annotations

import copy
import dataclasses
import enum
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.platform import PlatformConfig
from repro.dram.cxl import CXLPuDConfig
from repro.experiments.runner import RunSpec, run_spec_key
from repro.ssd.lifetime import MID_LIFE_PROFILE

#: Platform-tree fields deliberately excluded from the cache key, with
#: the invariant that justifies each exclusion.
#: Empty today: every platform knob is semantic.
KEY_EXEMPT_PLATFORM: frozenset = frozenset()


def _perturbation_candidates(value: object,
                             path: Tuple[str, ...] = ()) -> List[object]:
    """Different-but-well-typed replacements for a leaf field value.

    Several candidates are offered because config validation constrains
    many leaves (thresholds ordered against each other, ratios in
    ``[0, 1]``); the caller uses the first candidate the config tree
    accepts.  ``path`` disambiguates the ``None``-default optional leaves
    (the CXL tier and the drive-age profile), which need a replacement of
    the right optional type.
    """
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, enum.Enum):
        members = sorted(type(value), key=lambda member: member.value)
        return [members[(members.index(value) + 1) % len(members)]]
    if isinstance(value, int):
        return [value + 1, max(1, value - 1)]
    if isinstance(value, float):
        return [value * 2.0 + 1.0, value * 0.5 + 0.01, value * 0.9]
    if isinstance(value, str):
        return [value + "-perturbed"]
    if value is None:
        if path and path[-1] == "drive_age":
            return [MID_LIFE_PROFILE]
        # The other None-default leaf is the optional CXL tier.
        return [CXLPuDConfig()]
    raise AssertionError(
        f"config leaf of unhandled type {type(value).__name__}: {value!r}; "
        "teach _perturbation_candidates about it (and decide whether the "
        "cache key must cover it)")


def _leaf_paths(value: object, prefix: Tuple[str, ...] = ()
                ) -> List[Tuple[str, ...]]:
    """Every leaf field path of a dataclass tree, depth first."""
    paths: List[Tuple[str, ...]] = []
    for spec_field in dataclasses.fields(value):
        child = getattr(value, spec_field.name)
        path = prefix + (spec_field.name,)
        if dataclasses.is_dataclass(child):
            paths.extend(_leaf_paths(child, path))
        else:
            paths.append(path)
    return paths


def _replace_at(value, path: Tuple[str, ...], leaf_value):
    """A copy of a dataclass tree with the leaf at ``path`` replaced."""
    name = path[0]
    if len(path) == 1:
        return dataclasses.replace(value, **{name: leaf_value})
    return dataclasses.replace(value, **{
        name: _replace_at(getattr(value, name), path[1:], leaf_value)})


def _follow(value, path: Tuple[str, ...]):
    for name in path:
        value = getattr(value, name)
    return value


def _perturb_leaf(platform: PlatformConfig,
                  path: Tuple[str, ...]) -> PlatformConfig:
    """``platform`` with the leaf at ``path`` changed to a valid value."""
    leaf = _follow(platform, path)
    errors = []
    for candidate in _perturbation_candidates(leaf, path):
        if candidate == leaf:
            continue
        try:
            return _replace_at(platform, path, candidate)
        except Exception as error:  # config validation rejected it
            errors.append(error)
    raise AssertionError(
        f"no valid perturbation found for {'.'.join(path)} "
        f"(value {leaf!r}): {errors}")


BASE_SPEC = RunSpec(workload="AES", scale=0.05, policy="Conduit")


class TestEveryKnobPerturbsTheKey:
    """Reflective sweep over all PlatformConfig leaves."""

    @pytest.mark.parametrize(
        "path", _leaf_paths(PlatformConfig()),
        ids=lambda path: ".".join(path))
    def test_platform_leaf(self, path):
        base_key = run_spec_key(BASE_SPEC)
        platform = _perturb_leaf(BASE_SPEC.platform, path)
        key = run_spec_key(dataclasses.replace(BASE_SPEC,
                                               platform=platform))
        if path in KEY_EXEMPT_PLATFORM:
            assert key == base_key, (
                f"{'.'.join(path)} is documented as non-semantic and must "
                "share cache entries")
        else:
            assert key != base_key, (
                f"platform knob {'.'.join(path)} does NOT perturb the "
                "cache key; stale entries would be served across its "
                "values")

    def test_grown_drive_age_leaves_are_covered_too(self):
        """Leaves of the optional drive-age profile (None by default)."""
        platform = _replace_at(BASE_SPEC.platform,
                               ("lifetime", "drive_age"), MID_LIFE_PROFILE)
        spec = dataclasses.replace(BASE_SPEC, platform=platform)
        base_key = run_spec_key(spec)
        for path in _leaf_paths(platform.lifetime.drive_age,
                                ("lifetime", "drive_age")):
            perturbed = _perturb_leaf(platform, path)
            key = run_spec_key(dataclasses.replace(spec,
                                                   platform=perturbed))
            assert key != base_key, (
                f"drive-age knob {'.'.join(path)} does not perturb the key")

    def test_grown_cxl_tier_leaves_are_covered_too(self):
        """Leaves of the optional tier (absent from the default tree)."""
        platform = dataclasses.replace(BASE_SPEC.platform,
                                       cxl_pud=CXLPuDConfig())
        spec = dataclasses.replace(BASE_SPEC, platform=platform)
        base_key = run_spec_key(spec)
        for path in _leaf_paths(platform.cxl_pud, ("cxl_pud",)):
            perturbed = _perturb_leaf(platform, path)
            key = run_spec_key(dataclasses.replace(spec,
                                                   platform=perturbed))
            assert key != base_key, (
                f"CXL tier knob {'.'.join(path)} does not perturb the key")

    def test_spec_level_fields(self):
        base_key = run_spec_key(BASE_SPEC)
        assert run_spec_key(dataclasses.replace(
            BASE_SPEC, workload="XOR Filter")) != base_key
        assert run_spec_key(dataclasses.replace(
            BASE_SPEC, scale=0.1)) != base_key
        assert run_spec_key(dataclasses.replace(
            BASE_SPEC, policy="CPU")) != base_key
        # Content-defined workload identity (trace hash, zipf params) is
        # semantic: it must perturb the key.
        assert run_spec_key(dataclasses.replace(
            BASE_SPEC, workload_params=(("trace", "deadbeef"),))) != base_key
        assert run_spec_key(dataclasses.replace(
            BASE_SPEC, workload_params=(("trace", "deadbeef"),))) != \
            run_spec_key(dataclasses.replace(
                BASE_SPEC, workload_params=(("trace", "cafef00d"),)))
        # The variant display label is presentation, not semantics.
        assert run_spec_key(dataclasses.replace(
            BASE_SPEC, platform_name="an-alias")) == base_key

    def test_key_is_a_pure_function_of_the_spec(self):
        assert run_spec_key(BASE_SPEC) == run_spec_key(
            copy.deepcopy(BASE_SPEC))


# ------------------------------------------------------------------------
# Random pairs: key equality iff semantic identity
# ------------------------------------------------------------------------

#: Small finite pools so Hypothesis actually generates colliding pairs
#: (with wide pools every pair would differ and the iff would only ever
#: be exercised in one direction).
SPECS = st.builds(
    RunSpec,
    workload=st.sampled_from(["AES", "jacobi-1d"]),
    scale=st.sampled_from([0.05, 0.1]),
    policy=st.sampled_from(["Conduit", "CPU"]),
    platform=st.builds(
        PlatformConfig,
        contention_feedback=st.booleans(),
        isp_cores=st.integers(min_value=1, max_value=2),
        cxl_pud=st.sampled_from([None, CXLPuDConfig()]),
    ),
    platform_name=st.sampled_from(["default", "an-alias"]),
    workload_params=st.sampled_from([(), (("trace", "deadbeef"),),
                                     (("zipf", "seed=1"),)]),
)


def _semantic(spec: RunSpec) -> RunSpec:
    """The spec with its non-semantic display label erased."""
    return dataclasses.replace(spec, platform_name="")


class TestRandomSpecPairs:
    @given(a=SPECS, b=SPECS)
    @settings(max_examples=150, deadline=None)
    def test_key_equality_iff_semantic_identity(self, a, b):
        assert (run_spec_key(a) == run_spec_key(b)) == (
            _semantic(a) == _semantic(b))

    @given(spec=SPECS)
    @settings(max_examples=50, deadline=None)
    def test_key_is_deterministic(self, spec):
        assert run_spec_key(spec) == run_spec_key(copy.deepcopy(spec))
